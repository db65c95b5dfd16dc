"""Top-k most similar pairs — an extension beyond the paper.

A threshold join answers "all pairs above θ"; analysts often want "the k
most similar pairs" without guessing θ.  The classic reduction runs the
threshold join at a high θ and relaxes it until at least ``k`` pairs
survive: the result set at threshold θ contains *every* pair scoring ≥ θ,
so once it holds ``k`` pairs, its top ``k`` are the global top ``k``.

FS-Join fits this loop well because lower thresholds only lengthen
prefixes and weaken filters — the pipeline itself is unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.config import FSJoinConfig
from repro.core.fsjoin import FSJoin
from repro.data.records import RecordCollection
from repro.errors import ConfigError
from repro.mapreduce.runtime import SimulatedCluster
from repro.similarity.functions import SimilarityFunction

PairScore = Tuple[Tuple[int, int], float]


def topk_similar_pairs(
    records: RecordCollection,
    k: int,
    func: SimilarityFunction = SimilarityFunction.JACCARD,
    cluster: Optional[SimulatedCluster] = None,
    start_theta: float = 0.9,
    min_theta: float = 0.1,
    shrink: float = 0.75,
    config: Optional[FSJoinConfig] = None,
) -> List[PairScore]:
    """Return the ``k`` highest-scoring pairs, best first.

    Args:
        records: Collection to self-join.
        k: Number of pairs wanted (fewer are returned only when the whole
            collection has fewer scoring pairs above ``min_theta``).
        func: Similarity function.
        cluster: Simulated cluster (default paper-shaped).
        start_theta: First threshold tried.
        min_theta: Floor below which the search stops.
        shrink: Multiplicative threshold decay per round (in (0, 1)).
        config: Optional template config; its θ/func are overridden per
            round, everything else (partitions, pivots, join method) is
            kept.

    Ties at the k-th score are broken by record-id pair, deterministically.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    if not 0.0 < min_theta <= start_theta <= 1.0:
        raise ConfigError("need 0 < min_theta <= start_theta <= 1")
    if not 0.0 < shrink < 1.0:
        raise ConfigError("shrink must be in (0, 1)")
    cluster = cluster or SimulatedCluster()

    theta = start_theta
    while True:
        round_config = _with_theta(config, theta, func)
        pairs = FSJoin(round_config, cluster).run(records).result_pairs
        if len(pairs) >= k or theta <= min_theta:
            ranked = sorted(pairs.items(), key=lambda item: (-item[1], item[0]))
            return ranked[:k]
        theta = max(min_theta, theta * shrink)


def _with_theta(
    template: Optional[FSJoinConfig], theta: float, func: SimilarityFunction
) -> FSJoinConfig:
    if template is None:
        return FSJoinConfig(theta=theta, func=func)
    return FSJoinConfig(
        theta=theta,
        func=func,
        n_vertical=template.n_vertical,
        pivot_method=template.pivot_method,
        join_method=template.join_method,
        filters=template.filters,
        n_horizontal=template.n_horizontal,
        pivot_seed=template.pivot_seed,
    )
