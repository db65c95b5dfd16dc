"""FS-Join expressed as an RDD program (the paper's Spark future work).

The pipeline mirrors the three MapReduce jobs one-to-one and reuses the
exact same core operators (pivot selection, vertical partitioner, filter
battery, fragment joins, threshold algebra), so the two implementations
can be equivalence-tested against each other:

1. token frequencies via ``flat_map`` + ``reduce_by_key`` → global ordering
   (collected at the driver, like the broadcast in Algorithm 1's SetUp);
2. segments via ``flat_map`` keyed by ``(horizontal, vertical)`` partition,
   fragments via ``group_by_key``, partial counts via the shared
   ``join_fragment`` — stripes keyed by the record that owns their pairs;
3. per-owner aggregation via ``group_by_key`` + the shared stripe merge
   and threshold test of the verification job.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.config import FSJoinConfig
from repro.core.horizontal import build_horizontal_plan
from repro.core.joins import join_fragment
from repro.core.ordering import GlobalOrder
from repro.core.partitioning import VerticalPartitioner
from repro.core.pivots import select_pivots
from repro.data.records import RecordCollection
from repro.rdd.context import MiniSparkContext
from repro.core.verify_job import verify_stripes

PairScores = Dict[Tuple[int, int], float]


def fsjoin_rdd(
    ctx: MiniSparkContext,
    records: RecordCollection,
    config: FSJoinConfig,
) -> PairScores:
    """Self-join ``records``; returns ``(rid_small, rid_large) → score``."""
    base = ctx.parallelize(
        [(record.rid, record.tokens) for record in records]
    ).cache()

    # Stage 1: global ordering (driver-side broadcast, as in the paper).
    frequencies = (
        base.flat_map(lambda kv: ((token, 1) for token in kv[1]))
        .reduce_by_key(lambda a, b: a + b)
        .collect()
    )
    order = GlobalOrder(frequencies)
    cuts = select_pivots(
        order.rank_frequencies,
        config.n_vertical,
        method=config.pivot_method,
        seed=config.pivot_seed,
    )
    partitioner = VerticalPartitioner(cuts)
    horizontal = build_horizontal_plan(
        [record.size for record in records],
        config.n_horizontal,
        config.theta,
        config.func,
    )
    rank_of = {order.token(rank): rank for rank in range(order.vocab_size)}

    # Stage 2: vertical (+ horizontal) partitioning into fragments.
    def to_segments(kv):
        rid, tokens = kv
        ranks = tuple(sorted(rank_of[token] for token in tokens))
        if not ranks:
            return
        segments = partitioner.split(rid, ranks)
        for h in horizontal.partitions_of(len(ranks)):
            for v, segment in segments:
                yield ((h, v), segment)

    fragments = base.flat_map(to_segments).group_by_key(
        n_partitions=max(1, ctx.default_parallelism)
    )

    # Stage 3: per-fragment joins → partial counts, one stripe per owner.
    def join_one_fragment(kv):
        (h, _v), segments = kv
        return join_fragment(
            segments,
            method=config.join_method,
            theta=config.theta,
            func=config.func,
            filter_config=config.filters,
            pivot=horizontal.pivot_of(h),
        )

    # Stage 4: aggregate counts per owner, verify without the original records.
    return (
        fragments.flat_map(join_one_fragment)
        .group_by_key()
        .flat_map(lambda kv: verify_stripes(config.func, config.theta, *kv)[1])
        .collect_as_map()
    )
