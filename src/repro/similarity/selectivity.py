"""Sampling-based join-selectivity estimation.

Before committing to a full distributed join, planners want a cheap
estimate of how many result pairs a threshold will produce.  The classic
estimator joins a uniform sample of ``n`` of the ``N`` records exactly and
scales the pair count by ``(N/n)²`` — each unordered record pair survives
sampling with probability ``≈ (n/N)²``, so the scaled count is (nearly)
unbiased.  Variance shrinks with sample size and with averaging over
independent trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines.ppjoin import ppjoin_self_join
from repro.data.datasets import sample
from repro.data.records import RecordCollection
from repro.errors import ConfigError
from repro.similarity.functions import SimilarityFunction


@dataclass(frozen=True)
class SelectivityEstimate:
    """Result of a sampling run."""

    estimated_pairs: float
    sample_size: int
    trials: int
    per_trial: tuple


def estimate_result_count(
    records: RecordCollection,
    theta: float,
    func: SimilarityFunction = SimilarityFunction.JACCARD,
    sample_size: Optional[int] = None,
    trials: int = 3,
    seed: int = 0,
) -> SelectivityEstimate:
    """Estimate the self-join result count at threshold ``theta``.

    Args:
        records: The full collection.
        theta: Similarity threshold.
        func: Similarity function.
        sample_size: Records per trial (default: ``max(50, N // 10)``,
            capped at ``N``).
        trials: Independent samples to average over.
        seed: Base seed; trial ``i`` uses ``seed + i``.
    """
    total = len(records)
    if total < 2:
        return SelectivityEstimate(0.0, total, 0, ())
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    n = max(50, total // 10) if sample_size is None else sample_size
    n = min(n, total)
    if n < 2:
        raise ConfigError("sample_size must be >= 2")

    scale = (total / n) ** 2
    estimates = []
    for trial in range(trials):
        sampled = sample(records, n / total, seed=seed + trial)
        found = len(ppjoin_self_join(sampled, theta, func))
        estimates.append(found * scale)
    return SelectivityEstimate(
        estimated_pairs=sum(estimates) / len(estimates),
        sample_size=n,
        trials=trials,
        per_trial=tuple(estimates),
    )
