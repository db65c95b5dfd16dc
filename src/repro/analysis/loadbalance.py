"""Reduce-load skew metrics.

The paper argues token-keyed algorithms have "no load balancing guarantee"
while Even-TF vertical partitioning equalises fragment sizes.  These
helpers condense a join job's per-reduce-task input loads into the numbers
that argument is about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.mapreduce.metrics import JobMetrics


@dataclass(frozen=True)
class LoadBalanceReport:
    """Distribution summary of per-reduce-task input bytes."""

    n_tasks: int
    total_bytes: int
    mean_bytes: float
    max_bytes: int
    min_bytes: int
    cv: float
    """Coefficient of variation (std/mean); 0 means perfectly balanced."""
    max_over_mean: float
    """Straggler factor; the LPT makespan is at least this over ideal."""


def summarize_loads(loads: Sequence[float]) -> LoadBalanceReport:
    """Summarize any load vector (bytes, records or seconds)."""
    if not loads:
        return LoadBalanceReport(0, 0, 0.0, 0, 0, 0.0, 1.0)
    total = sum(loads)
    mean = total / len(loads)
    variance = sum((x - mean) ** 2 for x in loads) / len(loads)
    cv = math.sqrt(variance) / mean if mean else 0.0
    return LoadBalanceReport(
        n_tasks=len(loads),
        total_bytes=int(total),
        mean_bytes=mean,
        max_bytes=int(max(loads)),
        min_bytes=int(min(loads)),
        cv=cv,
        max_over_mean=max(loads) / mean if mean else 1.0,
    )


def load_balance_report(metrics: JobMetrics) -> LoadBalanceReport:
    """Skew report of one job's reduce-task input bytes."""
    return summarize_loads(metrics.reduce_input_loads())
