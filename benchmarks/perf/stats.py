"""The harness's arithmetic: percentiles, best-of-rounds, span self time."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Union

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def tail_quantile(n_samples: int) -> float:
    """The highest of p99/p95/p50 that leaves ``MIN_BEYOND`` samples beyond it."""
    for q in (0.99, 0.95):
        if n_samples - math.ceil(q * n_samples) >= MIN_BEYOND:
            return q
    return 0.5


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of unsorted ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values: Sequence[float]) -> List[Optional[float]]:
    """``[q1, q3]`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return [None, None]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


class Measured(NamedTuple):
    """One metric's value, the samples behind it, and for a tail the
    quantile those samples could support."""

    value: float
    samples: int = 1
    quantile: Optional[float] = None


#: One round's raw costs in seconds: a list is one entry per request.
Costs = Dict[str, Union[float, List[float]]]


def best_of(rounds: List[Costs]) -> Costs:
    """Each request's (and each whole-round cost's) fastest round.

    Rounds replay identical requests, and interference on a shared box
    only ever adds time, so the minimum over rounds is each request's
    uncontended cost.  Percentiles over these repeat from run to run far
    better than any statistic of per-round percentiles: a burst has to hit
    the same request in every round to survive.
    """
    best: Costs = {}
    for name, first in rounds[0].items():
        if isinstance(first, list):
            best[name] = [min(column) for column in zip(*(r[name] for r in rounds))]
        else:
            best[name] = min(r[name] for r in rounds)
    return best


def p50_ms(latencies: List[float]) -> Measured:
    return Measured(percentile(latencies, 0.5) * 1e3, len(latencies))


def tail_ms(latencies: List[float]) -> Measured:
    """The highest of p99/p95/p50 that leaves ten samples beyond it."""
    q = tail_quantile(len(latencies))
    return Measured(percentile(latencies, q) * 1e3, len(latencies), q)


def summarize(best: Measured, per_round: List[float]) -> Dict[str, object]:
    """A document entry: the best-of-rounds value, and how the same
    metric read in each single round (every round's value, their median
    and quartiles)."""
    q1, q3 = quartiles(per_round)
    entry: Dict[str, object] = {
        "value": best.value, "samples": best.samples, "rounds": len(per_round),
        "per_round": list(per_round),
        "median": statistics.median(per_round) if per_round else None,
        "q1": q1, "q3": q3,
    }
    if best.quantile is not None:
        entry["quantile"] = best.quantile
    return entry


def self_times(spans: Iterable) -> Dict[int, float]:
    """Self time per span id: duration minus its direct children's.

    Children are summed, not merged as intervals: the probe's stage spans
    are accumulated clocks whose ``start`` is only the first entry, so
    their intervals overlap although their time does not.  The harness
    runs every layer serially, so no real children overlap.
    """
    spans = list(spans)
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            covered[span.parent_id] = covered.get(span.parent_id, 0.0) + span.duration
    return {
        span.span_id: max(0.0, span.duration - covered.get(span.span_id, 0.0))
        for span in spans
    }
