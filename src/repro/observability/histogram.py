"""A log-bucketed latency histogram with percentile snapshots.

The router and the gateway record one observation per request; percentile queries walk the
cumulative bucket counts.  Buckets double from 1 µs, so the p50/p95/p99
estimates carry at most a 2× quantization error while ``record`` stays O(1)
with a fixed ~70-slot footprint — always-on accounting, like a counter.
Exact ``min``/``max``/``sum`` are tracked alongside.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Union

#: 2^69 µs ≈ 18 years — any slower observation lands in the last bucket.
_N_BUCKETS = 70


class LatencyHistogram:
    """Thread-safe latency accumulator (seconds in, seconds out)."""

    def __init__(self) -> None:
        self._buckets: List[int] = [0] * _N_BUCKETS
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def record(self, seconds: float) -> None:
        """Record one observation (clamped below at 0)."""
        seconds = max(0.0, seconds)
        micros = int(seconds * 1e6)
        index = min(micros.bit_length(), _N_BUCKETS - 1)
        with self._lock:
            self._buckets[index] += 1
            self.count += 1
            self.total += seconds
            self.min = min(self.min, seconds)
            self.max = max(self.max, seconds)

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile (0 < q ≤ 1)."""
        with self._lock:
            if not self.count:
                return 0.0
            rank = q * self.count
            seen = 0
            for index, bucket in enumerate(self._buckets):
                seen += bucket
                if seen >= rank:
                    # Bucket i holds observations in [2^(i-1), 2^i) µs.
                    return min((1 << index) / 1e6, self.max)
            return self.max  # pragma: no cover - rank <= count always hits

    def snapshot(self) -> Dict[str, Union[int, float]]:
        """Count and percentiles in milliseconds, rounded for printing."""
        p50, p95, p99 = (self.percentile(q) for q in (0.50, 0.95, 0.99))
        with self._lock:
            count, total = self.count, self.total
            minimum = self.min if count else 0.0
            maximum = self.max
        return {
            "count": count,
            "mean_ms": round(total / count * 1e3, 3) if count else 0.0,
            "min_ms": round(minimum * 1e3, 3),
            "p50_ms": round(p50 * 1e3, 3),
            "p95_ms": round(p95 * 1e3, 3),
            "p99_ms": round(p99 * 1e3, 3),
            "max_ms": round(maximum * 1e3, 3),
        }

    def __len__(self) -> int:
        return self.count
