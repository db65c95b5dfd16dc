"""Duplication accounting (Table I's "duplicate-free" claim, measured).

For the join kernel job of each algorithm, compare the map output volume
against the job input volume.  Token-keyed algorithms replicate each record
once per signature token (record factor ≫ 1); FS-Join's vertical segments
partition each record, so its byte factor stays ≈ 1 (horizontal boundary
partitions add a small, bounded replication the paper accepts).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapreduce.metrics import JobMetrics


@dataclass(frozen=True)
class DuplicationReport:
    """Duplication factors of one job."""

    record_factor: float
    """Map output records per input record (signatures per record)."""
    byte_factor: float
    """Map output bytes per input byte (replicated payload volume)."""
    shuffle_bytes: int


def duplication_report(metrics: JobMetrics) -> DuplicationReport:
    """Duplication factors of the given (join kernel) job."""
    return DuplicationReport(
        record_factor=metrics.duplication_record_factor(),
        byte_factor=metrics.duplication_byte_factor(),
        shuffle_bytes=metrics.shuffle_bytes,
    )
