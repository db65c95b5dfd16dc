"""Streaming ingest: DFS write-ahead log, memtable, LSM-style generations.

The serving stack (PRs 2–6) is read-optimized; this package makes writes
first-class.  Records enter through a digest-checked write-ahead log on
the DFS (:mod:`repro.ingest.wal`), are absorbed by a memtable — a small
mutable :class:`~repro.service.index.SegmentIndex` — and are periodically
flushed to immutable columnar segment generations that a leveled
compaction policy merges (:mod:`repro.ingest.generations`,
:mod:`repro.ingest.compaction`).
:class:`~repro.ingest.streaming.StreamingIndex` is the façade that ties
the tiers together and duck-types :class:`~repro.service.index.SegmentIndex`
so the cluster layer serves probes — bit-identical to a
single index built from the union — while writes keep flowing.
"""

from repro.ingest.compaction import merge_tiers, plan_compaction
from repro.ingest.generations import (
    COMMITTED_NAME,
    CURRENT_NAME,
    Generation,
    GenerationStore,
    ManifestStore,
    OrderLog,
)
from repro.ingest.streaming import IngestConfig, StreamingIndex
from repro.ingest.wal import ReplayBatch, ReplayResult, WriteAheadLog

__all__ = [
    "merge_tiers",
    "plan_compaction",
    "COMMITTED_NAME",
    "CURRENT_NAME",
    "Generation",
    "GenerationStore",
    "ManifestStore",
    "OrderLog",
    "IngestConfig",
    "StreamingIndex",
    "ReplayBatch",
    "ReplayResult",
    "WriteAheadLog",
]
