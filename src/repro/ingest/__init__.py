"""Streaming ingest: DFS write-ahead log, memtable, LSM-style generations.

The serving stack (PRs 2–6) is read-optimized; this package makes writes
first-class.  Records enter through a digest-checked write-ahead log on
the DFS (:mod:`repro.ingest.wal`), are absorbed by a small mutable
memtable index (:mod:`repro.ingest.memtable`), and are periodically
flushed to immutable columnar segment generations that a leveled
compaction policy merges in the background
(:mod:`repro.ingest.generations`, :mod:`repro.ingest.compaction`).
:class:`~repro.ingest.streaming.StreamingIndex` is the façade that ties
the tiers together and duck-types :class:`~repro.service.index.SegmentIndex`
so the service and cluster layers serve probes — bit-identical to a
single index built from the union — while writes keep flowing.
"""

from repro.ingest.compaction import CompactionPlan, LeveledPolicy, merge_generations
from repro.ingest.generations import (
    COMMITTED_NAME,
    CURRENT_NAME,
    Generation,
    GenerationStore,
    ManifestStore,
    OrderLog,
)
from repro.ingest.memtable import Memtable
from repro.ingest.streaming import IngestConfig, StreamingIndex
from repro.ingest.wal import ReplayBatch, ReplayResult, WriteAheadLog

__all__ = [
    "CompactionPlan",
    "LeveledPolicy",
    "merge_generations",
    "COMMITTED_NAME",
    "CURRENT_NAME",
    "Generation",
    "GenerationStore",
    "ManifestStore",
    "OrderLog",
    "Memtable",
    "IngestConfig",
    "StreamingIndex",
    "ReplayBatch",
    "ReplayResult",
    "WriteAheadLog",
]
