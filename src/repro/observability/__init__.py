"""End-to-end structured tracing and metrics export.

Public surface:

* :class:`~repro.observability.tracer.Tracer` / :class:`Span` — span-tree
  collection, with :data:`NOOP_TRACER` as the free disabled default;
* :mod:`~repro.observability.export` — JSONL and Chrome ``trace_event``
  serialization (``chrome://tracing`` / Perfetto);
* :class:`~repro.observability.histogram.LatencyHistogram` — p50/p95/p99
  probe-latency snapshots for the serving layer.

Instrumentation lives with the instrumented code: the MapReduce runtime
spans jobs/waves/task attempts, ``FSJoin`` spans its driver phases, and
the cluster router and ``SegmentIndex`` span the probe path.  See
``docs/architecture.md`` § Observability.
"""

from repro.observability.export import (
    chrome_path_for,
    read_jsonl,
    to_chrome_trace,
    validate_jsonl_record,
    write_chrome_trace,
    write_jsonl,
)
from repro.observability.histogram import LatencyHistogram
from repro.observability.tracer import NOOP_TRACER, NoopTracer, Span, Tracer

__all__ = [
    "NOOP_TRACER",
    "NoopTracer",
    "Span",
    "Tracer",
    "LatencyHistogram",
    "chrome_path_for",
    "read_jsonl",
    "to_chrome_trace",
    "validate_jsonl_record",
    "write_chrome_trace",
    "write_jsonl",
]
