"""Span-based tracing for pipelines, jobs, tasks and probes.

A :class:`Span` is one named, timed interval of work — a whole pipeline, a
MapReduce job, one map-wave, a single task *attempt* (retries included), or
one service probe stage.  Spans form a tree through ``parent_id``, carry a
``phase`` category (``pipeline``/``job``/``map``/``reduce``/``shuffle``/
``service``/…) and a free-form ``attrs`` dict for counter deltas and volumes.

A :class:`Tracer` collects spans for one run.  The crucial properties:

* **Zero-cost-ish when disabled.**  The default everywhere is the module
  singleton :data:`NOOP_TRACER`, whose ``span()`` hands back one shared
  reusable context manager and whose ``add``/``adopt`` are no-ops — a
  disabled trace costs one attribute check per instrumentation site and
  never changes results (the bit-identical invariant is CI-enforced).

* **Mergeable across workers.**  A process-pool task cannot write into the
  driver's tracer, so tasks build their own local :class:`Tracer`, ship the
  spans back (plain picklable dataclasses) and the driver re-homes them
  with :meth:`Tracer.adopt` *in task-index order* — the same order in which
  outputs and counters are merged, so traces are deterministic up to
  timing.  ``time.perf_counter()`` timestamps share a clock across
  processes on the supported platforms (CLOCK_MONOTONIC / QPC /
  mach_absolute_time are system-wide), so merged spans stay comparable.

Spans are recorded in *start order* (a parent is appended when it opens,
before any of its children), which is what lets ``adopt`` remap parent ids
in one forward pass.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed interval of work.

    Attributes:
        name: Human-readable label (``"job:fsjoin-filter"``, ``"map:3"``).
        phase: Category for grouping/reporting (``"map"``, ``"service"``, …).
        start: ``time.perf_counter()`` at open, seconds.
        duration: Wall seconds from open to close (0 while still open).
        span_id: Tracer-unique id (> 0).
        parent_id: Enclosing span's id, or ``None`` for a root span.
        attrs: Free-form annotations: counter deltas, volumes, statuses.
    """

    name: str
    phase: str
    start: float
    duration: float = 0.0
    span_id: int = 0
    parent_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form, the JSONL record schema."""
        return {
            "name": self.name,
            "phase": self.phase,
            "start": self.start,
            "duration": self.duration,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Span":
        return cls(
            name=record["name"],
            phase=record["phase"],
            start=record["start"],
            duration=record["duration"],
            span_id=record["span_id"],
            parent_id=record["parent_id"],
            attrs=dict(record.get("attrs", {})),
        )


class Tracer:
    """Collects a tree of spans; thread-compatible via one internal stack.

    The open-span stack is driver-side state: parallel task attempts do not
    share a tracer (each worker task builds its own and the driver adopts
    the results), so no locking is needed on the hot path.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 1

    # -- recording -----------------------------------------------------
    @contextmanager
    def span(self, name: str, phase: str = "", **attrs: Any) -> Iterator[Span]:
        """Open a child span of the innermost open span; closes on exit.

        The yielded span is live — handlers may add ``attrs`` entries while
        it is open (e.g. counter deltas computed at the end of the block).
        """
        record = Span(
            name=name,
            phase=phase,
            start=time.perf_counter(),
            span_id=self._next_id,
            parent_id=self._stack[-1] if self._stack else None,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._spans.append(record)  # append on open: parents precede children
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            record.duration = time.perf_counter() - record.start
            self._stack.pop()

    def add(
        self,
        name: str,
        phase: str,
        start: float,
        duration: float,
        **attrs: Any,
    ) -> Span:
        """Record an already-measured interval under the current open span.

        Used for accumulated stage timings (e.g. the per-candidate
        verification time of one probe, summed across candidates).
        """
        record = Span(
            name=name,
            phase=phase,
            start=start,
            duration=duration,
            span_id=self._next_id,
            parent_id=self._stack[-1] if self._stack else None,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._spans.append(record)
        return record

    def adopt(
        self, spans: Sequence[Span], parent_id: Optional[int] = None
    ) -> None:
        """Re-home worker-collected spans under this tracer.

        Span ids are reassigned from this tracer's sequence; parent links
        *within* the adopted batch are preserved, and batch roots are
        attached to ``parent_id`` (default: the innermost open span).
        Callers must adopt batches in task-index order to keep traces
        deterministic.
        """
        if parent_id is None:
            parent_id = self._stack[-1] if self._stack else None
        mapping: Dict[int, int] = {}
        for span in spans:
            new_id = self._next_id
            self._next_id += 1
            mapping[span.span_id] = new_id
            self._spans.append(
                replace(
                    span,
                    span_id=new_id,
                    parent_id=mapping.get(span.parent_id, parent_id),
                    attrs=dict(span.attrs),
                )
            )

    # -- reading -------------------------------------------------------
    def spans(self) -> Tuple[Span, ...]:
        """All recorded spans, in start order."""
        return tuple(self._spans)

    def mark(self) -> int:
        """Position token for :meth:`spans_since` (spans recorded so far)."""
        return len(self._spans)

    def spans_since(self, mark: int) -> Tuple[Span, ...]:
        """Spans recorded after ``mark`` (one run's slice of the tracer)."""
        return tuple(self._spans[mark:])

    def __len__(self) -> int:
        return len(self._spans)


class _AttrSink(dict):
    """A dict that silently drops writes (the no-op span's ``attrs``)."""

    def __setitem__(self, key: Any, value: Any) -> None:  # pragma: no cover
        pass

    def update(self, *args: Any, **kwargs: Any) -> None:
        pass


class _NoopContext:
    """Reusable, reentrant context manager yielding the shared no-op span."""

    __slots__ = ("_span",)

    def __init__(self, span: Span) -> None:
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc: Any) -> None:
        return None


class NoopTracer(Tracer):
    """The disabled tracer: every operation is (nearly) free.

    ``span()`` returns one shared context manager whose span swallows
    attribute writes; ``add``/``adopt`` discard their input.  Instrumented
    code therefore never needs an ``if tracer is not None`` guard — it asks
    ``tracer.enabled`` only where skipping *measurement work* (extra
    ``perf_counter`` calls, counter snapshots) matters.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._noop = _NoopContext(
            Span(name="noop", phase="", start=0.0, attrs=_AttrSink())
        )

    def span(self, name: str, phase: str = "", **attrs: Any):  # type: ignore[override]
        return self._noop

    def add(self, name, phase, start, duration, **attrs):  # type: ignore[override]
        return self._noop._span

    def adopt(self, spans, parent_id=None) -> None:
        return None


#: Shared disabled tracer — the default for every instrumented component.
NOOP_TRACER = NoopTracer()
