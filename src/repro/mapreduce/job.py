"""The MapReduce job contract.

A job subclasses :class:`MapReduceJob` and overrides ``map`` and ``reduce``
(plus optionally ``setup``, ``cleanup``, ``combine`` and ``partition``),
mirroring the Hadoop programming model the paper's Algorithm 1 is written
against:

``Map:    <k1, v1>        → list(<k2, v2>)``
``Reduce: <k2, list(v2)>  → list(<k3, v3>)``

``map`` and ``reduce`` receive an ``emit(key, value)`` callback rather than
returning lists, which keeps large fan-out jobs allocation-friendly.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.mapreduce.counters import Counters
from repro.mapreduce.shuffle import default_partition

Emit = Callable[[Any, Any], None]
Pair = Tuple[Any, Any]


class JobContext:
    """Per-task context: counters plus the task's identity.

    ``setup`` implementations use the context to stash broadcast data (the
    paper's Algorithm 1 loads the global ordering in ``SetUp``).
    """

    def __init__(self, task_id: int, phase: str, counters: Counters) -> None:
        self.task_id = task_id
        self.phase = phase
        self.counters = counters

    def increment(self, group: str, name: str, amount: int = 1) -> None:
        """Convenience passthrough to the task's counters."""
        self.counters.increment(group, name, amount)


class MapReduceJob:
    """Base class for jobs run by :class:`~repro.mapreduce.runtime.SimulatedCluster`."""

    #: Human-readable job name (shows up in metrics and reports).
    name: str = "job"

    def setup(self, context: JobContext) -> None:
        """Called once per task before any map/reduce call."""

    def map(self, key: Any, value: Any, emit: Emit, context: JobContext) -> None:
        """Process one input pair; default is the identity map."""
        emit(key, value)

    def cleanup(self, emit: Emit, context: JobContext) -> None:
        """Called once per map-task attempt, after its last ``map`` call.

        Hadoop's ``Mapper.cleanup``: a map that aggregates on the
        ``context`` (in-mapper combining) emits its totals here.  The pairs
        are partitioned, sized and combined exactly like ``map``'s, and a
        discarded attempt's go with the rest of its output.
        """

    def combine(
        self, key: Any, values: List[Any], context: JobContext
    ) -> Optional[Iterable[Pair]]:
        """Optional map-side combiner.

        Return an iterable of pairs to replace the buffered pairs for
        ``key``, or ``None`` (default) for no combining.
        """
        return None

    def reduce(
        self, key: Any, values: List[Any], emit: Emit, context: JobContext
    ) -> None:
        """Process one key group; default re-emits every value."""
        for value in values:
            emit(key, value)

    def partition(self, key: Any, n_partitions: int) -> int:
        """Route ``key`` to a reduce partition; default is hash partitioning."""
        return default_partition(key, n_partitions)
