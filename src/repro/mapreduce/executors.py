"""Pluggable task-execution backends for :class:`~repro.mapreduce.runtime.SimulatedCluster`.

The runtime hands every map/reduce phase to a :class:`TaskExecutor` as a
picklable task function applied to a list of ``(task_id, payload)`` items.
Three backends are provided:

* :class:`SerialExecutor` — run tasks one by one in the calling thread.
  The default: fully deterministic, zero dispatch overhead, and the only
  backend that tolerates unpicklable jobs or closure-based failure
  injectors.
* :class:`ThreadExecutor` — a :class:`~concurrent.futures.ThreadPoolExecutor`.
  Useful when task work releases the GIL (NumPy kernels, I/O); for the
  pure-Python join kernels it mostly measures dispatch overhead.
* :class:`ProcessExecutor` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  with chunked task batches (the task function — including the job object —
  is pickled once per *chunk*, not once per task, which amortizes
  serialization of large broadcast state such as the global ordering).
  This is the backend that exercises real cores: FS-Join's fragments are
  independent by construction, so reduce tasks parallelize perfectly.

Both parallel backends take :data:`WORKERS`, one worker per CPU core.

All three backends return task results **in task-index order**, so the
runtime's output merge and counter aggregation are bit-identical across
backends (see ``tests/test_mapreduce_executors.py``).  Errors raised inside
a task propagate at that task's index: the lowest-index failing task aborts
the phase, matching serial semantics.

The same ordering contract carries the tracing story: a task function may
return spans it recorded locally (workers cannot reach the driver's
tracer), and because ``run_tasks`` yields results in task-index order the
driver adopts those spans deterministically — traces differ across
backends only in timing, never in structure.

Requirements for the parallel backends: jobs, input payloads, task outputs
and the failure injector must be picklable for ``process`` (they travel to
worker processes) and thread-safe for ``thread`` (the job object is shared).
All jobs shipped in this package satisfy both.
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, List, Sequence, TypeVar

from repro.errors import ConfigError

T = TypeVar("T")

#: A task function: applied to one ``(task_id, payload)`` item.
TaskFn = Callable[[Any], T]

#: Workers of a parallel backend: one per CPU core.
WORKERS = os.cpu_count() or 1


class ExecutorKind(str, enum.Enum):
    """The available task-execution backends."""

    SERIAL = "serial"
    THREAD = "thread"
    PROCESS = "process"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class TaskExecutor:
    """Interface: run one phase's tasks and return results in task order."""

    kind: ExecutorKind

    def run_tasks(self, fn: TaskFn, items: Sequence[Any]) -> List[T]:
        """Apply ``fn`` to every item; results ordered like ``items``."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short backend label for logs and trace span attributes."""
        if self.kind is ExecutorKind.SERIAL:
            return str(self.kind)
        return f"{self.kind}[{WORKERS}]"


class SerialExecutor(TaskExecutor):
    """Today's behaviour: tasks run sequentially in the calling thread."""

    kind = ExecutorKind.SERIAL

    def run_tasks(self, fn: TaskFn, items: Sequence[Any]) -> List[T]:
        return [fn(item) for item in items]


class ThreadExecutor(TaskExecutor):
    """Dispatch tasks to a thread pool (shared-memory parallelism)."""

    kind = ExecutorKind.THREAD

    def run_tasks(self, fn: TaskFn, items: Sequence[Any]) -> List[T]:
        if len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=min(WORKERS, len(items))) as pool:
            return list(pool.map(fn, items))


class ProcessExecutor(TaskExecutor):
    """Dispatch chunked task batches to a process pool (real cores)."""

    kind = ExecutorKind.PROCESS

    #: Target chunks per worker; >1 so a straggling chunk can be overlapped.
    CHUNKS_PER_WORKER = 4

    def _chunksize(self, n_items: int) -> int:
        return max(1, math.ceil(n_items / (WORKERS * self.CHUNKS_PER_WORKER)))

    def run_tasks(self, fn: TaskFn, items: Sequence[Any]) -> List[T]:
        if len(items) <= 1:
            return [fn(item) for item in items]
        with ProcessPoolExecutor(max_workers=min(WORKERS, len(items))) as pool:
            return list(pool.map(fn, items, chunksize=self._chunksize(len(items))))


def create_executor(kind: "ExecutorKind | str") -> TaskExecutor:
    """Build a backend from its kind name (``serial``/``thread``/``process``)."""
    try:
        kind = ExecutorKind(kind)
    except ValueError:
        valid = ", ".join(k.value for k in ExecutorKind)
        raise ConfigError(f"unknown executor {kind!r} (choose from: {valid})") from None
    if kind is ExecutorKind.SERIAL:
        return SerialExecutor()
    if kind is ExecutorKind.THREAD:
        return ThreadExecutor()
    return ProcessExecutor()
