"""The MapReduce execution engine.

:class:`SimulatedCluster` executes a :class:`~repro.mapreduce.job.MapReduceJob`
with full Hadoop semantics — input splits, per-task setup, map, cleanup,
optional combiner, hash (or custom) partitioning, sort/group, reduce —
deterministically.
Parallelism is both *accounted for* (every task's compute time is measured
with a monotonic clock and :mod:`repro.mapreduce.costmodel` converts those
observations into simulated cluster wall-clock for any worker count) and,
since the executor layer, optionally *exercised*: each phase's tasks are
self-contained picklable closures dispatched through a pluggable
:class:`~repro.mapreduce.executors.TaskExecutor` backend (serial, thread
pool, or process pool).  Task outputs are merged in task-index order, so
results and counters are bit-identical across backends.

The paper's cluster (Section VI-A) is 10 workers with 3 reduce slots each
and "the number of reduce tasks set to be three times the number of nodes";
:class:`ClusterSpec` defaults match that.
"""

from __future__ import annotations

import functools
import operator
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, ExecutionError
from repro.mapreduce.counters import Counters
from repro.mapreduce.executors import ExecutorKind, create_executor
from repro.mapreduce.job import JobContext, MapReduceJob
from repro.mapreduce.metrics import JobMetrics, TaskMetrics
from repro.mapreduce.shuffle import group_sort_key
from repro.mapreduce.sizer import estimate_pair_size
from repro.observability.tracer import NOOP_TRACER, Span, Tracer

Pair = Tuple[Any, Any]

#: Fault-injection hook: ``(phase, task_id, attempt) -> should_fail``.
FailureInjector = Callable[[str, int, int], bool]

#: Straggler hook: ``(phase, task_id, attempt) -> simulated extra seconds``.
#: The delay is charged to the attempt's ``compute_seconds`` (it models a
#: slow node, not slow work) and is what speculative execution races against.
StragglerInjector = Callable[[str, int, int], float]

#: Attempts a task gets before it aborts its job (Hadoop's default).
MAX_TASK_ATTEMPTS = 4
#: Simulated slowdown (seconds) past which an attempt gets a speculative
#: backup.
STRAGGLER_THRESHOLD = 0.1

#: Attempt-id offset for speculative backup attempts: the backup of attempt
#: ``k`` is presented to the injectors as attempt ``k + 1000``, so fault
#: schedules can target originals and backups independently while every
#: decision stays a pure function of ``(phase, task_id, attempt)``.
SPECULATIVE_ATTEMPT_OFFSET = 1000


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of the simulated cluster.

    Attributes:
        workers: Number of worker nodes (the paper uses 5/10/15).
        map_slots: Concurrent map tasks per worker.
        reduce_slots: Concurrent reduce tasks per worker (paper: 3).
        executor: Task-execution backend (``serial``/``thread``/``process``).
            ``serial`` keeps the historical single-process behaviour;
            ``process`` runs tasks on real cores.  Results are identical.
            The parallel backends take one worker per CPU core.
    """

    workers: int = 10
    map_slots: int = 3
    reduce_slots: int = 3
    executor: ExecutorKind = ExecutorKind.SERIAL

    def __post_init__(self) -> None:
        if self.workers < 1 or self.map_slots < 1 or self.reduce_slots < 1:
            raise ConfigError("cluster dimensions must all be >= 1")
        try:
            object.__setattr__(self, "executor", ExecutorKind(self.executor))
        except ValueError:
            valid = ", ".join(k.value for k in ExecutorKind)
            raise ConfigError(
                f"unknown executor {self.executor!r} (choose from: {valid})"
            ) from None

    @property
    def default_reduce_tasks(self) -> int:
        """Paper convention: reduce tasks = 3 × nodes."""
        return self.workers * self.reduce_slots

    @property
    def default_map_tasks(self) -> int:
        return self.workers * self.map_slots


@dataclass
class JobResult:
    """Everything one job execution produced."""

    output: List[Pair]
    metrics: JobMetrics
    counters: Counters


@dataclass
class _Partition:
    """One reduce partition's key groups and the volume they were sized at.

    A pair is sized once, when a map task emits it; that size is added
    here and nowhere else, so a job's shuffle volume and each reduce
    task's input volume are sums of these totals rather than further walks
    over the values.
    """

    groups: Dict[Any, List[Any]] = field(default_factory=dict)
    records: int = 0
    nbytes: int = 0


@dataclass
class _TaskOutcome:
    """What one completed task ships back to the driver.

    ``payload`` is the map task's ``{partition index: _Partition}`` buffer
    or the reduce task's output list; the driver publishes it — Hadoop's
    task commit — only after the whole attempt loop succeeded, so a retried
    attempt's partial output (and the volume it was sized at) never leaks.
    """

    metrics: TaskMetrics
    payload: Any
    counters: Counters
    retries: int
    spans: Tuple[Span, ...] = field(default=())
    speculative_backups: int = 0
    speculative_wins: int = 0


def _run_attempt(
    job: MapReduceJob,
    phase: str,
    task_id: int,
    payload: Any,
    n_reduce: int,
    has_combiner: bool,
    injector: Optional[FailureInjector],
    straggler: Optional[StragglerInjector],
    attempt: int,
    tracer: Tracer,
    traced: bool,
    history: List[Tuple[int, str, str]],
    speculative: bool = False,
):
    """Run one task *attempt* end to end; returns ``None`` if it failed.

    On success returns ``(metrics, payload, counters, delay, span)`` where
    ``delay`` is the injected straggler slowdown (charged to the attempt's
    compute time) and ``span`` is the attempt's — possibly no-op — span,
    kept so a later speculative-race decision can mark the loser.

    Failures come in two shapes, both appended to ``history`` as
    ``(attempt, phase, error_repr)``:

    * the failure injector declares the attempt dead *after* its work
      (Hadoop's "died before commit"), or
    * the task body raises.  :class:`~repro.errors.ExecutionError` is the
      runtime's own contract-violation signal (bad partition index,
      key-changing combiner) — deterministic, so it propagates unretried;
      anything else is treated as a node fault and retried.
    """
    delay = straggler(phase, task_id, attempt) if straggler is not None else 0.0
    attrs = {"speculative": True} if speculative else {}
    with tracer.span(
        f"{phase}:{task_id}", phase=phase, task_id=task_id, attempt=attempt,
        **attrs,
    ) as span:
        try:
            if phase == "map":
                metrics, out, counters = _run_map_task(
                    job, task_id, payload, n_reduce, has_combiner
                )
            else:
                metrics, out, counters = _run_reduce_task(job, task_id, payload)
        except ExecutionError:
            raise
        except Exception as exc:  # noqa: BLE001 - modelled as a node fault
            history.append((attempt, phase, repr(exc)))
            span.attrs["status"] = "retried"
            span.attrs["error"] = repr(exc)
            return None
        failed = injector is not None and injector(phase, task_id, attempt)
        if failed:
            history.append((attempt, phase, "injected task failure"))
        metrics.compute_seconds += delay
        if delay:
            span.attrs["straggler_delay"] = delay
        span.attrs["status"] = "retried" if failed else "ok"
        if not failed and traced:
            span.attrs.update(
                input_records=metrics.input_records,
                output_records=metrics.output_records,
                output_bytes=metrics.output_bytes,
                compute_seconds=metrics.compute_seconds,
                counters=counters.as_dict(),
            )
    if failed:
        return None
    return metrics, out, counters, delay, span


def _execute_task(
    item: Tuple[int, Any],
    job: MapReduceJob,
    phase: str,
    n_reduce: int,
    has_combiner: bool,
    injector: Optional[FailureInjector],
    traced: bool = False,
    straggler: Optional[StragglerInjector] = None,
) -> _TaskOutcome:
    """Run one task — including its Hadoop-style retry loop — to completion.

    Self-contained and picklable (via :func:`functools.partial` over
    module-level state), so executors may ship it to worker processes; the
    retry loop runs *inside* the worker, keeping failure injection exact
    under parallel dispatch.  The injector is consulted after the work
    (modelling a task that died before its commit); a failed attempt's
    buffered output and counters are simply discarded.

    **Speculative execution** (Hadoop's straggler defence): when an
    otherwise-successful attempt's injected slowdown exceeds
    :data:`STRAGGLER_THRESHOLD`, a backup attempt is launched.  The race is
    decided deterministically from the schedule — the backup starts at the
    threshold and both attempts do identical work, so the backup wins iff
    ``threshold + backup_delay < original_delay`` — which keeps results,
    counters and traces bit-identical across executor backends.  The
    loser's output and counters are discarded exactly like a failed
    attempt's; only its span survives, marked ``status="speculative-loser"``.

    With ``traced`` set, every *attempt* — retried and speculative ones
    included — is recorded as a span in a task-local tracer and shipped
    back on the outcome for the driver to adopt; a worker cannot reach the
    driver's tracer, and this keeps discarded attempts' costs visible.

    After :data:`MAX_TASK_ATTEMPTS` failures the task aborts the job with an
    :class:`ExecutionError` carrying the full per-attempt failure history.
    """
    task_id, payload = item
    tracer = Tracer() if traced else NOOP_TRACER
    retries = 0
    history: List[Tuple[int, str, str]] = []
    for attempt in range(1, MAX_TASK_ATTEMPTS + 1):
        outcome = _run_attempt(
            job, phase, task_id, payload, n_reduce, has_combiner,
            injector, straggler, attempt, tracer, traced, history,
        )
        if outcome is None:
            retries += 1
            continue
        metrics, out, counters, delay, span = outcome
        backups = wins = 0
        if straggler is not None and delay > STRAGGLER_THRESHOLD:
            backups = 1
            backup = _run_attempt(
                job, phase, task_id, payload, n_reduce, has_combiner,
                injector, straggler,
                attempt + SPECULATIVE_ATTEMPT_OFFSET,
                tracer, traced, history, speculative=True,
            )
            if backup is not None:
                b_metrics, b_out, b_counters, b_delay, b_span = backup
                if STRAGGLER_THRESHOLD + b_delay < delay:
                    # Backup finishes first: commit it, discard the
                    # straggling original (its span stays, marked loser).
                    wins = 1
                    span.attrs["status"] = "speculative-loser"
                    metrics, out, counters = b_metrics, b_out, b_counters
                    if traced:
                        tracer.add(
                            f"speculative-win:{phase}:{task_id}", "recovery",
                            start=time.perf_counter(), duration=0.0,
                            action="speculative-win", task_id=task_id,
                            saved_seconds=delay - b_delay - STRAGGLER_THRESHOLD,
                        )
                else:
                    b_span.attrs["status"] = "speculative-loser"
        return _TaskOutcome(
            metrics=metrics,
            payload=out,
            counters=counters,
            retries=retries,
            spans=tracer.spans(),
            speculative_backups=backups,
            speculative_wins=wins,
        )
    raise ExecutionError(
        f"{phase} task {task_id} failed {MAX_TASK_ATTEMPTS} attempts",
        attempts=tuple(history),
    )


class SimulatedCluster:
    """Runs MapReduce jobs through a pluggable executor while accounting
    for parallel cost.

    Hadoop's defining operational feature — re-executing failed tasks — is
    modelled via ``failure_injector``: a hook called before every task
    attempt that may declare the attempt failed.  A failed attempt's
    partial output is discarded (tasks buffer locally and publish only on
    success, exactly like Hadoop's commit protocol) and the task is
    retried up to :data:`MAX_TASK_ATTEMPTS` times before the job aborts.

    ``straggler_injector`` charges simulated extra seconds to task
    attempts; an attempt slowed past :data:`STRAGGLER_THRESHOLD` gets a
    speculative backup attempt and the faster one wins (deterministically
    — see :func:`_execute_task`).

    ``executor`` overrides the backend named by ``spec.executor``; it
    accepts a kind name (``"serial"``/``"thread"``/``"process"``).

    ``tracer`` (default: the free no-op tracer) records one span per job,
    per map/reduce wave, and per task *attempt* — retries included, with
    the failed attempts marked ``status="retried"`` — plus a shuffle
    span carrying the measured shuffle volume.  Task spans are collected
    inside the workers and adopted in task-index order, so traces are
    structurally identical across executor backends; results are
    bit-identical with tracing on or off.
    """

    def __init__(
        self,
        spec: Optional[ClusterSpec] = None,
        failure_injector: Optional[FailureInjector] = None,
        executor: "Optional[ExecutorKind | str]" = None,
        tracer: Optional[Tracer] = None,
        straggler_injector: Optional[StragglerInjector] = None,
    ) -> None:
        self.spec = spec or ClusterSpec()
        self.failure_injector = failure_injector
        self.straggler_injector = straggler_injector
        self.executor = create_executor(
            executor if executor is not None else self.spec.executor
        )
        self.tracer = tracer if tracer is not None else NOOP_TRACER

    # ------------------------------------------------------------------
    def run_job(
        self,
        job: MapReduceJob,
        input_pairs: Sequence[Pair],
        num_reduce_tasks: Optional[int] = None,
        num_map_tasks: Optional[int] = None,
    ) -> JobResult:
        """Execute ``job`` over ``input_pairs`` and return output + metrics."""
        if num_reduce_tasks is not None and num_reduce_tasks < 1:
            raise ConfigError("num_reduce_tasks must be >= 1")
        if num_map_tasks is not None and num_map_tasks < 1:
            raise ConfigError("num_map_tasks must be >= 1")
        n_reduce = num_reduce_tasks or self.spec.default_reduce_tasks
        n_map = num_map_tasks or self.spec.default_map_tasks
        n_map = max(1, min(n_map, len(input_pairs))) if input_pairs else 1

        metrics = JobMetrics(job_name=job.name)
        counters = Counters()
        has_combiner = type(job).combine is not MapReduceJob.combine
        tracer = self.tracer

        with tracer.span(
            f"job:{job.name}",
            phase="job",
            executor=self.executor.describe(),
            map_tasks=n_map,
            reduce_tasks=n_reduce,
        ):
            # ---- map phase --------------------------------------------
            partitions = [_Partition() for _ in range(n_reduce)]
            with tracer.span("map-wave", phase="map-wave", tasks=n_map):
                for outcome in self._run_phase(
                    "map", job, _split(input_pairs, n_map), n_reduce, has_combiner
                ):
                    # Hadoop's task commit: published in task-index order so
                    # the merged partitions (and adopted spans) are identical
                    # whichever backend ran the task.
                    for index, part in outcome.payload.items():
                        target = partitions[index]
                        for key, values in part.groups.items():
                            target.groups.setdefault(key, []).extend(values)
                        target.records += part.records
                        target.nbytes += part.nbytes
                    self._fold(counters, metrics.map_tasks, "map", outcome)
                    tracer.adopt(outcome.spans)

            # ---- shuffle accounting -----------------------------------
            with tracer.span("shuffle", phase="shuffle") as shuffle_span:
                shuffle_records = sum(part.records for part in partitions)
                shuffle_bytes = sum(part.nbytes for part in partitions)
                metrics.shuffle_records = shuffle_records
                metrics.shuffle_bytes = shuffle_bytes
                shuffle_span.attrs.update(
                    shuffle_records=shuffle_records, shuffle_bytes=shuffle_bytes
                )

            # ---- reduce phase -----------------------------------------
            output: List[Pair] = []
            with tracer.span("reduce-wave", phase="reduce-wave", tasks=n_reduce):
                for outcome in self._run_phase(
                    "reduce", job, partitions, n_reduce, has_combiner
                ):
                    output.extend(outcome.payload)
                    self._fold(counters, metrics.reduce_tasks, "reduce", outcome)
                    tracer.adopt(outcome.spans)

        return JobResult(output=output, metrics=metrics, counters=counters)

    # ------------------------------------------------------------------
    def _run_phase(
        self,
        phase: str,
        job: MapReduceJob,
        payloads: Sequence[Any],
        n_reduce: int,
        has_combiner: bool,
    ) -> List[_TaskOutcome]:
        """Dispatch one phase's tasks through the executor backend."""
        fn = functools.partial(
            _execute_task,
            job=job,
            phase=phase,
            n_reduce=n_reduce,
            has_combiner=has_combiner,
            injector=self.failure_injector,
            traced=self.tracer.enabled,
            straggler=self.straggler_injector,
        )
        return self.executor.run_tasks(fn, list(enumerate(payloads)))

    @staticmethod
    def _fold(
        counters: Counters,
        task_list: List[TaskMetrics],
        phase: str,
        outcome: _TaskOutcome,
    ) -> None:
        """Aggregate one committed task deterministically."""
        task_list.append(outcome.metrics)
        if outcome.retries:
            counters.increment(
                "mapreduce", f"{phase}_task_retries", outcome.retries
            )
        if outcome.speculative_backups:
            counters.increment(
                "mapreduce", f"{phase}_speculative_backups",
                outcome.speculative_backups,
            )
        if outcome.speculative_wins:
            counters.increment(
                "mapreduce", f"{phase}_speculative_wins",
                outcome.speculative_wins,
            )
        counters.merge(outcome.counters)


def _split(pairs: Sequence[Pair], n_splits: int) -> List[Sequence[Pair]]:
    """Contiguous, near-even input splits (Hadoop block splits)."""
    total = len(pairs)
    if total == 0:
        return [()]
    base, extra = divmod(total, n_splits)
    splits: List[Sequence[Pair]] = []
    start = 0
    for i in range(n_splits):
        length = base + (1 if i < extra else 0)
        splits.append(pairs[start : start + length])
        start += length
    return splits


#: The "input pair" before the first ``map``: a ``cleanup`` that emits
#: ``(None, None)`` from an empty split is sized, not taken for a re-emit.
_NO_INPUT = object()


def _run_map_task(
    job: MapReduceJob,
    task_id: int,
    split: Sequence[Pair],
    n_reduce: int,
    has_combiner: bool,
) -> Tuple[TaskMetrics, Dict[int, _Partition], Counters]:
    """Run one map task attempt; returns its metrics, buffered output and
    counters without publishing anything (the caller commits on success)."""
    task = TaskMetrics(task_id=task_id)
    counters = Counters()
    context = JobContext(task_id, "map", counters)
    buffer: Dict[int, _Partition] = {}

    def emit(key: Any, value: Any) -> None:
        index = job.partition(key, n_reduce)
        try:
            index = operator.index(index)
        except TypeError:
            raise ExecutionError(
                f"job {job.name!r} partitioned key {key!r} to {index!r}, "
                f"not an integer"
            ) from None
        if not 0 <= index < n_reduce:
            raise ExecutionError(
                f"job {job.name!r} partitioned key {key!r} to {index}, "
                f"outside [0, {n_reduce})"
            )
        part = buffer.get(index)
        if part is None:
            part = buffer[index] = _Partition()
            if has_combiner:
                key_bytes[index] = {}
        group = part.groups.get(key)
        if group is None:
            part.groups[key] = [value]
        else:
            group.append(value)
        # A map that re-emits its input pair (an identity map) ships it at
        # the size it was read at.
        if value is in_value and key is in_key:
            size = in_size
        else:
            size = estimate_pair_size(key, value)
        part.records += 1
        part.nbytes += size
        if has_combiner:
            sized = key_bytes[index]
            sized[key] = sized.get(key, 0) + size

    # partition index -> key -> bytes emitted under it, for the combiner.
    key_bytes: Dict[int, Dict[Any, int]] = {}
    in_key = in_value = _NO_INPUT
    in_size = 0
    started = time.perf_counter()
    job.setup(context)
    input_bytes = 0
    for in_key, in_value in split:
        in_size = estimate_pair_size(in_key, in_value)
        input_bytes += in_size
        job.map(in_key, in_value, emit, context)
    job.cleanup(emit, context)
    task.input_records = len(split)
    task.input_bytes = input_bytes
    if has_combiner:
        _apply_combiner(job, context, buffer, key_bytes)
    task.output_records = sum(part.records for part in buffer.values())
    task.output_bytes = sum(part.nbytes for part in buffer.values())
    task.compute_seconds = time.perf_counter() - started
    return task, buffer, counters


def _apply_combiner(
    job: MapReduceJob,
    context: JobContext,
    buffer: Dict[int, _Partition],
    key_bytes: Dict[int, Dict[Any, int]],
) -> None:
    """Run the combiner over each buffered key group, moving the
    partition's totals from the pairs it replaces to the pairs it returns.
    ``key_bytes`` holds what each group was sized at when emitted, so the
    replaced pairs are not sized again."""
    for index, part in buffer.items():
        groups = part.groups
        sized = key_bytes[index]
        for key in list(groups):
            values = groups[key]
            combined = job.combine(key, values, context)
            if combined is None:
                continue
            part.records -= len(values)
            part.nbytes -= sized[key]
            kept = groups[key] = []
            for new_key, new_value in combined:
                if new_key != key:
                    raise ExecutionError(
                        f"combiner of job {job.name!r} changed key "
                        f"{key!r} -> {new_key!r}; combiners must preserve keys"
                    )
                kept.append(new_value)
                part.records += 1
                part.nbytes += estimate_pair_size(new_key, new_value)
            if not kept:
                del groups[key]


def _run_reduce_task(
    job: MapReduceJob,
    task_id: int,
    partition: _Partition,
) -> Tuple[TaskMetrics, List[Pair], Counters]:
    """Run one reduce task attempt; output is buffered, not published."""
    task = TaskMetrics(
        task_id=task_id,
        input_records=partition.records,
        input_bytes=partition.nbytes,
    )
    counters = Counters()
    context = JobContext(task_id, "reduce", counters)
    output: List[Pair] = []
    output_bytes = 0

    def emit(key: Any, value: Any) -> None:
        nonlocal output_bytes
        output.append((key, value))
        output_bytes += estimate_pair_size(key, value)

    groups = partition.groups
    started = time.perf_counter()
    job.setup(context)
    for key in sorted(groups, key=group_sort_key):
        job.reduce(key, groups[key], emit, context)
    task.output_records = len(output)
    task.output_bytes = output_bytes
    task.compute_seconds = time.perf_counter() - started
    return task, output, counters
