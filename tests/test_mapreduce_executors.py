"""Tests for the pluggable task-execution backends.

The contract under test: whichever backend runs the tasks — serial,
thread pool, or process pool — a job's :class:`JobResult` is bit-identical
(same output in the same order, same counter totals, same per-task
volumes), and Hadoop-style retries keep working when the attempt loop runs
inside a pool worker.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import ExecutorKind, FSJoin, FSJoinConfig
from repro.data import RecordCollection, make_corpus
from repro.errors import ConfigError, ExecutionError
from repro.mapreduce.executors import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    create_executor,
)
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import (
    MAX_TASK_ATTEMPTS,
    ClusterSpec,
    SimulatedCluster,
)

BACKENDS = ("serial", "thread", "process")


class WordCount(MapReduceJob):
    """Picklable toy job (module level so process workers can import it)."""

    name = "wordcount"

    def map(self, key, value, emit, context):
        for token in value.split():
            emit(token, 1)

    def combine(self, key, values, context):
        return [(key, sum(values))]

    def reduce(self, key, values, emit, context):
        context.increment("user", "groups")
        emit(key, sum(values))


class FailFirstMapAttempt:
    """Picklable deterministic injector: every map task fails attempt 1."""

    def __call__(self, phase: str, task_id: int, attempt: int) -> bool:
        return phase == "map" and attempt == 1


class AlwaysFailReduceTaskZero:
    """Picklable injector that permanently kills reduce task 0."""

    def __call__(self, phase: str, task_id: int, attempt: int) -> bool:
        return phase == "reduce" and task_id == 0


LINES = [(i, f"w{i % 7} w{i % 3} x{i % 11} common") for i in range(60)]


def _cluster(kind: str, **kwargs) -> SimulatedCluster:
    return SimulatedCluster(
        ClusterSpec(workers=3, executor=kind), **kwargs
    )


def _snapshot(result):
    """Everything that must match across backends, as comparable values."""
    return (
        result.output,
        result.counters.as_dict(),
        [
            (t.task_id, t.input_records, t.input_bytes, t.output_records, t.output_bytes)
            for t in result.metrics.map_tasks
        ],
        [
            (t.task_id, t.input_records, t.input_bytes, t.output_records, t.output_bytes)
            for t in result.metrics.reduce_tasks
        ],
        (result.metrics.shuffle_records, result.metrics.shuffle_bytes),
    )


class TestExecutorConstruction:
    def test_create_by_name(self):
        assert isinstance(create_executor("serial"), SerialExecutor)
        assert isinstance(create_executor("thread"), ThreadExecutor)
        assert isinstance(create_executor("process"), ProcessExecutor)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            create_executor("gpu")
        with pytest.raises(ConfigError):
            ClusterSpec(executor="gpu")

    def test_spec_normalizes_kind(self):
        assert ClusterSpec(executor="process").executor is ExecutorKind.PROCESS

    def test_cluster_executor_override(self):
        cluster = SimulatedCluster(ClusterSpec(), executor="thread")
        assert isinstance(cluster.executor, ThreadExecutor)


class TestCrossBackendDeterminism:
    def test_wordcount_identical(self):
        snapshots = {
            kind: _snapshot(_cluster(kind).run_job(WordCount(), LINES))
            for kind in BACKENDS
        }
        assert snapshots["serial"] == snapshots["thread"] == snapshots["process"]

    def test_fsjoin_pipeline_identical(self):
        """The fig7-style workload: full FS-Join, all three backends."""
        records = make_corpus("wiki", 100, seed=7)
        outcomes = {}
        for kind in BACKENDS:
            result = FSJoin(
                FSJoinConfig(theta=0.8, n_vertical=8, n_horizontal=3),
                _cluster(kind),
            ).run(records)
            outcomes[kind] = (
                result.result_pairs,
                [job.output for job in result.job_results],
                [job.counters.as_dict() for job in result.job_results],
            )
        assert outcomes["serial"] == outcomes["thread"]
        assert outcomes["serial"] == outcomes["process"]

    def test_fsjoin_config_executor_knob(self):
        """FSJoinConfig.executor selects the backend of the implicit cluster."""
        records = make_corpus("email", 60, seed=1)
        serial = FSJoin(FSJoinConfig(theta=0.7, n_vertical=6)).run(records)
        threaded_join = FSJoin(
            FSJoinConfig(theta=0.7, n_vertical=6, executor="thread")
        )
        assert isinstance(threaded_join.cluster.executor, ThreadExecutor)
        assert threaded_join.run(records).result_pairs == serial.result_pairs

    def test_every_driver_honours_the_executor_knob(self):
        """The R-S join runs on the one driver, so it inherits
        FSJoinConfig.executor's backend for its implicit cluster too."""
        records = list(make_corpus("email", 60, seed=1))
        left = RecordCollection(records[:30])
        right = RecordCollection(records[30:])
        serial_config = FSJoinConfig(theta=0.7, n_vertical=6)
        thread_config = replace(serial_config, executor="thread")

        serial_rs = FSJoin(serial_config)
        threaded_rs = FSJoin(thread_config)
        assert isinstance(serial_rs.cluster.executor, SerialExecutor)
        assert isinstance(threaded_rs.cluster.executor, ThreadExecutor)
        assert (
            threaded_rs.run(left, right=right).result_pairs
            == serial_rs.run(left, right=right).result_pairs
        )


class TestFailureInjectionUnderPools:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_retries_inside_workers(self, kind):
        """The attempt loop runs inside the worker: first attempts fail,
        retries succeed, output is identical to the clean run and the
        retry counter reflects one retry per map task."""
        clean = _cluster(kind).run_job(WordCount(), LINES, num_map_tasks=6)
        faulty = _cluster(kind, failure_injector=FailFirstMapAttempt()).run_job(
            WordCount(), LINES, num_map_tasks=6
        )
        assert faulty.output == clean.output
        assert faulty.counters.get("mapreduce", "map_task_retries") == 6
        assert faulty.counters.get("mapreduce", "reduce_task_retries") == 0
        # User counters from discarded attempts must not leak.
        assert faulty.counters.get("user", "groups") == clean.counters.get(
            "user", "groups"
        )

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_exhausted_attempts_abort(self, kind):
        cluster = _cluster(
            kind,
            failure_injector=AlwaysFailReduceTaskZero(),
        )
        with pytest.raises(
            ExecutionError,
            match=f"reduce task 0 failed {MAX_TASK_ATTEMPTS} attempts",
        ):
            cluster.run_job(WordCount(), LINES)
