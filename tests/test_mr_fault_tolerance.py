"""Fault-tolerance tests: retries, speculative execution, failure history.

Hadoop re-executes failed tasks; a retried task's earlier partial output
must never leak into the job output.  The runtime models this with a
failure injector and per-attempt output buffering.  Slow tasks get the
same treatment via speculative execution: a straggling attempt races a
backup, only the winner's output and counters fold into the job, and the
race is decided deterministically — so results stay bit-identical on
every executor backend.  When a task does die for good, the
:class:`~repro.errors.ExecutionError` carries the full per-attempt
failure history.
"""

from __future__ import annotations

import pytest

from repro.baselines.naive import naive_self_join
from repro.core import FSJoin, FSJoinConfig
from repro.errors import ExecutionError
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import (
    MAX_TASK_ATTEMPTS,
    SPECULATIVE_ATTEMPT_OFFSET,
    STRAGGLER_THRESHOLD,
    ClusterSpec,
    SimulatedCluster,
)
from tests.conftest import random_collection


class WordCount(MapReduceJob):
    name = "wordcount"

    def map(self, key, value, emit, context):
        for token in value.split():
            emit(token, 1)

    def reduce(self, key, values, emit, context):
        emit(key, sum(values))


LINES = [(i, f"w{i % 5} w{i % 3} common") for i in range(40)]


class FailFirstAttempts:
    """Every task of the given phases fails its first attempt.

    A module-level class (not a closure) so the process executor can
    pickle it along with the task payloads.
    """

    def __init__(self, phases=("map", "reduce")):
        self.phases = tuple(phases)

    def __call__(self, phase, task_id, attempt):
        return phase in self.phases and attempt == 1


def fail_first_attempts(phases=("map", "reduce")):
    return FailFirstAttempts(phases)


EXECUTORS = ["serial", "thread", "process"]


class TestRetries:
    def test_output_identical_after_retries(self):
        clean = SimulatedCluster(ClusterSpec(workers=3)).run_job(WordCount(), LINES)
        faulty = SimulatedCluster(
            ClusterSpec(workers=3), failure_injector=fail_first_attempts()
        ).run_job(WordCount(), LINES)
        assert sorted(faulty.output) == sorted(clean.output)

    def test_no_partial_output_leaks(self):
        """Retried tasks must not double their emissions."""
        faulty = SimulatedCluster(
            ClusterSpec(workers=3), failure_injector=fail_first_attempts()
        ).run_job(WordCount(), LINES)
        counts = dict(faulty.output)
        assert counts["common"] == 40  # not 80

    def test_retries_counted(self):
        spec = ClusterSpec(workers=2, map_slots=2, reduce_slots=2)
        result = SimulatedCluster(
            spec, failure_injector=fail_first_attempts(("map",))
        ).run_job(WordCount(), LINES, num_map_tasks=4)
        assert result.counters.get("mapreduce", "map_task_retries") == 4
        assert result.counters.get("mapreduce", "reduce_task_retries") == 0

    def test_single_flaky_task(self):
        def injector(phase, task_id, attempt):
            return phase == "reduce" and task_id == 0 and attempt < 3

        result = SimulatedCluster(
            ClusterSpec(workers=2), failure_injector=injector
        ).run_job(WordCount(), LINES)
        assert result.counters.get("mapreduce", "reduce_task_retries") == 2
        clean = SimulatedCluster(ClusterSpec(workers=2)).run_job(WordCount(), LINES)
        assert sorted(result.output) == sorted(clean.output)

    def test_exhausted_attempts_abort_job(self):
        cluster = SimulatedCluster(
            ClusterSpec(workers=2),
            failure_injector=lambda phase, task_id, attempt: phase == "map",
        )
        with pytest.raises(ExecutionError,
                           match=f"failed {MAX_TASK_ATTEMPTS} attempts"):
            cluster.run_job(WordCount(), LINES)

    def test_counters_not_duplicated_by_retries(self):
        """User counters from failed attempts are discarded with the output."""

        class Counting(WordCount):
            def map(self, key, value, emit, context):
                context.increment("user", "map_calls")
                super().map(key, value, emit, context)

        result = SimulatedCluster(
            ClusterSpec(workers=2), failure_injector=fail_first_attempts(("map",))
        ).run_job(Counting(), LINES)
        assert result.counters.get("user", "map_calls") == len(LINES)


class TestRetriesAcrossExecutors:
    """Retry accounting must be identical on every executor backend."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_retry_counts_per_backend(self, executor):
        spec = ClusterSpec(workers=2, map_slots=2, reduce_slots=2)
        result = SimulatedCluster(
            spec,
            failure_injector=FailFirstAttempts(("map",)),
            executor=executor,
        ).run_job(WordCount(), LINES, num_map_tasks=4)
        assert result.counters.get("mapreduce", "map_task_retries") == 4
        assert result.counters.get("mapreduce", "reduce_task_retries") == 0

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_output_identical_per_backend(self, executor):
        clean = SimulatedCluster(ClusterSpec(workers=3)).run_job(WordCount(), LINES)
        faulty = SimulatedCluster(
            ClusterSpec(workers=3),
            failure_injector=FailFirstAttempts(),
            executor=executor,
        ).run_job(WordCount(), LINES)
        assert faulty.output == clean.output


class TestRetrySpans:
    """Traces must record one span per task *attempt*, retries included."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_one_retried_span_per_injected_failure(self, executor):
        from repro.observability import Tracer

        tracer = Tracer()
        spec = ClusterSpec(workers=2, map_slots=2, reduce_slots=2)
        result = SimulatedCluster(
            spec,
            failure_injector=FailFirstAttempts(("map",)),
            executor=executor,
            tracer=tracer,
        ).run_job(WordCount(), LINES, num_map_tasks=4, num_reduce_tasks=2)
        spans = tracer.spans()

        retried = [s for s in spans if s.attrs.get("status") == "retried"]
        injected = result.counters.get("mapreduce", "map_task_retries")
        assert injected == 4
        assert len(retried) == injected
        assert {s.phase for s in retried} == {"map"}
        # Each failed first attempt is followed by a successful second one.
        for task_id in range(4):
            attempts = sorted(
                (s.attrs["attempt"], s.attrs["status"])
                for s in spans
                if s.phase == "map" and s.attrs.get("task_id") == task_id
            )
            assert attempts == [(1, "retried"), (2, "ok")]

    def test_flaky_task_span_sequence(self):
        from repro.observability import Tracer

        def injector(phase, task_id, attempt):
            return phase == "reduce" and task_id == 0 and attempt < 3

        tracer = Tracer()
        SimulatedCluster(
            ClusterSpec(workers=2), failure_injector=injector, tracer=tracer
        ).run_job(WordCount(), LINES, num_reduce_tasks=2)
        attempts = sorted(
            (s.attrs["attempt"], s.attrs["status"])
            for s in tracer.spans()
            if s.phase == "reduce" and s.attrs.get("task_id") == 0
        )
        assert attempts == [(1, "retried"), (2, "retried"), (3, "ok")]


class Straggle:
    """Deterministic straggler injector (module-level: process-picklable).

    Slows the selected tasks' *primary* attempts by ``delay`` and their
    speculative backups by ``backup_delay`` (attempt ids at or above
    ``SPECULATIVE_ATTEMPT_OFFSET`` are backups).
    """

    def __init__(self, tasks=(0,), phase="map", delay=0.5, backup_delay=0.0):
        self.tasks = tuple(tasks)
        self.phase = phase
        self.delay = delay
        self.backup_delay = backup_delay

    def __call__(self, phase, task_id, attempt):
        if phase != self.phase or task_id not in self.tasks:
            return 0.0
        if attempt >= SPECULATIVE_ATTEMPT_OFFSET:
            return self.backup_delay
        return self.delay


class CrashAlways:
    """Every attempt of one task dies (module-level: process-picklable)."""

    def __init__(self, phase="map", task_id=0):
        self.phase = phase
        self.task_id = task_id

    def __call__(self, phase, task_id, attempt):
        return phase == self.phase and task_id == self.task_id


class RaisingMap(WordCount):
    """A map task that raises its own exception (not an injected death)."""

    def map(self, key, value, emit, context):
        if key % 4 == 0:
            raise ValueError(f"boom on key {key}")
        super().map(key, value, emit, context)


class TestSpeculativeExecution:
    def spec_cluster(self, straggler, executor="serial", tracer=None):
        kwargs = {"tracer": tracer} if tracer is not None else {}
        return SimulatedCluster(
            ClusterSpec(workers=3, map_slots=2, reduce_slots=2),
            straggler_injector=straggler,
            executor=executor,
            **kwargs,
        )

    def test_backup_launched_and_wins(self):
        cluster = self.spec_cluster(Straggle(delay=0.5, backup_delay=0.0))
        result = cluster.run_job(WordCount(), LINES, num_map_tasks=4)
        assert result.counters.get("mapreduce", "map_speculative_backups") == 1
        assert result.counters.get("mapreduce", "map_speculative_wins") == 1

    def test_slow_backup_loses(self):
        """The race is decided by STRAGGLER_THRESHOLD + backup_delay <
        delay."""
        cluster = self.spec_cluster(Straggle(delay=0.5, backup_delay=0.45))
        result = cluster.run_job(WordCount(), LINES, num_map_tasks=4)
        assert result.counters.get("mapreduce", "map_speculative_backups") == 1
        assert result.counters.get("mapreduce", "map_speculative_wins") == 0

    def test_below_threshold_no_backup(self):
        assert 0.05 < STRAGGLER_THRESHOLD
        cluster = self.spec_cluster(Straggle(delay=0.05))
        result = cluster.run_job(WordCount(), LINES, num_map_tasks=4)
        assert result.counters.get("mapreduce", "map_speculative_backups") == 0

    def test_a_straggler_hook_alone_gets_a_backup(self):
        """Speculation is on whenever a straggler hook is set."""
        cluster = SimulatedCluster(
            ClusterSpec(workers=3), straggler_injector=Straggle(delay=0.5)
        )
        result = cluster.run_job(WordCount(), LINES, num_map_tasks=4)
        assert result.counters.get("mapreduce", "map_speculative_backups") == 1
        assert result.counters.get("mapreduce", "map_speculative_wins") == 1

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_output_bit_identical_per_backend(self, executor):
        clean = SimulatedCluster(
            ClusterSpec(workers=3, map_slots=2, reduce_slots=2)
        ).run_job(WordCount(), LINES, num_map_tasks=4, num_reduce_tasks=2)
        raced = self.spec_cluster(
            Straggle(tasks=(0, 1, 2, 3), delay=0.5), executor=executor
        ).run_job(WordCount(), LINES, num_map_tasks=4, num_reduce_tasks=2)
        assert raced.output == clean.output
        assert raced.counters.get("mapreduce", "map_speculative_wins") == 4

    def test_loser_counters_do_not_leak(self):
        """Both racers run to completion; only the winner's counters fold."""

        class Counting(WordCount):
            def map(self, key, value, emit, context):
                context.increment("user", "map_calls")
                super().map(key, value, emit, context)

        result = self.spec_cluster(
            Straggle(tasks=(0, 1, 2, 3), delay=0.5)
        ).run_job(Counting(), LINES, num_map_tasks=4)
        assert result.counters.get("user", "map_calls") == len(LINES)

    def test_win_emits_recovery_span_and_marks_loser(self):
        from repro.observability import Tracer

        tracer = Tracer()
        self.spec_cluster(Straggle(delay=0.5), tracer=tracer).run_job(
            WordCount(), LINES, num_map_tasks=4
        )
        spans = tracer.spans()
        wins = [s for s in spans if s.phase == "recovery"]
        assert len(wins) == 1
        assert wins[0].attrs["action"] == "speculative-win"
        losers = [
            s for s in spans if s.attrs.get("status") == "speculative-loser"
        ]
        assert len(losers) == 1
        assert losers[0].attrs["attempt"] < SPECULATIVE_ATTEMPT_OFFSET

    def test_deterministic_across_runs(self):
        def run():
            result = self.spec_cluster(
                Straggle(tasks=(0, 2), delay=0.3)
            ).run_job(WordCount(), LINES, num_map_tasks=4)
            return result.output, result.counters.as_dict()

        assert run() == run()


class TestFailureHistory:
    """ExecutionError must carry the per-attempt post-mortem."""

    def test_injected_failures_recorded_in_order(self):
        cluster = SimulatedCluster(
            ClusterSpec(workers=2),
            failure_injector=CrashAlways("map", 0),
        )
        with pytest.raises(ExecutionError) as excinfo:
            cluster.run_job(WordCount(), LINES, num_map_tasks=2)
        assert excinfo.value.attempts == tuple(
            (attempt, "map", "injected task failure")
            for attempt in range(1, MAX_TASK_ATTEMPTS + 1)
        )

    def test_raised_exceptions_recorded_with_repr(self):
        cluster = SimulatedCluster(ClusterSpec(workers=2))
        with pytest.raises(ExecutionError) as excinfo:
            cluster.run_job(RaisingMap(), LINES, num_map_tasks=1)
        attempts = excinfo.value.attempts
        assert [a for a, _, _ in attempts] == list(
            range(1, MAX_TASK_ATTEMPTS + 1)
        )
        assert all(phase == "map" for _, phase, _ in attempts)
        assert all("ValueError" in error for _, _, error in attempts)
        assert "boom on key" in attempts[0][2]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_history_survives_every_backend(self, executor):
        """The history must survive pickling back from worker processes."""
        cluster = SimulatedCluster(
            ClusterSpec(workers=2),
            failure_injector=CrashAlways("map", 0),
            executor=executor,
        )
        with pytest.raises(ExecutionError) as excinfo:
            cluster.run_job(WordCount(), LINES, num_map_tasks=2)
        assert excinfo.value.attempts == tuple(
            (attempt, "map", "injected task failure")
            for attempt in range(1, MAX_TASK_ATTEMPTS + 1)
        )

    def test_history_pickle_roundtrip(self):
        import pickle

        error = ExecutionError(
            "map task 0 failed 2 attempts",
            attempts=((1, "map", "x"), (2, "map", "y")),
        )
        clone = pickle.loads(pickle.dumps(error))
        assert clone.attempts == error.attempts
        assert str(clone) == str(error)


class TestRetryAccountingAudit:
    """No counter deltas may leak from failed or speculative-loser attempts.

    The audit: the same job under heavy retries *and* forced speculation
    must report exactly the counters of a clean run (user counters and
    task totals alike), on every executor backend.
    """

    class Audited(WordCount):
        def map(self, key, value, emit, context):
            context.increment("user", "map_calls")
            context.increment("user", "tokens", len(value.split()))
            super().map(key, value, emit, context)

        def reduce(self, key, values, emit, context):
            context.increment("user", "reduce_calls")
            super().reduce(key, values, emit, context)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_counters_identical_under_chaos(self, executor):
        clean = SimulatedCluster(ClusterSpec(workers=3)).run_job(
            self.Audited(), LINES, num_map_tasks=4, num_reduce_tasks=2
        )
        chaotic = SimulatedCluster(
            ClusterSpec(workers=3, map_slots=2, reduce_slots=2),
            failure_injector=FailFirstAttempts(),
            straggler_injector=Straggle(tasks=(0, 1, 2, 3), delay=0.4),
            executor=executor,
        ).run_job(self.Audited(), LINES, num_map_tasks=4, num_reduce_tasks=2)
        for group, name in (
            ("user", "map_calls"),
            ("user", "tokens"),
            ("user", "reduce_calls"),
        ):
            assert chaotic.counters.get(group, name) == clean.counters.get(
                group, name
            ), f"{group}.{name} leaked under retries/speculation"
        assert chaotic.output == clean.output


class TestFullPipelineUnderFailures:
    def test_fsjoin_results_survive_failures(self):
        records = random_collection(40, seed=33)
        theta = 0.7
        oracle = frozenset(naive_self_join(records, theta))
        cluster = SimulatedCluster(
            ClusterSpec(workers=3), failure_injector=fail_first_attempts()
        )
        result = FSJoin(FSJoinConfig(theta=theta, n_vertical=4), cluster).run(records)
        assert result.result_set() == oracle
        assert result.counters().get("mapreduce", "map_task_retries") > 0
