"""Tests for the MapReduce execution engine."""

from __future__ import annotations

from collections import Counter
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ordering import TokenFrequencyJob
from repro.data.records import Record
from repro.errors import ConfigError, ExecutionError
from repro.mapreduce.job import JobContext, MapReduceJob
from repro.mapreduce.runtime import ClusterSpec, SimulatedCluster
from repro.mapreduce.sizer import estimate_pair_size
from tests.test_mr_fault_tolerance import EXECUTORS, FailFirstAttempts, Straggle


class WordCount(MapReduceJob):
    name = "wordcount"

    def map(self, key, value: str, emit, context):
        for token in value.split():
            emit(token, 1)

    def reduce(self, key, values: List[int], emit, context):
        emit(key, sum(values))


class CombiningWordCount(WordCount):
    def combine(self, key, values, context):
        return [(key, sum(values))]


class IdentityJob(MapReduceJob):
    name = "identity"


class DeferredWordCount(WordCount):
    """``WordCount``'s pairs, in the same order, emitted from ``cleanup``."""

    def setup(self, context):
        context.pending = []

    def map(self, key, value: str, emit, context):
        context.pending.extend(value.split())

    def cleanup(self, emit, context):
        for token in context.pending:
            emit(token, 1)


class CombiningDeferredWordCount(DeferredWordCount):
    def combine(self, key, values, context):
        return [(key, sum(values))]


class CleanupMarker(MapReduceJob):
    """Emits, once per map task, how many ``map`` calls the task saw."""

    name = "cleanup-marker"

    def setup(self, context):
        context.seen = 0

    def map(self, key, value, emit, context):
        context.seen += 1

    def cleanup(self, emit, context):
        context.increment("test", "cleanups")
        emit(f"task-{context.task_id}", context.seen)


class PerTokenWordCount(MapReduceJob):
    """The ordering job's word count with one emit per token and a combiner."""

    def map(self, key, value: Record, emit, context):
        for token in value.tokens:
            emit(token, 1)

    def combine(self, key, values, context):
        return [(key, sum(values))]

    def reduce(self, key, values, emit, context):
        emit(key, sum(values))


def _volumes(metrics):
    """Every record and byte count of a job, per task (timings left out)."""
    return (
        metrics.shuffle_records,
        metrics.shuffle_bytes,
        [
            (t.input_records, t.input_bytes, t.output_records, t.output_bytes)
            for t in metrics.map_tasks + metrics.reduce_tasks
        ],
    )


def _wordcount_reference(lines):
    counter = Counter()
    for line in lines:
        counter.update(line.split())
    return dict(counter)


class TestClusterSpec:
    def test_defaults_match_paper(self):
        spec = ClusterSpec()
        assert spec.workers == 10
        assert spec.reduce_slots == 3
        assert spec.default_reduce_tasks == 30

    @pytest.mark.parametrize("kwargs", [{"workers": 0}, {"map_slots": 0}, {"reduce_slots": -1}])
    def test_invalid_dimensions(self, kwargs):
        with pytest.raises(ConfigError):
            ClusterSpec(**kwargs)


class TestExecutionSemantics:
    def test_wordcount(self, cluster):
        lines = ["a b a", "b c", "a"]
        result = cluster.run_job(WordCount(), list(enumerate(lines)))
        assert dict(result.output) == _wordcount_reference(lines)

    def test_empty_input(self, cluster):
        result = cluster.run_job(WordCount(), [])
        assert result.output == []
        assert result.metrics.input_records == 0

    def test_identity_default_map_reduce(self, cluster):
        pairs = [("k1", "v1"), ("k2", "v2"), ("k1", "v3")]
        result = cluster.run_job(IdentityJob(), pairs)
        assert sorted(result.output) == sorted(pairs)

    def test_combiner_preserves_semantics(self, cluster):
        lines = ["x y x y", "y z", "x"]
        pairs = list(enumerate(lines))
        plain = cluster.run_job(WordCount(), pairs)
        combined = cluster.run_job(CombiningWordCount(), pairs)
        assert dict(plain.output) == dict(combined.output)

    def test_combiner_reduces_shuffle(self, cluster):
        lines = ["a a a a a a"] * 20
        pairs = list(enumerate(lines))
        plain = cluster.run_job(WordCount(), pairs)
        combined = cluster.run_job(CombiningWordCount(), pairs)
        assert combined.metrics.shuffle_records < plain.metrics.shuffle_records

    def test_combiner_key_change_rejected(self, cluster):
        class BadCombiner(WordCount):
            def combine(self, key, values, context):
                return [(key + "_changed", sum(values))]

        with pytest.raises(ExecutionError):
            cluster.run_job(BadCombiner(), [(0, "a b")])

    def test_partition_out_of_range_rejected(self, cluster):
        class BadPartition(IdentityJob):
            def partition(self, key, n):
                return n  # one past the end

        with pytest.raises(ExecutionError):
            cluster.run_job(BadPartition(), [("k", "v")])

    def test_partition_non_integer_rejected(self, cluster):
        """A float that compares inside the range is still not an index:
        the map task's emit rejects it with the runtime's typed error."""
        class FloatPartition(IdentityJob):
            def partition(self, key, n):
                return float(key % n)

        with pytest.raises(ExecutionError, match="not an integer"):
            cluster.run_job(FloatPartition(), [(i, i) for i in range(5)])

    def test_partition_index_like_normalised(self, cluster):
        """Anything with ``__index__`` (``bool``, numpy ints) routes like
        the plain int it equals."""
        class BoolPartition(IdentityJob):
            def partition(self, key, n):
                return key % 2 == 1

        result = cluster.run_job(
            BoolPartition(), [(i, i) for i in range(10)], num_reduce_tasks=2
        )
        assert [t.input_records for t in result.metrics.reduce_tasks] == [5, 5]
        assert sorted(result.output) == [(i, i) for i in range(10)]

    def test_custom_partitioner_respected(self, cluster):
        class AllToZero(IdentityJob):
            def partition(self, key, n):
                return 0

        result = cluster.run_job(AllToZero(), [(i, i) for i in range(10)])
        loads = [t.input_records for t in result.metrics.reduce_tasks]
        assert loads[0] == 10
        assert sum(loads[1:]) == 0

    def test_reduce_groups_sorted_by_key(self, cluster):
        class KeyOrder(MapReduceJob):
            def map(self, key, value, emit, context):
                emit(value, None)

            def reduce(self, key, values, emit, context):
                emit(key, None)

        result = cluster.run_job(
            KeyOrder(), [(i, v) for i, v in enumerate([5, 3, 9, 1])],
            num_reduce_tasks=1,
        )
        assert [k for k, _ in result.output] == [1, 3, 5, 9]

    def test_setup_called_per_task(self, cluster):
        calls = []

        class SetupJob(IdentityJob):
            def setup(self, context: JobContext):
                calls.append(context.phase)

        cluster.run_job(SetupJob(), [(i, i) for i in range(20)], num_map_tasks=4,
                        num_reduce_tasks=3)
        assert calls.count("map") == 4
        assert calls.count("reduce") == 3

    def test_deterministic_across_runs(self, cluster):
        pairs = [(i, f"w{i % 7} w{i % 3}") for i in range(50)]
        first = cluster.run_job(WordCount(), pairs)
        second = cluster.run_job(WordCount(), pairs)
        assert first.output == second.output
        assert [t.input_records for t in first.metrics.reduce_tasks] == [
            t.input_records for t in second.metrics.reduce_tasks
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.text(alphabet="abcde ", max_size=20), max_size=30),
        st.integers(1, 8),
        st.integers(1, 8),
    )
    def test_wordcount_any_task_layout(self, lines, n_map, n_reduce):
        cluster = SimulatedCluster(ClusterSpec(workers=2))
        result = cluster.run_job(
            WordCount(), list(enumerate(lines)),
            num_map_tasks=n_map, num_reduce_tasks=n_reduce,
        )
        assert dict(result.output) == _wordcount_reference(lines)
        records = [(i, Record.make(i, line.split())) for i, line in enumerate(lines)]
        ordering, reference = (
            cluster.run_job(job, records, num_map_tasks=n_map,
                            num_reduce_tasks=n_reduce)
            for job in (TokenFrequencyJob(), PerTokenWordCount())
        )
        assert (_volumes(ordering.metrics), ordering.output) == (
            _volumes(reference.metrics), reference.output
        )


class TestCleanup:
    """``cleanup`` is Hadoop's ``Mapper.cleanup``: once per map-task
    attempt, after its last ``map``, with emits that are map output."""

    PAIRS = [(i, f"w{i % 5} w{i % 3} common") for i in range(40)]

    def test_once_per_map_task_after_its_last_map(self, cluster):
        result = cluster.run_job(CleanupMarker(), self.PAIRS, num_map_tasks=4)
        seen = [t.input_records for t in result.metrics.map_tasks]
        assert sorted(result.output) == [(f"task-{i}", n) for i, n in enumerate(seen)]
        assert result.counters.get("test", "cleanups") == 4

    def test_runs_on_an_empty_split(self, cluster):
        result = cluster.run_job(CleanupMarker(), [])
        assert result.output == [("task-0", 0)]

    def test_empty_split_emit_is_sized(self, cluster):
        """Before any ``map`` there is no input pair a ``(None, None)``
        emit could be re-shipping at its read size."""
        class EmitsNone(IdentityJob):
            def cleanup(self, emit, context):
                emit(None, None)

        result = cluster.run_job(EmitsNone(), [], num_reduce_tasks=1)
        assert result.metrics.shuffle_bytes == estimate_pair_size(None, None) > 0

    @pytest.mark.parametrize(
        "eager, deferred",
        [(WordCount, DeferredWordCount),
         (CombiningWordCount, CombiningDeferredWordCount)],
    )
    def test_emits_are_partitioned_sized_and_combined_like_map_emits(
        self, cluster, eager, deferred
    ):
        mapped, cleaned = (
            cluster.run_job(job(), self.PAIRS, num_map_tasks=3, num_reduce_tasks=5)
            for job in (eager, deferred)
        )
        assert (_volumes(mapped.metrics), mapped.output) == (
            _volumes(cleaned.metrics), cleaned.output
        )

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize(
        "faults",
        [
            {"failure_injector": FailFirstAttempts(("map",))},
            {"straggler_injector": Straggle(tasks=(0, 2), backup_delay=0.0)},
            {"straggler_injector": Straggle(tasks=(0, 2), backup_delay=0.45)},
        ],
        ids=["failed-attempts", "speculative-original-loses",
             "speculative-backup-loses"],
    )
    def test_discarded_attempts_leave_no_cleanup_output(self, executor, faults):
        spec = ClusterSpec(workers=2, map_slots=2, reduce_slots=2)
        clean = SimulatedCluster(spec).run_job(
            CleanupMarker(), self.PAIRS, num_map_tasks=4
        )
        faulty = SimulatedCluster(spec, executor=executor, **faults).run_job(
            CleanupMarker(), self.PAIRS, num_map_tasks=4
        )
        assert faulty.output == clean.output
        assert _volumes(faulty.metrics) == _volumes(clean.metrics)
        assert faulty.counters.get("test", "cleanups") == 4


class TestMetrics:
    def test_record_counts(self, cluster):
        lines = ["a b", "c"]
        result = cluster.run_job(WordCount(), list(enumerate(lines)))
        metrics = result.metrics
        assert metrics.input_records == 2
        assert metrics.map_output_records == 3
        assert metrics.shuffle_records == 3
        assert metrics.output_records == 3  # a, b, c

    def test_bytes_positive(self, cluster):
        result = cluster.run_job(WordCount(), [(0, "alpha beta")])
        assert result.metrics.input_bytes > 0
        assert result.metrics.shuffle_bytes > 0
        assert result.metrics.output_bytes > 0

    def test_compute_seconds_measured(self, cluster):
        result = cluster.run_job(WordCount(), [(i, "a b c") for i in range(50)])
        assert all(t.compute_seconds >= 0 for t in result.metrics.map_tasks)
        assert any(t.compute_seconds > 0 for t in result.metrics.map_tasks)

    def test_task_counts_match_request(self, cluster):
        result = cluster.run_job(
            WordCount(), [(i, "x") for i in range(40)],
            num_map_tasks=5, num_reduce_tasks=7,
        )
        assert len(result.metrics.map_tasks) == 5
        assert len(result.metrics.reduce_tasks) == 7

    def test_map_tasks_capped_by_input(self, cluster):
        result = cluster.run_job(WordCount(), [(0, "x")], num_map_tasks=8)
        assert len(result.metrics.map_tasks) == 1

    def test_counters_aggregated(self, cluster):
        class CountingJob(IdentityJob):
            def map(self, key, value, emit, context):
                context.increment("test", "mapped")
                emit(key, value)

        result = cluster.run_job(CountingJob(), [(i, i) for i in range(9)])
        assert result.counters.get("test", "mapped") == 9

    def test_invalid_task_counts(self, cluster):
        with pytest.raises(ConfigError):
            cluster.run_job(WordCount(), [(0, "x")], num_reduce_tasks=0)

    def test_duplication_factor_identity(self, cluster):
        pairs = [(i, f"value-{i}") for i in range(20)]
        result = cluster.run_job(IdentityJob(), pairs)
        assert result.metrics.duplication_record_factor() == pytest.approx(1.0)
        assert result.metrics.duplication_byte_factor() == pytest.approx(1.0)

    def test_skew_metrics(self, cluster):
        class Skewed(IdentityJob):
            def partition(self, key, n):
                return 0

        skewed = cluster.run_job(Skewed(), [(i, "x" * 50) for i in range(30)])
        balanced = cluster.run_job(IdentityJob(), [(i, "x" * 50) for i in range(30)])
        assert skewed.metrics.reduce_load_cv() > balanced.metrics.reduce_load_cv()
        assert skewed.metrics.reduce_load_max_over_mean() > 1.5
