"""Tests for the MapReduce execution engine."""

from __future__ import annotations

from collections import Counter
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ExecutionError
from repro.mapreduce.job import JobContext, MapReduceJob
from repro.mapreduce.runtime import ClusterSpec, SimulatedCluster


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
