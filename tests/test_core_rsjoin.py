"""Tests for the R-S (two-collection) join: ``FSJoin.run(left, right=...)``."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_rs_join
from repro.core import FSJoin, FSJoinConfig
from repro.core.fsjoin import CHECKPOINT_ROOT
from repro.data.records import RecordCollection
from repro.errors import DFSError
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.runtime import ClusterSpec, SimulatedCluster
from repro.observability import Tracer
from repro.similarity.functions import SimilarityFunction
from tests.conftest import random_collection, records_of


class TestKnownCases:
    def test_identical_singletons(self, cluster):
        left = records_of([["a", "b", "c"]])
        right = records_of([["a", "b", "c"]])
        result = FSJoin(FSJoinConfig(theta=0.9), cluster).run(left, right=right)
        assert result.result_pairs == {(0, 0): pytest.approx(1.0)}

    def test_key_order_is_left_right(self, cluster):
        left = records_of([["x", "y", "z"]])
        right = records_of([[], ["x", "y", "z"]])
        result = FSJoin(FSJoinConfig(theta=0.9), cluster).run(left, right=right)
        assert set(result.result_pairs) == {(0, 1)}

    def test_same_side_pairs_excluded(self, cluster):
        """Two identical records in the same collection are not a result."""
        left = records_of([["a", "b"], ["a", "b"]])
        right = records_of([["q", "r"]])
        result = FSJoin(FSJoinConfig(theta=0.5), cluster).run(left, right=right)
        assert result.pairs == []

    def test_overlapping_rids_unambiguous(self, cluster):
        """rid 0 exists on both sides; the pair (0, 0) is a valid result."""
        left = records_of([["m", "n", "o"]])
        right = records_of([["m", "n", "o"]])
        result = FSJoin(FSJoinConfig(theta=1.0), cluster).run(left, right=right)
        assert set(result.result_pairs) == {(0, 0)}

    def test_empty_sides(self, cluster):
        records = random_collection(10, seed=0)
        empty = RecordCollection()
        config = FSJoinConfig(theta=0.8)
        assert FSJoin(config, cluster).run(records, right=empty).pairs == []
        assert FSJoin(config, cluster).run(empty, right=records).pairs == []

    def test_algorithm_name(self, cluster):
        left = random_collection(5, seed=1)
        result = FSJoin(FSJoinConfig(theta=0.8), cluster).run(left, right=left)
        assert result.algorithm == "FS-Join-RS"


class TestOracleEquivalence:
    @pytest.mark.parametrize("theta", [0.6, 0.8, 0.95])
    @pytest.mark.parametrize("func", list(SimilarityFunction))
    def test_matches_oracle(self, theta, func, cluster):
        left = random_collection(40, seed=51)
        right = random_collection(35, seed=52)
        oracle = naive_rs_join(left, right, theta, func)
        config = FSJoinConfig(theta=theta, func=func, n_vertical=5)
        result = FSJoin(config, cluster).run(left, right=right)
        assert result.result_pairs.keys() == oracle.keys()
        for pair, score in result.result_pairs.items():
            assert score == pytest.approx(oracle[pair])

    @pytest.mark.parametrize("n_horizontal", [1, 3, 6])
    def test_horizontal_partitioning(self, n_horizontal, cluster):
        left = random_collection(40, max_len=25, seed=61)
        right = random_collection(40, max_len=25, seed=62)
        oracle = frozenset(naive_rs_join(left, right, 0.7))
        config = FSJoinConfig(theta=0.7, n_vertical=4, n_horizontal=n_horizontal)
        result = FSJoin(config, cluster).run(left, right=right)
        assert result.result_set() == oracle

    def test_self_rs_equals_self_join_plus_diagonal(self, cluster):
        """R ⋈ R returns every self-join pair in both orders' canonical key
        plus the diagonal (each record with its own copy)."""
        records = random_collection(25, seed=77)
        config = FSJoinConfig(theta=0.8, n_vertical=4)
        rs = FSJoin(config, cluster).run(records, right=records)
        oracle = naive_rs_join(records, records, 0.8)
        assert rs.result_pairs.keys() == oracle.keys()
        for record in records:
            if record.size:
                assert (record.rid, record.rid) in rs.result_pairs

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        theta=st.sampled_from([0.6, 0.8, 0.9]),
        n_vertical=st.integers(1, 8),
    )
    def test_random_configs(self, seed, theta, n_vertical):
        left = random_collection(25, seed=seed)
        right = random_collection(25, seed=seed + 5000)
        oracle = frozenset(naive_rs_join(left, right, theta))
        config = FSJoinConfig(theta=theta, n_vertical=n_vertical)
        assert FSJoin(config).run(left, right=right).result_set() == oracle


class TestOneDriver:
    """The R-S join rides the self-join's driver: spans, DFS, resume."""

    CONFIG = FSJoinConfig(theta=0.7, n_vertical=4, n_horizontal=3)

    def _sides(self):
        return random_collection(40, seed=81), random_collection(35, seed=82)

    def test_traced_run_has_pipeline_and_driver_spans(self):
        left, right = self._sides()
        tracer = Tracer()
        cluster = SimulatedCluster(ClusterSpec(workers=3), tracer=tracer)
        result = FSJoin(self.CONFIG, cluster).run(left, right=right)
        roots = [s for s in result.trace if s.phase == "pipeline"]
        assert [s.name for s in roots] == ["pipeline:FS-Join-RS"]
        assert roots[0].attrs["records"] == len(left) + len(right)
        assert [s.name for s in result.trace if s.phase == "driver"] == [
            "order-build", "filter-job", "verify-job", "aggregation",
        ]
        assert {s.phase for s in result.trace} >= {"job", "map", "reduce"}

    def test_dfs_round_trip_is_observational(self):
        left, right = self._sides()
        plain = FSJoin(self.CONFIG).run(left, right=right)
        dfs = InMemoryDFS()
        staged = FSJoin(self.CONFIG, dfs=dfs).run(left, right=right)
        assert staged.result_pairs == plain.result_pairs
        assert dict(dfs.read("fsjoin/results")) == plain.result_pairs
        assert dfs.list_prefix(CHECKPOINT_ROOT + "/") == [
            f"{CHECKPOINT_ROOT}/{job}" for job in ("filter", "ordering", "verify")
        ]

    def test_killed_after_filter_checkpoint_resumes(self):
        """A driver killed right after the filter checkpoint restarts from
        it: ordering and filter are skipped, the answer is fault-free."""
        left, right = self._sides()
        baseline = FSJoin(self.CONFIG).run(left, right=right)

        def kill(op, path):
            if op == "write" and path == "fsjoin/partial-counts":
                raise DFSError("driver killed")

        dfs = InMemoryDFS(fault_hook=kill)
        with pytest.raises(DFSError, match="driver killed"):
            FSJoin(self.CONFIG, dfs=dfs).run(left, right=right)
        assert dfs.list_prefix(CHECKPOINT_ROOT + "/") == [
            f"{CHECKPOINT_ROOT}/{job}" for job in ("filter", "ordering")
        ]
        dfs.fault_hook = None
        resumed = FSJoin(self.CONFIG, dfs=dfs).run(
            left, right=right, resume=True
        )
        assert resumed.resumed_jobs == ["ordering", "filter"]
        assert resumed.algorithm == "FS-Join-RS"
        assert resumed.result_pairs == baseline.result_pairs
