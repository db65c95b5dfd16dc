"""Tests for PipelineResult aggregation."""

from __future__ import annotations

import pytest

from repro.core import FSJoin, FSJoinConfig
from repro.mapreduce.pipeline import PipelineResult
from repro.mapreduce.runtime import ClusterSpec, SimulatedCluster


@pytest.fixture
def pipeline_result(medium_records):
    cluster = SimulatedCluster(ClusterSpec(workers=3))
    return FSJoin(FSJoinConfig(theta=0.7, n_vertical=6), cluster).run(medium_records)


class TestPipelineResult:
    def test_algorithm_name(self, pipeline_result):
        assert pipeline_result.algorithm == "FS-Join-V"

    def test_result_pairs_keyed_small_large(self, pipeline_result):
        for rid_a, rid_b in pipeline_result.result_pairs:
            assert rid_a < rid_b

    def test_result_set_matches_pairs(self, pipeline_result):
        assert pipeline_result.result_set() == frozenset(pipeline_result.result_pairs)

    def test_job_count(self, pipeline_result):
        assert len(pipeline_result.job_results) == 3  # order, filter, verify

    def test_counters_merged(self, pipeline_result):
        counters = pipeline_result.counters()
        assert counters.get("fsjoin.map", "records") > 0
        assert counters.get("fsjoin.verify", "candidates") > 0

    def test_shuffle_totals(self, pipeline_result):
        per_job = [r.metrics.shuffle_bytes for r in pipeline_result.job_results]
        assert pipeline_result.total_shuffle_bytes() == sum(per_job)

    def test_simulated_time_sums_jobs(self, pipeline_result):
        spec = ClusterSpec(workers=10)
        total = pipeline_result.simulated_time(spec)
        per_job = pipeline_result.job_times(spec)
        assert len(per_job) == 3
        assert total.total_s == pytest.approx(sum(t.total_s for t in per_job))

    def test_job_metrics_order(self, pipeline_result):
        names = [m.job_name for m in pipeline_result.job_metrics()]
        assert names == ["fsjoin-ordering", "fsjoin-filter", "fsjoin-verify"]


class TestEmptyPipeline:
    def test_zero_everything(self):
        empty = PipelineResult(algorithm="none", pairs=[])
        assert empty.result_pairs == {}
        assert empty.total_shuffle_bytes() == 0
        assert empty.simulated_time(ClusterSpec()).total_s == 0.0
