"""Tests for the filtering MapReduce job."""

from __future__ import annotations

import pytest

from repro.core.config import FSJoinConfig
from repro.core.filter_job import FilterJob
from repro.core.horizontal import build_horizontal_plan
from repro.core.ordering import compute_global_ordering
from repro.core.partitioning import VerticalPartitioner
from repro.core.pivots import select_pivots
from tests.conftest import expand_stripes


def _build_job(records, cluster, config):
    order, _ = compute_global_ordering(cluster, records)
    cuts = select_pivots(order.rank_frequencies, config.n_vertical, config.pivot_method)
    partitioner = VerticalPartitioner(cuts)
    horizontal = build_horizontal_plan(
        [r.size for r in records], config.n_horizontal, config.theta, config.func
    )
    return FilterJob(config, order, partitioner, horizontal)


@pytest.fixture
def filter_result(medium_records, cluster):
    config = FSJoinConfig(theta=0.7, n_vertical=6)
    job = _build_job(medium_records, cluster, config)
    return cluster.run_job(job, [(r.rid, r) for r in medium_records])


class TestMapPhase:
    def test_duplicate_free_without_horizontal(self, filter_result, medium_records):
        """Segments partition records: map output bytes ≈ input payload."""
        counters = filter_result.counters
        assert counters.get("fsjoin.map", "horizontal_replicas") == 0
        assert counters.get("fsjoin.map", "records") == len(medium_records)

    def test_segment_count_bounded(self, filter_result, medium_records):
        segments = filter_result.counters.get("fsjoin.map", "segments")
        total_possible = 6 * len(medium_records)
        assert 0 < segments <= total_possible

    def test_horizontal_adds_replicas(self, medium_records, cluster):
        config = FSJoinConfig(theta=0.7, n_vertical=6, n_horizontal=4)
        job = _build_job(medium_records, cluster, config)
        result = cluster.run_job(job, [(r.rid, r) for r in medium_records])
        if job.horizontal.n_pivots:  # pivots may collapse on tiny data
            assert result.counters.get("fsjoin.map", "horizontal_replicas") >= 0

    def test_empty_records_counted(self, cluster, medium_records):
        from repro.data.records import Record, RecordCollection

        records = RecordCollection(list(medium_records))
        records.add(Record.make(10_000, []))
        config = FSJoinConfig(theta=0.7, n_vertical=4)
        job = _build_job(records, cluster, config)
        result = cluster.run_job(job, [(r.rid, r) for r in records])
        assert result.counters.get("fsjoin.map", "empty_records") == 1


class TestPartitioning:
    def test_round_robin_fragments(self, medium_records, cluster):
        config = FSJoinConfig(theta=0.7, n_vertical=6)
        job = _build_job(medium_records, cluster, config)
        n_reduce = 6
        seen = {job.partition((0, v), n_reduce) for v in range(6)}
        assert seen == set(range(6))


class TestReducePhase:
    def test_emits_partial_counts(self, filter_result, medium_records):
        pairs = expand_stripes(filter_result.output)
        group = filter_result.counters.group("fsjoin.filter")
        assert group["stripes_emitted"] == len(filter_result.output)
        assert group["candidates_emitted"] == len(pairs) > len(filter_result.output)
        for owner, (rid_s, rid_t), (common, len_s, len_t) in pairs:
            assert rid_s < rid_t and owner in (rid_s, rid_t)
            assert common >= 1
            assert len_s == medium_records.get(rid_s).size
            assert len_t == medium_records.get(rid_t).size

    def test_counters_track_filtering(self, filter_result):
        group = filter_result.counters.group("fsjoin.filter")
        assert group.get("pairs_considered", 0) > 0
        assert group.get("candidates_emitted", 0) > 0

    def test_filters_reduce_candidates(self, medium_records, cluster):
        from repro.core.config import FilterConfig

        base = FSJoinConfig(theta=0.8, n_vertical=6, filters=FilterConfig.only())
        filtered = FSJoinConfig(theta=0.8, n_vertical=6)
        base_out = cluster.run_job(
            _build_job(medium_records, cluster, base),
            [(r.rid, r) for r in medium_records],
        )
        filtered_out = cluster.run_job(
            _build_job(medium_records, cluster, filtered),
            [(r.rid, r) for r in medium_records],
        )
        assert len(filtered_out.output) <= len(base_out.output)
