"""Tests for the analysis helpers (load balance, duplication, reports, explain)."""

from __future__ import annotations

import pytest

from repro.analysis.duplication import duplication_report
from repro.analysis.explain import explain
from repro.analysis.loadbalance import load_balance_report, summarize_loads
from repro.analysis.report import format_table
from repro.core import FSJoin, FSJoinConfig


class TestSummarizeLoads:
    def test_empty(self):
        report = summarize_loads([])
        assert report.n_tasks == 0
        assert report.cv == 0.0
        assert report.max_over_mean == 1.0

    def test_uniform_loads(self):
        report = summarize_loads([100, 100, 100])
        assert report.cv == 0.0
        assert report.max_over_mean == pytest.approx(1.0)
        assert report.total_bytes == 300

    def test_skewed_loads(self):
        report = summarize_loads([1000, 1, 1, 1])
        assert report.cv > 1.0
        assert report.max_over_mean > 3.0
        assert report.max_bytes == 1000
        assert report.min_bytes == 1

    def test_zero_loads(self):
        report = summarize_loads([0, 0])
        assert report.cv == 0.0

    def test_as_row(self):
        row = summarize_loads([10, 20]).as_row()
        assert set(row) == {"tasks", "total_mb", "cv", "max_over_mean"}


class TestReportsFromJobs:
    def test_load_balance_from_fsjoin(self, medium_records, cluster):
        result = FSJoin(FSJoinConfig(theta=0.7, n_vertical=8), cluster).run(
            medium_records
        )
        report = load_balance_report(result.job_results[1].metrics)
        assert report.n_tasks == cluster.spec.default_reduce_tasks
        assert report.total_bytes > 0

    def test_duplication_from_fsjoin(self, medium_records, cluster):
        result = FSJoin(FSJoinConfig(theta=0.7, n_vertical=8), cluster).run(
            medium_records
        )
        report = duplication_report(result.job_results[1].metrics)
        # Vertical partitioning: one segment record per (record, partition)
        # touched, but zero payload replication beyond segInfo overhead.
        assert report.record_factor >= 1.0
        assert report.shuffle_bytes > 0
        assert set(report.as_row()) == {"record_factor", "byte_factor", "shuffle_mb"}


class TestFormatTable:
    def test_empty(self):
        assert "(no rows)" in format_table([])

    def test_title_and_header(self):
        text = format_table([{"a": 1, "b": "x"}], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].split() == ["a", "b"]

    def test_alignment(self):
        text = format_table([{"col": 1}, {"col": 100}])
        lines = text.splitlines()
        assert len(lines[1]) == len(lines[2])

    def test_explicit_columns(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b", "a"])
        assert text.splitlines()[0].split() == ["b", "a"]

    def test_missing_cells(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "3" in text

    def test_float_formatting(self):
        assert "0.1235" in format_table([{"x": 0.123456}])


class TestExplain:
    def test_report_contents(self, medium_records, cluster):
        result = FSJoin(FSJoinConfig(theta=0.7, n_vertical=6), cluster).run(
            medium_records
        )
        text = explain(result, cluster.spec)
        assert "FS-Join-V" in text
        assert "fsjoin-filter" in text
        assert "pairs considered" in text
        counters = result.counters().group("fsjoin.filter")
        assert (
            f"{counters['candidates_emitted']} candidate pairs in "
            f"{counters['stripes_emitted']} stripes"
        ) in text
        assert "verification:" in text
        assert "result pairs" in text

    def test_report_on_baseline(self, medium_records, cluster):
        """Non-FS-Join pipelines render without the filter sections."""
        from repro.baselines import RIDPairsPPJoin

        result = RIDPairsPPJoin(0.7, cluster=cluster).run(medium_records)
        text = explain(result, cluster.spec)
        assert "RIDPairsPPJoin" in text
        assert "pairs considered" not in text
