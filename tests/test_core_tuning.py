"""Tests for the Lemma-5-based configuration tuner and explain reports."""

from __future__ import annotations

import math

import pytest

from repro.analysis.explain import explain
from repro.core import FSJoin, FSJoinConfig
from repro.core.tuning import (
    expected_segments_per_record,
    suggest_config,
    suggest_n_vertical,
)
from repro.data import make_corpus
from repro.errors import ConfigError
from tests.conftest import random_collection


class TestExpectedSegments:
    def test_zero_length(self):
        assert expected_segments_per_record(0, 10) == 0.0

    def test_single_partition(self):
        assert expected_segments_per_record(50, 1) == pytest.approx(1.0)

    def test_short_record_occupies_its_tokens(self):
        # L << N: each token almost surely lands in its own partition.
        assert expected_segments_per_record(3, 1000) == pytest.approx(3.0, rel=0.01)

    def test_long_record_occupies_all(self):
        # L >> N: every partition occupied.
        assert expected_segments_per_record(10_000, 5) == pytest.approx(5.0)

    def test_monotone_in_length(self):
        values = [expected_segments_per_record(L, 20) for L in (1, 5, 20, 100)]
        assert values == sorted(values)

    def test_bounded(self):
        for length in (1, 10, 100):
            for n in (1, 10, 100):
                value = expected_segments_per_record(length, n)
                assert 0 < value <= min(length, n) + 1e-9


class TestSuggest:
    def test_needs_records(self):
        from repro.data.records import RecordCollection

        with pytest.raises(ConfigError):
            suggest_n_vertical(RecordCollection(), 0.8)

    def test_pick_comes_from_grid(self):
        records = random_collection(60, seed=7)
        report = suggest_n_vertical(records, 0.8, candidates=(5, 10, 20))
        assert report.n_vertical in (5, 10, 20)
        assert len(report.grid) == 3
        assert report.n_vertical == min(report.grid, key=lambda g: g[1])[0]

    def test_deterministic(self):
        records = random_collection(60, seed=7)
        a = suggest_n_vertical(records, 0.8, seed=3)
        b = suggest_n_vertical(records, 0.8, seed=3)
        assert a == b

    def test_costs_finite_positive(self):
        records = make_corpus("wiki", 120, seed=3)
        report = suggest_n_vertical(records, 0.8)
        for _, cost in report.grid:
            assert math.isfinite(cost) and cost > 0

    def test_suggest_config_runs_correctly(self, cluster):
        """The tuned config must (of course) produce exact results."""
        from repro.baselines.naive import naive_self_join

        records = random_collection(50, seed=8)
        config = suggest_config(records, 0.8)
        result = FSJoin(config, cluster).run(records)
        assert result.result_set() == frozenset(naive_self_join(records, 0.8))

    def test_as_rows(self):
        records = random_collection(30, seed=9)
        rows = suggest_n_vertical(records, 0.8, candidates=(5, 10)).as_rows()
        assert [row["n_vertical"] for row in rows] == [5, 10]


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
