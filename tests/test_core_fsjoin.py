"""End-to-end tests for the FS-Join driver."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FSJoin, FSJoinConfig, JoinMethod, PivotMethod
from repro.core.config import FilterConfig
from repro.baselines.naive import naive_self_join
from repro.errors import ConfigError
from repro.similarity.functions import SimilarityFunction
from tests.conftest import random_collection, records_of


class TestConfigValidation:
    @pytest.mark.parametrize("theta", [0.0, -0.5, 1.2])
    def test_bad_theta(self, theta):
        with pytest.raises(ConfigError):
            FSJoinConfig(theta=theta)

    def test_bad_vertical(self):
        with pytest.raises(ConfigError):
            FSJoinConfig(theta=0.8, n_vertical=0)

    def test_bad_horizontal(self):
        with pytest.raises(ConfigError):
            FSJoinConfig(theta=0.8, n_horizontal=0)

    def test_string_coercion(self):
        config = FSJoinConfig(theta=0.8, func="dice", join_method="loop",
                              pivot_method="random")
        assert config.func is SimilarityFunction.DICE
        assert config.join_method is JoinMethod.LOOP
        assert config.pivot_method is PivotMethod.RANDOM

    def test_algorithm_name_variants(self):
        assert FSJoin(FSJoinConfig(theta=0.8)).algorithm_name == "FS-Join-V"
        assert (
            FSJoin(FSJoinConfig(theta=0.8, n_horizontal=5)).algorithm_name
            == "FS-Join"
        )


class TestKnownResults:
    def test_small_records(self, small_records, cluster):
        result = FSJoin(FSJoinConfig(theta=0.6, n_vertical=3), cluster).run(
            small_records
        )
        assert result.result_pairs == {
            (0, 1): pytest.approx(4 / 6),
            (0, 2): pytest.approx(1.0),
            (1, 2): pytest.approx(4 / 6),
            (3, 4): pytest.approx(3 / 4),
        }

    def test_theta_one_exact_duplicates_only(self, small_records, cluster):
        result = FSJoin(FSJoinConfig(theta=1.0, n_vertical=3), cluster).run(
            small_records
        )
        assert result.result_set() == {(0, 2)}

    def test_paper_records(self, paper_records, cluster):
        """Fig 2 data: no pair reaches 0.8 (max overlap 3 of 5+5 tokens)."""
        result = FSJoin(FSJoinConfig(theta=0.8, n_vertical=4), cluster).run(
            paper_records
        )
        assert result.result_set() == frozenset()

    def test_scores_match_oracle(self, medium_records, cluster):
        theta = 0.6
        result = FSJoin(FSJoinConfig(theta=theta, n_vertical=5), cluster).run(
            medium_records
        )
        oracle = naive_self_join(medium_records, theta)
        assert result.result_set() == frozenset(oracle)
        for pair, score in result.result_pairs.items():
            assert score == pytest.approx(oracle[pair])


class TestConfigMatrix:
    @pytest.mark.parametrize("join_method", list(JoinMethod))
    @pytest.mark.parametrize("pivot_method", list(PivotMethod))
    def test_methods_agree_with_oracle(self, join_method, pivot_method, cluster):
        records = random_collection(60, seed=23)
        theta = 0.7
        oracle = frozenset(naive_self_join(records, theta))
        config = FSJoinConfig(
            theta=theta, n_vertical=5,
            join_method=join_method, pivot_method=pivot_method,
        )
        assert FSJoin(config, cluster).run(records).result_set() == oracle

    @pytest.mark.parametrize("func", list(SimilarityFunction))
    @pytest.mark.parametrize("theta", [0.5, 0.8, 0.95])
    def test_functions_and_thresholds(self, func, theta, cluster):
        records = random_collection(50, seed=31)
        oracle = frozenset(naive_self_join(records, theta, func))
        config = FSJoinConfig(theta=theta, func=func, n_vertical=4)
        assert FSJoin(config, cluster).run(records).result_set() == oracle

    @pytest.mark.parametrize("n_vertical", [1, 2, 7, 30])
    def test_vertical_partition_counts(self, n_vertical, cluster):
        records = random_collection(40, seed=5)
        oracle = frozenset(naive_self_join(records, 0.7))
        config = FSJoinConfig(theta=0.7, n_vertical=n_vertical)
        assert FSJoin(config, cluster).run(records).result_set() == oracle

    @pytest.mark.parametrize("n_horizontal", [1, 2, 5, 10])
    def test_horizontal_partition_counts(self, n_horizontal, cluster):
        records = random_collection(60, max_len=30, seed=17)
        oracle = frozenset(naive_self_join(records, 0.75))
        config = FSJoinConfig(theta=0.75, n_vertical=4, n_horizontal=n_horizontal)
        assert FSJoin(config, cluster).run(records).result_set() == oracle

    @pytest.mark.parametrize(
        "filters",
        [
            FilterConfig.only(),
            FilterConfig.only("strl"),
            FilterConfig.only("strl", "segl"),
            FilterConfig.only("strl", "segi"),
            FilterConfig.only("strl", "segd"),
            FilterConfig(),
        ],
        ids=["none", "strl", "strl+segl", "strl+segi", "strl+segd", "all"],
    )
    def test_filter_combinations_preserve_results(self, filters, cluster):
        """Table IV's combinations all produce the exact result set."""
        records = random_collection(50, seed=41)
        oracle = frozenset(naive_self_join(records, 0.8))
        config = FSJoinConfig(theta=0.8, n_vertical=4, filters=filters)
        assert FSJoin(config, cluster).run(records).result_set() == oracle


class TestPropertyBased:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        theta=st.sampled_from([0.6, 0.8, 0.9]),
        n_vertical=st.integers(1, 9),
        n_horizontal=st.integers(1, 5),
    )
    def test_random_configs_match_oracle(self, seed, theta, n_vertical, n_horizontal):
        records = random_collection(35, seed=seed)
        oracle = frozenset(naive_self_join(records, theta))
        config = FSJoinConfig(
            theta=theta, n_vertical=n_vertical, n_horizontal=n_horizontal
        )
        assert FSJoin(config).run(records).result_set() == oracle


class TestEdgeCases:
    def test_empty_collection(self, cluster):
        from repro.data.records import RecordCollection

        result = FSJoin(FSJoinConfig(theta=0.8), cluster).run(RecordCollection())
        assert result.pairs == []

    def test_single_record(self, cluster):
        from repro.data.records import RecordCollection

        records = records_of([["a", "b"]])
        result = FSJoin(FSJoinConfig(theta=0.5), cluster).run(records)
        assert result.pairs == []

    def test_all_identical_records(self, cluster):
        from repro.data.records import RecordCollection

        records = records_of([["a", "b", "c"]] * 5)
        result = FSJoin(FSJoinConfig(theta=1.0, n_vertical=2), cluster).run(records)
        assert len(result.pairs) == 10  # C(5, 2)
        assert all(score == pytest.approx(1.0) for score in result.result_pairs.values())

    def test_records_with_empty_token_sets(self, cluster):
        from repro.data.records import Record, RecordCollection

        records = RecordCollection(
            [Record.make(0, []), Record.make(1, ["a"]), Record.make(2, ["a"])]
        )
        result = FSJoin(FSJoinConfig(theta=0.5), cluster).run(records)
        assert result.result_set() == {(1, 2)}

    def test_more_partitions_than_tokens(self, cluster):
        from repro.data.records import RecordCollection

        records = records_of([["a", "b"], ["a", "b"]])
        config = FSJoinConfig(theta=0.9, n_vertical=50)
        assert FSJoin(config, cluster).run(records).result_set() == {(0, 1)}
