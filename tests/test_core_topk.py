"""Tests for the top-k extension."""

from __future__ import annotations

import pytest

from repro.baselines.naive import naive_self_join
from repro.core import FSJoinConfig, topk_similar_pairs
from repro.errors import ConfigError
from tests.conftest import random_collection


def _oracle_topk(records, k, min_theta=0.1):
    scored = naive_self_join(records, min_theta)
    ranked = sorted(scored.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


class TestValidation:
    def test_bad_k(self, medium_records):
        with pytest.raises(ConfigError):
            topk_similar_pairs(medium_records, 0)

    def test_bad_theta_band(self, medium_records):
        with pytest.raises(ConfigError):
            topk_similar_pairs(medium_records, 1, start_theta=0.5, min_theta=0.8)

    def test_bad_shrink(self, medium_records):
        with pytest.raises(ConfigError):
            topk_similar_pairs(medium_records, 1, shrink=1.0)


class TestTopK:
    def test_matches_oracle(self, cluster):
        records = random_collection(50, seed=5)
        for k in (1, 5, 12):
            got = topk_similar_pairs(records, k, cluster=cluster)
            expected = _oracle_topk(records, k)
            assert [pair for pair, _ in got] == [pair for pair, _ in expected]
            for (_, got_score), (_, want_score) in zip(got, expected):
                assert got_score == pytest.approx(want_score)

    def test_sorted_descending(self, cluster):
        records = random_collection(50, seed=6)
        scores = [score for _, score in topk_similar_pairs(records, 8, cluster=cluster)]
        assert scores == sorted(scores, reverse=True)

    def test_fewer_results_than_k(self, cluster):
        """A collection with few close pairs returns what exists."""
        records = random_collection(15, vocab=300, dup_prob=0.0, seed=7)
        got = topk_similar_pairs(records, 50, cluster=cluster, min_theta=0.5)
        assert len(got) <= 50
        assert all(score >= 0.5 for _, score in got)

    def test_respects_template_config(self, cluster):
        records = random_collection(40, seed=8)
        template = FSJoinConfig(theta=0.5, n_vertical=3, n_horizontal=2)
        got = topk_similar_pairs(records, 5, cluster=cluster, config=template)
        expected = _oracle_topk(records, 5)
        assert [pair for pair, _ in got] == [pair for pair, _ in expected]

    def test_k_one_is_best_pair(self, cluster):
        records = random_collection(40, seed=9)
        ((pair, score),) = topk_similar_pairs(records, 1, cluster=cluster)
        (want_pair, want_score) = _oracle_topk(records, 1)[0]
        assert pair == want_pair
        assert score == pytest.approx(want_score)

