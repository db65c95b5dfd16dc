"""Tests for the approximate-join extension (MinHash + LSH)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx import (
    ApproxQuality,
    LSHJoin,
    MinHasher,
    evaluate_approximate,
    pick_bands,
)
from repro.baselines.naive import naive_self_join
from repro.data import make_corpus
from repro.errors import ConfigError
from repro.similarity.functions import jaccard


def estimate_jaccard(sig_a, sig_b) -> float:
    """The MinHash estimate: the fraction of agreeing signature positions."""
    return float((sig_a == sig_b).mean())


class TestMinHasher:
    def test_deterministic(self):
        a = MinHasher(64, seed=5).signature(["x", "y", "z"])
        b = MinHasher(64, seed=5).signature(["x", "y", "z"])
        assert (a == b).all()

    def test_seed_changes_signature(self):
        a = MinHasher(64, seed=5).signature(["x", "y"])
        b = MinHasher(64, seed=6).signature(["x", "y"])
        assert not (a == b).all()

    def test_signature_length(self):
        assert MinHasher(33).signature(["a"]).shape == (33,)

    def test_identical_sets_estimate_one(self):
        hasher = MinHasher(64)
        sig = hasher.signature(["a", "b", "c"])
        assert estimate_jaccard(sig, sig) == 1.0

    def test_disjoint_sets_estimate_near_zero(self):
        hasher = MinHasher(128, seed=3)
        a = hasher.signature([f"a{i}" for i in range(50)])
        b = hasher.signature([f"b{i}" for i in range(50)])
        assert estimate_jaccard(a, b) < 0.1

    def test_invalid_num_perm(self):
        with pytest.raises(ConfigError):
            MinHasher(0)

    @settings(max_examples=20, deadline=None)
    @given(overlap=st.integers(0, 40), extra=st.integers(1, 40), seed=st.integers(0, 50))
    def test_estimator_concentrates(self, overlap, extra, seed):
        """With 512 permutations the estimate lands within ±0.2 of truth."""
        a = [f"c{i}" for i in range(overlap)] + [f"a{i}" for i in range(extra)]
        b = [f"c{i}" for i in range(overlap)] + [f"b{i}" for i in range(extra)]
        hasher = MinHasher(512, seed=seed)
        estimate = estimate_jaccard(hasher.signature(a), hasher.signature(b))
        assert abs(estimate - jaccard(set(a), set(b))) < 0.2


class TestPickBands:
    def test_product_within_budget(self):
        for theta in (0.5, 0.7, 0.9):
            bands, rows = pick_bands(128, theta)
            assert bands * rows <= 128

    def test_inflection_near_theta(self):
        bands, rows = pick_bands(256, 0.8)
        inflection = (1.0 / bands) ** (1.0 / rows)
        assert abs(inflection - 0.8) < 0.1

    def test_higher_theta_more_rows(self):
        _, rows_low = pick_bands(128, 0.5)
        _, rows_high = pick_bands(128, 0.95)
        assert rows_high > rows_low

    def test_invalid_theta(self):
        with pytest.raises(ConfigError):
            pick_bands(128, 0.0)


class TestLSHJoin:
    @pytest.fixture(scope="class")
    def corpus(self):
        return make_corpus("wiki", 250, seed=5, mutation_rate=0.05)

    @pytest.fixture(scope="class")
    def truth(self, corpus):
        return naive_self_join(corpus, 0.8)

    def test_verified_mode_precision_one(self, corpus, truth):
        approx = LSHJoin(0.8, num_perm=128, seed=2).run(corpus)
        quality = evaluate_approximate(approx, truth)
        assert quality.precision == 1.0
        for pair, score in approx.items():
            assert score == pytest.approx(truth[pair])

    def test_recall_reasonable(self, corpus, truth):
        approx = LSHJoin(0.8, num_perm=128, seed=2).run(corpus)
        assert evaluate_approximate(approx, truth).recall > 0.7

    def test_candidates_superset_of_verified(self, corpus):
        join = LSHJoin(0.8, num_perm=64, seed=2)
        candidates = join.candidate_pairs(corpus)
        assert set(join.run(corpus)) <= candidates

    def test_explicit_bands_rows(self, corpus):
        join = LSHJoin(0.8, num_perm=64, bands=16, rows=4)
        join.run(corpus)  # must not raise

    def test_band_config_validation(self):
        with pytest.raises(ConfigError):
            LSHJoin(0.8, num_perm=16, bands=8, rows=None)
        with pytest.raises(ConfigError):
            LSHJoin(0.8, num_perm=16, bands=8, rows=4)  # 32 > 16

    def test_pairs_ordered(self, corpus):
        approx = LSHJoin(0.8, num_perm=32, seed=1).run(corpus)
        assert all(rid_a < rid_b for rid_a, rid_b in approx)

    def test_empty_records_never_candidates(self):
        """Empty records share the sentinel signature but must not pair."""
        from repro.data.records import Record, RecordCollection

        records = RecordCollection(
            [Record.make(0, []), Record.make(1, []), Record.make(2, ["a", "b"])]
        )
        join = LSHJoin(0.5, num_perm=16, seed=0)
        assert join.candidate_pairs(records) == set()
        assert join.run(records) == {}


class TestEvaluateApproximate:
    def test_perfect(self):
        quality = evaluate_approximate([(1, 2)], [(1, 2)])
        assert quality.recall == quality.precision == quality.f1 == 1.0

    def test_miss(self):
        quality = evaluate_approximate([], [(1, 2)])
        assert quality.recall == 0.0
        assert quality.precision == 1.0  # nothing wrongly reported

    def test_false_positive(self):
        quality = evaluate_approximate([(1, 2), (3, 4)], [(1, 2)])
        assert quality.precision == 0.5
        assert quality.recall == 1.0

    def test_empty_truth(self):
        assert evaluate_approximate([], []).f1 == 2 * 1 * 1 / 2

    def test_as_row(self):
        row = evaluate_approximate([(1, 2)], [(1, 2), (3, 4)]).as_row()
        assert row["recall"] == 0.5
        assert isinstance(row["f1"], float)
