"""Tests for the in-memory PPJoin kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_self_join
from repro.baselines.ppjoin import encode_by_frequency, ppjoin, ppjoin_self_join
from repro.data.records import RecordCollection
from repro.similarity.functions import SimilarityFunction
from tests.conftest import random_collection, records_of


class TestEncodeByFrequency:
    def test_rarest_first(self):
        records = records_of(
            [["common", "rare"], ["common"], ["common", "mid"], ["mid"]]
        )
        encoded = dict(encode_by_frequency(records))
        # "rare" (freq 1) must precede "mid" (2) must precede "common" (3).
        assert encoded[0][0] < encoded[2][-1]
        ranks = {tok: rank for rank, tok in enumerate(["rare", "mid", "common"])}
        assert encoded[0] == (ranks["rare"], ranks["common"])

    def test_strictly_increasing(self, medium_records):
        for _, ranks in encode_by_frequency(medium_records):
            assert all(a < b for a, b in zip(ranks, ranks[1:]))


class TestPPJoinKnown:
    def test_small_records(self, small_records):
        results = ppjoin_self_join(small_records, 0.6)
        assert set(results) == {(0, 1), (0, 2), (1, 2), (3, 4)}
        assert results[(0, 2)] == pytest.approx(1.0)

    def test_empty_collection(self):
        assert ppjoin_self_join(RecordCollection(), 0.8) == {}

    def test_empty_records_ignored(self):
        records = records_of([[], ["a"], ["a"]])
        assert set(ppjoin_self_join(records, 0.5)) == {(1, 2)}

    def test_threshold_one(self, small_records):
        assert set(ppjoin_self_join(small_records, 1.0)) == {(0, 2)}


class TestPPJoinOracleEquivalence:
    @pytest.mark.parametrize("theta", [0.5, 0.7, 0.85, 0.95])
    @pytest.mark.parametrize("func", list(SimilarityFunction))
    def test_matches_naive(self, theta, func):
        records = random_collection(70, seed=13)
        oracle = naive_self_join(records, theta, func)
        results = ppjoin_self_join(records, theta, func)
        assert set(results) == set(oracle)
        for pair, score in results.items():
            assert score == pytest.approx(oracle[pair])

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        theta=st.sampled_from([0.6, 0.8, 0.9]),
        func=st.sampled_from(list(SimilarityFunction)),
    )
    def test_random_collections(self, seed, theta, func):
        records = random_collection(40, seed=seed)
        assert set(ppjoin_self_join(records, theta, func)) == set(
            naive_self_join(records, theta, func)
        )


class TestPositionalFilterEffectiveness:
    def test_probes_fewer_than_all_pairs(self):
        """The prefix index must avoid touching clearly-dissimilar pairs."""
        records = random_collection(80, vocab=400, max_len=20, dup_prob=0.0, seed=3)
        encoded = encode_by_frequency(records)
        # With a large vocabulary and no duplicates, a high threshold should
        # yield zero results without error.
        assert ppjoin(encoded, 0.95) == {}
