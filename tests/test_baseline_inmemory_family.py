"""Tests for the in-memory join family: AllPairs, PPJoin, PPJoin+."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.allpairs import allpairs
from repro.baselines.naive import naive_self_join
from repro.baselines.ppjoin import (
    JoinStats,
    encode_by_frequency,
    ppjoin,
    ppjoin_plus,
    suffix_hamming_lower_bound,
)
from repro.similarity.functions import SimilarityFunction
from tests.conftest import random_collection

sorted_arrays = st.lists(st.integers(0, 60), max_size=25, unique=True).map(
    lambda xs: tuple(sorted(xs))
)


class TestSuffixFilter:
    def test_identical_arrays(self):
        x = (1, 3, 5, 7)
        assert suffix_hamming_lower_bound(x, x, budget=10) == 0

    def test_disjoint_arrays(self):
        bound = suffix_hamming_lower_bound((1, 2), (8, 9), budget=10)
        assert 0 < bound <= 4

    def test_empty(self):
        assert suffix_hamming_lower_bound((), (1, 2), budget=5) == 2

    @given(sorted_arrays, sorted_arrays, st.integers(0, 40))
    def test_never_overestimates(self, x, y, budget):
        """The bound must stay below the true Hamming distance (safety)."""
        true_hamming = len(set(x) ^ set(y))
        assert suffix_hamming_lower_bound(x, y, budget) <= true_hamming

    @given(sorted_arrays, sorted_arrays, st.integers(0, 40))
    def test_symmetric_safety(self, x, y, budget):
        true_hamming = len(set(x) ^ set(y))
        assert suffix_hamming_lower_bound(y, x, budget) <= true_hamming


class TestAllPairs:
    def test_small_records(self, small_records):
        results = allpairs(encode_by_frequency(small_records), 0.6)
        assert set(results) == {(0, 1), (0, 2), (1, 2), (3, 4)}

    @pytest.mark.parametrize("theta", [0.5, 0.75, 0.9])
    @pytest.mark.parametrize("func", list(SimilarityFunction))
    def test_matches_oracle(self, theta, func):
        records = random_collection(60, seed=81)
        got = allpairs(encode_by_frequency(records), theta, func)
        want = naive_self_join(records, theta, func)
        assert set(got) == set(want)
        for pair, score in got.items():
            assert score == pytest.approx(want[pair])


class TestPPJoinPlus:
    @pytest.mark.parametrize("theta", [0.5, 0.75, 0.9])
    @pytest.mark.parametrize("func", list(SimilarityFunction))
    def test_matches_oracle(self, theta, func):
        records = random_collection(60, seed=82)
        encoded = encode_by_frequency(records)
        got = ppjoin_plus(encoded, theta, func)
        assert set(got) == set(naive_self_join(records, theta, func))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000), theta=st.sampled_from([0.6, 0.8, 0.9]))
    def test_random_collections(self, seed, theta):
        records = random_collection(40, seed=seed)
        encoded = encode_by_frequency(records)
        assert ppjoin_plus(encoded, theta) == ppjoin(encoded, theta)


class TestFilterLineage:
    """AllPairs → PPJoin → PPJoin+ : strictly fewer verifications."""

    def _stats(self, join_fn, records, theta):
        stats = JoinStats()
        encoded = encode_by_frequency(records)
        results = join_fn(encoded, theta, SimilarityFunction.JACCARD, stats=stats)
        return results, stats

    def test_verification_counts_ordered(self):
        records = random_collection(120, vocab=80, max_len=25, seed=83)
        theta = 0.8
        ap_results, ap = self._stats(allpairs, records, theta)
        pp_results, pp = self._stats(ppjoin, records, theta)
        plus_results, plus = self._stats(ppjoin_plus, records, theta)
        assert ap_results == pp_results == plus_results
        # Positional filtering cuts candidates; suffix filtering cuts
        # verifications further.
        assert pp.candidates <= ap.candidates
        assert plus.verifications <= pp.verifications
        assert plus.suffix_pruned >= 0
        assert plus.results == len(plus_results)

    def test_suffix_filter_actually_prunes(self):
        """On data with many near-miss pairs the suffix filter fires."""
        records = random_collection(
            150, vocab=60, max_len=20, dup_prob=0.5, mutation=0.4, seed=84
        )
        _, stats = self._stats(ppjoin_plus, records, 0.85)
        assert stats.suffix_pruned > 0
