"""Tests for exact pair verification."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.similarity.functions import SimilarityFunction, jaccard
from repro.similarity.verify import (
    bounded_merge_intersection,
    intersection_size,
    verify_pair,
)
from repro.similarity.thresholds import threshold_rule


def verify_overlap(func, theta, common, size_s, size_t):
    """Section V-B's verdict on a known overlap: the score if ``sim ≥ θ``."""
    return threshold_rule(func, theta).verdict(common, size_s, size_t)

sorted_lists = st.lists(
    st.integers(0, 60), max_size=25, unique=True
).map(sorted)

thetas = st.sampled_from((0.1, 0.3, 0.5, 0.72, 0.8, 0.9, 1.0))
functions = st.sampled_from(list(SimilarityFunction))


class TestIntersectionSize:
    def test_hash_path(self):
        assert intersection_size(["a", "b", "c"], ["b", "c", "d"]) == 2

    def test_sorted_path(self):
        assert intersection_size([1, 3, 5, 7], [3, 4, 5, 6], sorted_input=True) == 2

    def test_empty(self):
        assert intersection_size([], [1, 2], sorted_input=True) == 0

    def test_identical_sorted(self):
        assert intersection_size([1, 2, 3], [1, 2, 3], sorted_input=True) == 3

    def test_disjoint_sorted(self):
        assert intersection_size([1, 2], [3, 4], sorted_input=True) == 0

    @given(sorted_lists, sorted_lists)
    def test_sorted_matches_hash(self, a, b):
        assert intersection_size(a, b, sorted_input=True) == intersection_size(a, b)

    @given(sorted_lists, sorted_lists)
    def test_symmetric(self, a, b):
        assert intersection_size(a, b, sorted_input=True) == intersection_size(
            b, a, sorted_input=True
        )


class TestVerifyPair:
    def test_accepts_similar(self):
        score = verify_pair(["a", "b", "c", "d"], ["a", "b", "c", "e"], 0.5)
        assert score == pytest.approx(3 / 5)

    def test_rejects_dissimilar(self):
        assert verify_pair(["a", "b"], ["c", "d"], 0.5) is None

    def test_boundary_accepted(self):
        assert verify_pair(["a", "b"], ["a", "b"], 1.0) == pytest.approx(1.0)

    def test_dice_function(self):
        score = verify_pair(
            ["a", "b", "c"], ["b", "c", "d"], 0.6, func=SimilarityFunction.DICE
        )
        assert score == pytest.approx(2 / 3)

    @given(sorted_lists, sorted_lists)
    def test_agrees_with_jaccard(self, a, b):
        score = verify_pair(a, b, 0.5, sorted_input=True)
        direct = jaccard(set(a), set(b))
        if direct >= 0.5:
            assert score == pytest.approx(direct)
        else:
            assert score is None


class TestEarlyTermination:
    """The bounded merge must be observationally identical to the naive one."""

    def test_bounded_merge_stops_early(self):
        # required=3 but at most 1 token can match: partial count returned.
        assert intersection_size([1, 2, 3], [3, 4, 5], sorted_input=True, required=3) < 3

    def test_bound_of_one_is_exact(self):
        assert intersection_size([1, 2, 3], [2, 3, 4], sorted_input=True, required=1) == 2

    def test_reachable_bound_keeps_exact_count(self):
        assert intersection_size([1, 2, 3], [1, 2, 3], sorted_input=True, required=3) == 3

    @given(sorted_lists, sorted_lists, thetas, functions)
    def test_verify_pair_matches_naive_full_merge(self, a, b, theta, func):
        """Property (all similarity functions): early-terminating
        verify_pair agrees exactly with the full-merge verifier."""
        fast = verify_pair(a, b, theta, func, sorted_input=True)
        naive = verify_pair(
            a, b, theta, func, sorted_input=True, early_termination=False
        )
        assert fast == naive

    @given(sorted_lists, sorted_lists, thetas, functions)
    def test_bounded_count_only_diverges_below_required(self, a, b, theta, func):
        """When the bounded merge returns a different count than the exact
        merge, both must be threshold failures (the abandoned pair was
        provably dissimilar)."""
        from repro.similarity.thresholds import required_overlap

        required = required_overlap(func, theta, len(a), len(b))
        bounded = intersection_size(a, b, sorted_input=True, required=required)
        exact = intersection_size(a, b, sorted_input=True)
        if bounded != exact:
            assert bounded < required
            assert exact < required
            assert verify_overlap(func, theta, exact, len(a), len(b)) is None


class TestMergeStartOffsets:
    """The start offsets are a slice, not a new algorithm."""

    @given(sorted_lists, sorted_lists, st.data())
    def test_offsets_are_slices(self, a, b, data):
        required = data.draw(st.integers(0, max(len(a), len(b)) + 1))
        i = data.draw(st.integers(0, len(a)))
        j = data.draw(st.integers(0, len(b)))
        assert bounded_merge_intersection(
            a, b, required, i, j
        ) == bounded_merge_intersection(a[i:], b[j:], required)

    @pytest.mark.parametrize("i,j", [(4, 0), (0, 4), (3, 3), (9, 9)])
    def test_offsets_past_the_end_are_empty_inputs(self, i, j):
        empty = bounded_merge_intersection([], [1, 2, 3], 2)
        assert empty == (0, 0, True)
        assert bounded_merge_intersection([1, 2, 3], [1, 2, 3], 2, i, j) == empty


class TestVerifyOverlap:
    def test_passing_overlap_scored(self):
        assert verify_overlap(SimilarityFunction.JACCARD, 0.5, 3, 4, 4) == pytest.approx(3 / 5)

    def test_failing_overlap_none(self):
        assert verify_overlap(SimilarityFunction.JACCARD, 0.9, 1, 4, 4) is None

    def test_zero_overlap_none(self):
        assert verify_overlap(SimilarityFunction.DICE, 0.1, 0, 4, 4) is None
