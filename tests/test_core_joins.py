"""Tests for the per-fragment join algorithms."""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FilterConfig, JoinMethod
from repro.core.joins import join_fragment
from repro.core.partitioning import VerticalPartitioner
from repro.similarity.functions import SimilarityFunction
from repro.similarity.verify import bounded_merge_intersection
from tests.conftest import expand_stripes

sorted_ranks = st.lists(st.integers(0, 40), min_size=1, max_size=15, unique=True).map(
    lambda xs: tuple(sorted(xs))
)


def _fragment_from(rank_lists, cuts=()):
    """Build one fragment (partition 0) from whole-record rank lists."""
    partitioner = VerticalPartitioner(cuts)
    segments = []
    for rid, ranks in enumerate(rank_lists):
        for partition, segment in partitioner.split(rid, ranks):
            if partition == 0:
                segments.append(segment)
    return segments


def _run(segments, method, theta=0.5, filters=None, pivot=None, context=None):
    """The fragment's stripes, expanded: ``(rid_s, rid_t) → (common, len_s, len_t)``."""
    emitted: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
    stripes = join_fragment(
        segments,
        method=method,
        theta=theta,
        func=SimilarityFunction.JACCARD,
        filter_config=filters or FilterConfig.only(),
        context=context,
        pivot=pivot,
    )
    owners = [owner for owner, _ in stripes]
    assert len(set(owners)) == len(owners), "one stripe per probing segment"
    for _owner, key, payload in expand_stripes(stripes):
        assert key not in emitted, f"pair {key} emitted twice in one fragment"
        emitted[key] = payload
    return emitted


class TestMergeIntersection:
    """The one merge loop with its default bound (1) is the exact merge."""

    def test_basic(self):
        assert bounded_merge_intersection((1, 3, 5), (3, 4, 5))[0] == 2

    def test_empty(self):
        assert bounded_merge_intersection((), (1, 2)) == (0, 0, True)

    @given(sorted_ranks, sorted_ranks)
    def test_matches_sets(self, a, b):
        count, _, completed = bounded_merge_intersection(a, b)
        assert (count, completed) == (len(set(a) & set(b)), True)


class TestLoopJoin:
    def test_counts_exact(self):
        segments = _fragment_from([(1, 2, 3), (2, 3, 4), (9, 10)])
        emitted = _run(segments, JoinMethod.LOOP)
        assert emitted[(0, 1)][0] == 2
        assert (0, 2) not in emitted  # disjoint pair not emitted
        assert (1, 2) not in emitted

    def test_keys_ordered(self):
        segments = _fragment_from([(5, 6), (5, 6)])
        emitted = _run(segments, JoinMethod.LOOP)
        assert list(emitted) == [(0, 1)]

    def test_lengths_attached(self):
        segments = _fragment_from([(1, 2, 3, 4), (1, 2)])
        emitted = _run(segments, JoinMethod.LOOP, theta=0.1)
        common, len_s, len_t = emitted[(0, 1)]
        assert (common, len_s, len_t) == (2, 4, 2)

    def test_pair_allowed_gate(self):
        """A boundary partition's pivot admits only the pairs straddling it."""
        segments = _fragment_from([(1, 2), (1, 2), (1, 2, 3)])
        assert set(_run(segments, JoinMethod.LOOP)) == {(0, 1), (0, 2), (1, 2)}
        assert set(_run(segments, JoinMethod.LOOP, pivot=3)) == {(0, 2), (1, 2)}
        assert _run(segments, JoinMethod.LOOP, pivot=2) == {}


class TestIndexJoin:
    def test_counts_exact(self):
        segments = _fragment_from([(1, 2, 3), (2, 3, 4), (3, 4, 5)])
        emitted = _run(segments, JoinMethod.INDEX)
        assert emitted[(0, 1)][0] == 2
        assert emitted[(1, 2)][0] == 2
        assert emitted[(0, 2)][0] == 1

    def test_no_self_pairs(self):
        segments = _fragment_from([(1, 2), (3, 4)])
        emitted = _run(segments, JoinMethod.INDEX)
        assert emitted == {}


class TestPrefixJoin:
    def test_finds_sharing_pairs(self):
        segments = _fragment_from([(1, 2, 3, 4), (1, 2, 3, 5)])
        emitted = _run(segments, JoinMethod.PREFIX, theta=0.6)
        assert emitted[(0, 1)][0] == 3

    def test_prefix_skips_some_disjoint_prefix_pairs(self):
        """Pairs that share only high-frequency tokens may be skipped —
        that is the point of the prefix filter (they are provably
        dissimilar at this θ)."""
        # size 10 each, θ=0.9 → prefix length 10 − 9 + 1 = 2.
        a = tuple(range(0, 10))
        b = (0, 1) + tuple(range(20, 28))  # shares the prefix
        c = tuple(range(8, 18))  # shares only a's suffix tokens 8, 9
        segments = _fragment_from([a, b, c])
        emitted = _run(segments, JoinMethod.PREFIX, theta=0.9)
        assert (0, 1) in emitted
        assert (0, 2) not in emitted


class TestMethodEquivalence:
    """Loop and index joins are exactly equivalent; prefix may drop only
    provably-dissimilar pairs."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(sorted_ranks, min_size=2, max_size=10),
        st.sampled_from([0.5, 0.7, 0.9]),
    )
    def test_loop_equals_index(self, rank_lists, theta):
        segments = _fragment_from(rank_lists)
        loop = _run(segments, JoinMethod.LOOP, theta)
        index = _run(segments, JoinMethod.INDEX, theta)
        assert loop == index

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(sorted_ranks, min_size=2, max_size=10),
        st.sampled_from([0.5, 0.7, 0.9]),
    )
    def test_prefix_subset_of_index_with_exact_counts(self, rank_lists, theta):
        segments = _fragment_from(rank_lists)
        index = _run(segments, JoinMethod.INDEX, theta)
        prefix = _run(segments, JoinMethod.PREFIX, theta)
        assert set(prefix) <= set(index)
        for pair, payload in prefix.items():
            assert payload == index[pair]

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(sorted_ranks, min_size=2, max_size=8),
        st.sampled_from([0.5, 0.7, 0.9]),
    )
    def test_filters_only_remove_pairs(self, rank_lists, theta):
        segments = _fragment_from(rank_lists)
        unfiltered = _run(segments, JoinMethod.LOOP, theta, FilterConfig.only())
        filtered = _run(segments, JoinMethod.LOOP, theta, FilterConfig())
        assert set(filtered) <= set(unfiltered)
        for pair, payload in filtered.items():
            assert payload == unfiltered[pair]


class TestWithVerticalCuts:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(sorted_ranks, min_size=2, max_size=8),
        st.lists(st.integers(1, 40), max_size=4, unique=True).map(
            lambda xs: tuple(sorted(xs))
        ),
    )
    def test_fragment_counts_sum_to_intersection(self, rank_lists, cuts):
        """Σ over fragments of partial counts == |s ∩ t| (no filters)."""
        partitioner = VerticalPartitioner(cuts)
        by_partition: Dict[int, List] = {}
        for rid, ranks in enumerate(rank_lists):
            for partition, segment in partitioner.split(rid, ranks):
                by_partition.setdefault(partition, []).append(segment)
        totals: Dict[Tuple[int, int], int] = {}
        for segments in by_partition.values():
            emitted = _run(segments, JoinMethod.INDEX, theta=0.5)
            for pair, (common, _, _) in emitted.items():
                totals[pair] = totals.get(pair, 0) + common
        for i, ranks_a in enumerate(rank_lists):
            for j in range(i + 1, len(rank_lists)):
                expected = len(set(ranks_a) & set(rank_lists[j]))
                if expected:
                    assert totals.get((i, j), 0) == expected


class TestBoundedMerge:
    _bmi = staticmethod(bounded_merge_intersection)

    def test_exact_when_bound_reachable(self):
        count, comparisons, completed = self._bmi((1, 3, 5), (3, 4, 5), 2)
        assert (count, completed) == (2, True)
        assert comparisons > 0

    def test_abandons_unreachable_bound(self):
        count, _, completed = self._bmi((1, 2, 3), (4, 5, 6), 3)
        assert completed is False
        assert count < 3

    def test_required_one_never_aborts(self):
        count, _, completed = self._bmi((1, 2), (3, 4), 1)
        assert (count, completed) == (0, True)

    @given(sorted_ranks, sorted_ranks, st.integers(0, 6))
    def test_matches_full_merge_or_provably_below(self, a, b, required):
        count, _, completed = self._bmi(a, b, required)
        exact = len(set(a) & set(b))
        if completed:
            assert count == exact
        else:
            assert exact < required


class TestEarlyTerminationInFragments:
    """early_verify saves token comparisons without changing emissions."""

    def _run_counted(self, segments, method, theta, early):
        from repro.mapreduce.counters import Counters
        from repro.mapreduce.job import JobContext

        counters = Counters()
        emitted = _run(
            segments, method, theta, FilterConfig(early_verify=early),
            context=JobContext(0, "reduce", counters),
        )
        return emitted, counters.get("fsjoin.filter", "verify_token_comparisons")

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(sorted_ranks, min_size=2, max_size=10),
        st.sampled_from([0.5, 0.7, 0.9]),
        st.sampled_from([JoinMethod.LOOP, JoinMethod.PREFIX]),
    )
    def test_same_emissions_never_more_comparisons(self, rank_lists, theta, method):
        segments = _fragment_from(rank_lists)
        with_bound, fast = self._run_counted(segments, method, theta, early=True)
        without, full = self._run_counted(segments, method, theta, early=False)
        assert with_bound == without
        assert fast <= full

    def test_savings_on_skewed_fragment(self):
        """Long segments sharing only a hot suffix: the bound must fire."""
        base = tuple(range(50, 80))
        rank_lists = [(rid,) + base[rid % 5 :] for rid in range(12)]
        segments = _fragment_from(rank_lists)
        with_bound, fast = self._run_counted(segments, JoinMethod.LOOP, 0.9, True)
        without, full = self._run_counted(segments, JoinMethod.LOOP, 0.9, False)
        assert with_bound == without
        assert fast < full
