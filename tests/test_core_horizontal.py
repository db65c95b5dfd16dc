"""Tests for horizontal (length-based) partitioning."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.horizontal import HorizontalPlan, build_horizontal_plan
from repro.errors import ConfigError
from repro.similarity.functions import SimilarityFunction
from repro.similarity.thresholds import length_lower_bound, length_upper_bound

length_lists = st.lists(st.integers(1, 300), min_size=2, max_size=120)
thetas = st.sampled_from([0.6, 0.7, 0.8, 0.9])
funcs = st.sampled_from(list(SimilarityFunction))


class TestPlanStructure:
    def test_trivial_plan(self):
        plan = build_horizontal_plan([5, 5, 5], 1, 0.8, SimilarityFunction.JACCARD)
        assert plan.n_pivots == 0
        assert plan.partitions_of(5) == [0]

    def test_partition_counts(self):
        plan = HorizontalPlan((10, 50), 0.8, SimilarityFunction.JACCARD)
        assert plan.n_pivots == 2
        assert plan.n_base == 3

    def test_base_partition_boundaries(self):
        """Paper: < L_1 → h_0; ≥ L_t → h_t."""
        plan = HorizontalPlan((10, 50), 0.8, SimilarityFunction.JACCARD)
        assert plan.base_partition(9) == 0
        assert plan.base_partition(10) == 1
        assert plan.base_partition(49) == 1
        assert plan.base_partition(50) == 2

    def test_boundary_pivot_lookup(self):
        plan = HorizontalPlan((10, 50), 0.8, SimilarityFunction.JACCARD)
        assert plan.boundary_pivot(3) == 10
        assert plan.boundary_pivot(4) == 50
        with pytest.raises(ConfigError):
            plan.boundary_pivot(2)  # a base partition

    def test_is_boundary(self):
        plan = HorizontalPlan((10,), 0.8, SimilarityFunction.JACCARD)
        assert not plan.is_boundary(0)
        assert not plan.is_boundary(1)
        assert plan.is_boundary(2)

    def test_invalid_n_base(self):
        with pytest.raises(ConfigError):
            build_horizontal_plan([1, 2], 0, 0.8, SimilarityFunction.JACCARD)


class TestMembership:
    def test_near_pivot_joins_boundary(self):
        plan = HorizontalPlan((10,), 0.8, SimilarityFunction.JACCARD)
        # length 9 (just below): 9/0.8 = 11.25 ≥ 10 → boundary member.
        assert plan.partitions_of(9) == [0, 2]
        # length 10 (at pivot): lb(10) = 8 < 10 → boundary member.
        assert plan.partitions_of(10) == [1, 2]

    def test_far_from_pivot_stays_in_base(self):
        plan = HorizontalPlan((100,), 0.8, SimilarityFunction.JACCARD)
        assert plan.partitions_of(10) == [0]
        assert plan.partitions_of(300) == [1]

    def test_zero_length(self):
        plan = HorizontalPlan((10,), 0.8, SimilarityFunction.JACCARD)
        assert plan.partitions_of(0) == [0]


class TestPairAllowed:
    def test_base_allows_everything(self):
        plan = HorizontalPlan((10,), 0.8, SimilarityFunction.JACCARD)
        assert plan.pair_allowed(0, 3, 5)

    def test_boundary_requires_straddle(self):
        plan = HorizontalPlan((10,), 0.8, SimilarityFunction.JACCARD)
        assert plan.pair_allowed(2, 9, 11)
        assert plan.pair_allowed(2, 11, 9)  # order-insensitive
        assert not plan.pair_allowed(2, 8, 9)  # both below
        assert not plan.pair_allowed(2, 10, 12)  # both at/above


class TestBuildPlan:
    def test_requested_base_count_upper_bound(self):
        plan = build_horizontal_plan(
            list(range(1, 200)), 5, 0.8, SimilarityFunction.JACCARD
        )
        assert 1 <= plan.n_base <= 5

    def test_ratio_constraint_enforced(self):
        """Consecutive pivots must not allow a pair to straddle both."""
        plan = build_horizontal_plan(
            list(range(1, 300)), 40, 0.8, SimilarityFunction.JACCARD
        )
        for left, right in zip(plan.pivots, plan.pivots[1:]):
            assert right > length_upper_bound(
                SimilarityFunction.JACCARD, 0.8, left - 1
            )

    def test_pivots_strictly_increasing(self):
        plan = build_horizontal_plan(
            [1, 5, 9, 20, 80, 200] * 10, 6, 0.7, SimilarityFunction.JACCARD
        )
        assert all(a < b for a, b in zip(plan.pivots, plan.pivots[1:]))

    def test_ignores_zero_lengths(self):
        plan = build_horizontal_plan([0, 0, 5, 9], 2, 0.8, SimilarityFunction.JACCARD)
        assert all(pivot > 0 for pivot in plan.pivots)


class TestCoverageProperty:
    """The core correctness property: every potentially-similar pair is
    joined in exactly one horizontal partition."""

    @settings(max_examples=200, deadline=None)
    @given(length_lists, st.integers(2, 12), thetas, funcs)
    def test_exactly_once_coverage(self, lengths, n_base, theta, func):
        plan = build_horizontal_plan(lengths, n_base, theta, func)
        for len_s in set(lengths):
            parts_s = set(plan.partitions_of(len_s))
            low = length_lower_bound(func, theta, len_s)
            high = length_upper_bound(func, theta, len_s)
            for len_t in set(lengths):
                if not low <= len_t <= high:
                    continue  # pair cannot be similar; coverage not required
                parts_t = set(plan.partitions_of(len_t))
                joined_in = [
                    p
                    for p in parts_s & parts_t
                    if plan.pair_allowed(p, len_s, len_t)
                ]
                assert len(joined_in) == 1, (
                    f"lengths ({len_s}, {len_t}) joined in {joined_in} "
                    f"with pivots {plan.pivots}"
                )

    @settings(max_examples=100, deadline=None)
    @given(length_lists, st.integers(2, 8), thetas)
    def test_replication_bounded(self, lengths, n_base, theta):
        """A record joins its base partition plus at most n_pivots boundaries."""
        plan = build_horizontal_plan(
            lengths, n_base, theta, SimilarityFunction.JACCARD
        )
        for length in lengths:
            partitions = plan.partitions_of(length)
            assert 1 <= len(partitions) <= 1 + plan.n_pivots
            assert len(set(partitions)) == len(partitions)
