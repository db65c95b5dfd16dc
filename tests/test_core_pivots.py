"""Tests for vertical pivot selection."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.partitioning import VerticalPartitioner
from repro.core.pivots import PivotMethod, select_pivots
from repro.errors import ConfigError

frequency_vectors = st.lists(st.integers(1, 1000), min_size=1, max_size=200)
methods = st.sampled_from(list(PivotMethod))


class TestSelectPivots:
    def test_zero_cuts_for_one_partition(self):
        assert select_pivots([1, 2, 3], 1) == ()

    def test_cut_count(self):
        cuts = select_pivots([1] * 100, 10, PivotMethod.EVEN_INTERVAL)
        assert len(cuts) == 9

    def test_small_vocab_fewer_cuts(self):
        cuts = select_pivots([1, 1, 1], 10, PivotMethod.EVEN_INTERVAL)
        assert len(cuts) == 2  # at most vocab - 1 cuts

    def test_invalid_partitions(self):
        with pytest.raises(ConfigError):
            select_pivots([1], 0)

    def test_even_interval_uniform(self):
        cuts = select_pivots([1] * 100, 4, PivotMethod.EVEN_INTERVAL)
        assert cuts == (25, 50, 75)

    def test_even_tf_balances_frequency(self):
        # One very hot token at the end: Even-TF pushes cuts right.
        freqs = [1] * 99 + [1000]
        tf_cuts = select_pivots(freqs, 4, PivotMethod.EVEN_TF)
        interval_cuts = select_pivots(freqs, 4, PivotMethod.EVEN_INTERVAL)
        assert tf_cuts != interval_cuts
        assert all(cut > 70 for cut in tf_cuts)

    def test_even_tf_uniform_matches_interval(self):
        freqs = [5] * 100
        assert select_pivots(freqs, 5, PivotMethod.EVEN_TF) == select_pivots(
            freqs, 5, PivotMethod.EVEN_INTERVAL
        )

    def test_random_deterministic_per_seed(self):
        freqs = [1] * 50
        assert select_pivots(freqs, 6, PivotMethod.RANDOM, seed=1) == select_pivots(
            freqs, 6, PivotMethod.RANDOM, seed=1
        )
        assert select_pivots(freqs, 6, PivotMethod.RANDOM, seed=1) != select_pivots(
            freqs, 6, PivotMethod.RANDOM, seed=2
        )

    def test_string_method_accepted(self):
        assert select_pivots([1] * 10, 2, "even-tf")

    @given(frequency_vectors, st.integers(1, 20), methods, st.integers(0, 5))
    def test_cuts_strictly_increasing_in_range(self, freqs, n, method, seed):
        cuts = select_pivots(freqs, n, method, seed=seed)
        assert len(cuts) <= n - 1
        assert all(0 < cut < len(freqs) for cut in cuts)
        assert all(a < b for a, b in zip(cuts, cuts[1:]))

    @given(frequency_vectors, st.integers(2, 10))
    def test_even_tf_balance_quality(self, freqs, n):
        """Even-TF fragment frequency sums stay within one max-token bound."""
        cuts = select_pivots(freqs, n, PivotMethod.EVEN_TF)
        boundaries = [0, *cuts, len(freqs)]
        sums = [
            sum(freqs[a:b]) for a, b in zip(boundaries, boundaries[1:])
        ]
        total = sum(freqs)
        ideal = total / (len(cuts) + 1)
        # Each fragment except possibly the tail overshoots ideal by at most
        # the largest single token frequency.
        assert max(sums) <= ideal + max(freqs) + 1e-9


def partition_of(partitioner, rank):
    """The partition a one-token record lands in."""
    ((partition, _segment),) = partitioner.split(0, (rank,))
    return partition


class TestPartitionOfRank:
    """A token rank's vertical partition under a set of cuts."""

    def test_no_cuts(self):
        assert partition_of(VerticalPartitioner(()), 5) == 0

    def test_boundaries(self):
        partitioner = VerticalPartitioner((10, 20))
        assert partition_of(partitioner, 9) == 0
        assert partition_of(partitioner, 10) == 1
        assert partition_of(partitioner, 19) == 1
        assert partition_of(partitioner, 20) == 2

    @given(
        st.lists(st.integers(1, 99), min_size=1, max_size=10, unique=True),
        st.integers(0, 100),
    )
    def test_consistent_with_linear_scan(self, cuts, rank):
        cuts = tuple(sorted(cuts))
        expected = sum(1 for cut in cuts if cut <= rank)
        assert partition_of(VerticalPartitioner(cuts), rank) == expected
