"""Tests for vertical partitioning (segments / fragments)."""

from __future__ import annotations

import bisect

from hypothesis import given
from hypothesis import strategies as st

from repro.core.partitioning import Segment, SegmentInfo, VerticalPartitioner

rank_tuples = st.lists(
    st.integers(0, 99), min_size=0, max_size=30, unique=True
).map(lambda xs: tuple(sorted(xs)))
cut_tuples = st.lists(
    st.integers(1, 99), min_size=0, max_size=8, unique=True
).map(lambda xs: tuple(sorted(xs)))


class TestVerticalPartitioner:
    def test_no_cuts_single_segment(self):
        partitioner = VerticalPartitioner(())
        segments = partitioner.split(1, (3, 7, 9))
        assert len(segments) == 1
        partition, segment = segments[0]
        assert partition == 0
        assert segment.tokens == (3, 7, 9)
        assert segment.info == SegmentInfo(rid=1, str_len=3, ahead=0, behind=0)

    def test_paper_example_split(self):
        """Fig 2(c): pivots {C, F, I} → cut ranks at C=2, F=5, I=8 for A..K."""
        partitioner = VerticalPartitioner((2, 5, 8))
        # s1 = {B, C, I, J, K} → ranks {1, 2, 8, 9, 10}.
        segments = dict(partitioner.split(1, (1, 2, 8, 9, 10)))
        assert segments[0].tokens == (1,)  # B
        assert segments[1].tokens == (2,)  # C  (pivot starts its segment)
        assert segments[3].tokens == (8, 9, 10)  # I, J, K
        assert 2 not in segments  # empty segment skipped

    def test_empty_record(self):
        assert VerticalPartitioner((5,)).split(0, ()) == []

    def test_partition_of_matches_split(self):
        partitioner = VerticalPartitioner((4, 9))
        for rank in range(12):
            (partition, segment), = partitioner.split(0, (rank,))
            assert partition == bisect.bisect_right(partitioner.cuts, rank)

    def test_n_partitions(self):
        assert VerticalPartitioner((1, 2, 3)).n_partitions == 4

    @given(cut_tuples, rank_tuples)
    def test_segments_partition_the_record(self, cuts, ranks):
        """Disjoint segments whose concatenation is the record (Def. 5)."""
        partitioner = VerticalPartitioner(cuts)
        segments = partitioner.split(7, ranks)
        rebuilt = tuple(
            token for _, segment in segments for token in segment.tokens
        )
        assert rebuilt == ranks  # order-preserving, disjoint, complete

    @given(cut_tuples, rank_tuples)
    def test_segments_nonempty_and_ascending(self, cuts, ranks):
        segments = VerticalPartitioner(cuts).split(7, ranks)
        partitions = [partition for partition, _ in segments]
        assert partitions == sorted(partitions)
        assert len(set(partitions)) == len(partitions)
        assert all(len(segment.tokens) > 0 for _, segment in segments)

    @given(cut_tuples, rank_tuples)
    def test_seginfo_consistent(self, cuts, ranks):
        """ahead + len + behind == str_len for every segment (Lemma 2 inputs)."""
        for _, segment in VerticalPartitioner(cuts).split(3, ranks):
            info = segment.info
            assert info.rid == 3
            assert info.str_len == len(ranks)
            assert info.ahead + len(segment.tokens) + info.behind == info.str_len

    @given(cut_tuples, rank_tuples)
    def test_tokens_in_their_partition(self, cuts, ranks):
        partitioner = VerticalPartitioner(cuts)
        for partition, segment in partitioner.split(0, ranks):
            for token in segment.tokens:
                assert bisect.bisect_right(cuts, token) == partition

    @given(cut_tuples, rank_tuples)
    def test_ahead_counts_prior_tokens(self, cuts, ranks):
        """|s^h| equals the number of record tokens before the segment."""
        segments = VerticalPartitioner(cuts).split(0, ranks)
        running = 0
        for _, segment in segments:
            assert segment.info.ahead == running
            running += len(segment.tokens)


class TestSegment:
    def test_payload_size_monotone(self):
        short = Segment(SegmentInfo(0, 5, 0, 0), (1,))
        long = Segment(SegmentInfo(0, 5, 0, 0), (1, 2, 3))
        assert long.payload_size() > short.payload_size()
