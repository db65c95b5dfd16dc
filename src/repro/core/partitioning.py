"""Vertical partitioning: splitting a record into disjoint segments.

Definition 5/6 of the paper: with the record's tokens sorted under the
global ordering, the pivots split them into disjoint *segments*; the
segments of all records that fall in the same partition form a *fragment*,
which is shuffled to one reducer.

Each segment travels with ``segInfo`` — the record size, the number of
tokens ahead of the segment (``|s^h|``) and behind it (``|s^e|``) — which is
exactly what Lemmas 2–4 need to filter inside a single fragment.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class SegmentInfo:
    """Per-segment metadata (the paper's ``segInfo``)."""

    rid: int
    str_len: int
    """``|s|`` — token count of the whole record."""
    ahead: int
    """``|s^h|`` — tokens in segments before this one."""
    behind: int
    """``|s^e|`` — tokens in segments after this one."""
    side: int = 0
    """Collection tag for R-S joins: 0 = left/R (and self-joins), 1 = right/S."""


@dataclass(frozen=True)
class Segment:
    """One record's slice of one vertical partition."""

    info: SegmentInfo
    tokens: Tuple[int, ...]
    """Strictly increasing token ranks within this partition."""

    def payload_size(self) -> int:
        """Approximate serialized size (hook for the shuffle-byte sizer).

        Token ranks are small varints (~3 bytes at realistic vocabulary
        sizes) plus the four segInfo integers.
        """
        return 12 + 3 * len(self.tokens)


class VerticalPartitioner:
    """Splits rank-encoded records at fixed cut ranks.

    The cut ranks come from :func:`repro.core.pivots.select_pivots`; the
    partitioner is deterministic and shared by every map task of the filter
    job (the paper loads it in ``SetUp``).
    """

    def __init__(self, cuts: Sequence[int]) -> None:
        self.cuts: Tuple[int, ...] = tuple(cuts)

    @property
    def n_partitions(self) -> int:
        return len(self.cuts) + 1

    def split_bounds(self, ranks: Sequence[int]) -> List[Tuple[int, int, int]]:
        """Split a rank-encoded record into ``(partition, start, end)`` bounds.

        The columnar twin of :meth:`split`: instead of materialising
        :class:`Segment` objects it returns the half-open index ranges of
        each non-empty segment within ``ranks``.  ``ahead`` of a segment is
        its ``start`` and ``behind`` is ``len(ranks) - end``, so the full
        ``segInfo`` is recoverable from the bounds plus the record length.
        """
        total = len(ranks)
        result: List[Tuple[int, int, int]] = []
        start = 0
        cuts = self.cuts
        for partition in range(self.n_partitions):
            if partition < len(cuts):
                end = bisect.bisect_left(ranks, cuts[partition], start)
            else:
                end = total
            if end > start:
                result.append((partition, start, end))
            start = end
            if start >= total:
                break
        return result

    def split(
        self, rid: int, ranks: Sequence[int], side: int = 0
    ) -> List[Tuple[int, Segment]]:
        """Split a rank-encoded record into its non-empty segments.

        Returns ``(partition_id, segment)`` pairs, ascending by partition.
        Empty segments are skipped: they contribute nothing to any
        intersection and carry no information the filters need.  ``side``
        tags the collection of origin for R-S joins.
        """
        total = len(ranks)
        return [
            (
                partition,
                Segment(
                    SegmentInfo(
                        rid=rid, str_len=total, ahead=start,
                        behind=total - end, side=side,
                    ),
                    tuple(ranks[start:end]),
                ),
            )
            for partition, start, end in self.split_bounds(ranks)
        ]
