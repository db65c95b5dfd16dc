"""Leveled compaction over segment generations: one plan, one merge.

Flushes produce many small level-0 generations; every probe pays one
candidate scan per live generation, so the read amplification grows with
the flush count.  :func:`plan_compaction` bounds it the LSM way: when a
level accumulates ``fanout`` generations they are merged into a single
generation one level up, keeping the live set logarithmic in the number
of flushes.

Merging is deliberately boring — and that is the correctness argument:
:func:`merge_tiers` hands every constituent record, in ascending rid
order, to the standard ``SegmentIndex`` insert path, under the tiers'
shared order and cuts.  That path keeps the columns in the order given
and posts them shortest record first, so the merge's seal is a plain
concatenation and the merged generation is *structurally* identical
(equal pickle bytes) to a fresh index built from the same records, which
the chaos drill asserts directly.  What is merged is each record's stored
id column, not its tokens: ids are append-only under the shared order, so
decoding a column to strings only to intern them again would return the
same column.  The same merge over every tier is
:meth:`~repro.ingest.streaming.StreamingIndex.to_segment_index`.

A tier's cuts are fixed when it is bootstrapped and never move.  The
tier is one unsliced node, and an unsliced index reads one posting run
per prefix token whatever its cuts, so re-deriving the pivots as the
vocabulary grows would buy no probe work (``tests/test_cut_invariance.py``
pins identical hits and ``service.probe`` counters across cut sets).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence

from repro.ingest.generations import Generation
from repro.service.index import SegmentIndex


def plan_compaction(
    generations: Sequence[Generation], fanout: int
) -> Optional[List[Generation]]:
    """The generations of the lowest level holding ``fanout`` or more, in
    live order — the next merge's inputs — or ``None`` when in shape.

    Lowest level first: level-0 runs are the smallest and the most
    numerous, so draining them first buys the biggest read-amplification
    win per merged byte.
    """
    by_level: Dict[int, List[Generation]] = {}
    for gen in generations:
        by_level.setdefault(gen.level, []).append(gen)
    for level in sorted(by_level):
        if len(by_level[level]) >= fanout:
            return by_level[level]
    return None


def merge_tiers(tiers: Sequence[SegmentIndex]) -> SegmentIndex:
    """One sealed index over the union of ``tiers`` (disjoint rids, one
    shared order and cuts), built by the insert path in ascending rid."""
    layout = tiers[0]
    merged = SegmentIndex(layout.order, layout.partitioner, layout.pivot_method)
    columns = [column for tier in tiers for column in tier._ranks.items()]
    merged._insert_columns(sorted(columns, key=itemgetter(0)))
    merged._seal()
    return merged
