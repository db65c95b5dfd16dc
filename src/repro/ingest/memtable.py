"""The mutable tier of the streaming index.

A memtable is a deliberately thin wrapper around a small
:class:`~repro.service.index.SegmentIndex` that *shares* the streaming
index's :class:`~repro.core.ordering.GlobalOrder`: batches intern fresh
tokens through ``TokenVocab.extend`` (append-only ids, existing columns
and pivot cuts stay valid), so the memtable and every immutable
generation encode queries identically by construction.

That sharing is what makes the merge exact: a probe evaluates each
candidate record independently (candidate generation depends only on the
query's prefix tokens, verification only on the query plus that
record's own id column), so probing the memtable and each generation
separately with the same :class:`~repro.service.index.EncodedQuery` and
concatenating — record ids are disjoint across tiers — is bit-identical
to probing a single index built from the union.  The property tests in
``tests/test_ingest_memtable.py`` pin this down.

Absorbing a batch costs the batch: its postings are staged, probes read
the stage behind each sealed run, and nothing is rebuilt between an
append and the probe that must see it.  The posting columns are built
once, by :meth:`Memtable.seal` at flush: the inner index *becomes* the
flushed generation (sealed in place) and a new empty memtable takes over.
What that flush persists is the memtable's own — its columns in the
generation payload, the tokens it interned in one order-log chunk — while
the order it shares is stored once for the whole tier
(:class:`~repro.ingest.generations.OrderLog`).
"""

from __future__ import annotations

from typing import Iterable, List

from repro.core.ordering import GlobalOrder
from repro.core.partitioning import VerticalPartitioner
from repro.core.pivots import PivotMethod
from repro.data.records import Record
from repro.service.index import SegmentIndex


class Memtable:
    """Mutable write-absorbing index over a shared global order."""

    def __init__(
        self,
        order: GlobalOrder,
        partitioner: VerticalPartitioner,
        pivot_method: PivotMethod = PivotMethod.EVEN_TF,
    ) -> None:
        self.index = SegmentIndex(order, partitioner, pivot_method)

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, rid: int) -> bool:
        return rid in self.index

    def rids(self) -> List[int]:
        return self.index.rids()

    def apply_batch(self, records: Iterable[Record]) -> int:
        """Absorb a batch (interning fresh tokens, staging its postings);
        all-or-nothing."""
        return self.index.apply_batch(records)

    def seal(self) -> SegmentIndex:
        """Freeze the inner index for hand-off as an immutable generation:
        the one time its staged postings are merged into flat columns."""
        self.index._seal()
        return self.index
