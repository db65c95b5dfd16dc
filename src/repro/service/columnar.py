"""Array-backed columnar storage for the serving hot path.

:class:`FragmentPostings` is one fragment's inverted index laid out as three
flat :class:`array.array` columns instead of a dict of lists::

    tokens:    [t0, t1, t2, ...]          sorted distinct token ids
    offsets:   [o0, o1, o2, ..., oN]      offsets[k] .. offsets[k+1] is
    rids:      [r, r, r, r, r, ...]       token k's contiguous run of rids

A posting entry is a record id and nothing else — 8 bytes.  Where the
token sits inside the record is not stored: a probe that needs it holds
the record's whole id column and bisects it (:meth:`SegmentIndex.
_evaluate_columnar <repro.service.index.SegmentIndex._evaluate_columnar>`),
which is cheaper than walking a second column beside every run.

**Every sealed run is in ascending record-length order**, ties in
insertion order.  The length is the record's (its id column's), read
through the owning index's key function — nothing per entry is stored for
it.  So the records of one run that a probe can use, the lengths Lemma 1
admits and the merge's opening bound leaves alive, are one contiguous
window of it: :meth:`window` finds the run in the sorted ``tokens``
column (at the token's offset from the first id when the column holds
every id of its range, else by a bisect) and the window with two
bisects, and slices it out, with no per-entry work outside it.

Mutation is staged: :meth:`add` appends into a small pending dict (token →
rids, a plain list) and :meth:`seal` merges the stage into the flat
columns — new entries of an existing token go after its old run, and a
run the stage touched is re-sorted by length when the index staged out of
length order.  The stage is readable: :meth:`window` applies the same
length test to each staged entry, so a probe answers the same, with the
same candidates, before and after a seal and never has to trigger one.  A
write therefore costs its own entries; the O(fragment) rebuild happens
when somebody needs flat columns — pickling, :meth:`copy`, :meth:`items`,
byte accounting — and the index (which knows the lengths) seals first.
Probing is read-only, so postings are safe to share across threads and
processes between writes.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Typecode of all three columns: token ids, offsets and record ids are
#: native longs.  A posting is a record id, which may use 63 bits; the
#: records' own id columns are 4 bytes (:data:`repro.service.vocab.
#: ID_TYPECODE`).
ID_TYPECODE = "l"

#: A record id's length (its id column's): the sort key of every run.
LengthOf = Callable[[int], int]


class FragmentPostings:
    """One fragment's token-id → rid-run inverted lists."""

    __slots__ = ("tokens", "offsets", "rids", "_pending")

    def __init__(self) -> None:
        self.tokens = array(ID_TYPECODE)
        self.offsets = array(ID_TYPECODE, [0])
        self.rids = array(ID_TYPECODE)
        #: staged inserts: token id → [rids].
        self._pending: Dict[int, List[int]] = {}

    # -- mutation ------------------------------------------------------
    def add(self, token: int, rid: int) -> None:
        """Stage one posting entry (visible to :meth:`window` at once)."""
        staged = self._pending.get(token)
        if staged is None:
            self._pending[token] = [rid]
        else:
            staged.append(rid)

    def seal(self, length_of: Optional[LengthOf]) -> None:
        """Merge staged entries into the flat columns (idempotent).

        A touched run is its sealed slice followed by its staged entries,
        sorted stably by ``length_of`` when one is given.  The index passes
        ``None`` only when that concatenation is already in length order —
        everything was staged into an empty index, shortest record first.
        """
        if not self._pending:
            return
        pending = self._pending
        old_tokens, old_offsets, old_rids = self.tokens, self.offsets, self.rids
        merged = sorted(set(old_tokens) | pending.keys())
        tokens = array(ID_TYPECODE, merged)
        offsets = array(ID_TYPECODE, [0])
        rids = array(ID_TYPECODE)
        # Both token lists ascend and ``merged`` holds every old token, so
        # the old slots are met in order: ``old`` is the next one.
        old = 0
        for token in merged:
            staged = pending.get(token)
            if old < len(old_tokens) and old_tokens[old] == token:
                run = old_rids[old_offsets[old]:old_offsets[old + 1]]
                old += 1
                if staged is not None:
                    run = [*run, *staged]
            else:
                run = staged
            if staged is not None and length_of is not None and len(run) > 1:
                # A new list: a probe may still be reading the stage.
                run = sorted(run, key=length_of)
            rids.extend(run)
            offsets.append(len(rids))
        self.tokens, self.offsets, self.rids = tokens, offsets, rids
        self._pending = {}

    # -- views ---------------------------------------------------------
    def window(
        self, token: int, lo: int, hi: int, length_of: LengthOf
    ) -> Sequence[int]:
        """The record ids on ``token``'s run whose length lies in
        ``[lo, hi]``: the sorted ``tokens`` column gives the run's slot —
        no token → slot map is kept beside the columns — two bisects bound
        the window in it, and each staged entry is tested alone.
        Reads only; empty for a token never posted."""
        tokens = self.tokens
        # A built index posts every id of a fragment's range, so the slot
        # is the offset from the first id; a sparse column (a memtable's)
        # misses the guess and bisects.
        slot = token - tokens[0] if tokens else 0
        if not (0 <= slot < len(tokens) and tokens[slot] == token):
            slot = bisect_left(tokens, token)
        run: Sequence[int] = ()
        if slot < len(tokens) and tokens[slot] == token:
            rids, end = self.rids, self.offsets[slot + 1]
            start = bisect_left(rids, lo, self.offsets[slot], end, key=length_of)
            run = rids[start:bisect_right(rids, hi, start, end, key=length_of)]
        staged = self._pending.get(token)
        if staged is None:
            return run
        return [*run, *(rid for rid in staged if lo <= length_of(rid) <= hi)]

    def items(self) -> Iterator[Tuple[int, List[int]]]:
        """Iterate ``(token, [rid, ...])`` in ascending token order — a
        debugging view (sealed columns only)."""
        self._check_sealed()
        for slot, token in enumerate(self.tokens):
            yield token, self.rids[
                self.offsets[slot]:self.offsets[slot + 1]
            ].tolist()

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        """Total posting entries (staged entries included)."""
        return len(self.rids) + sum(map(len, self._pending.values()))

    def nbytes(self) -> int:
        """Actual bytes held by the three columns (buffer × itemsize)."""
        return sum(
            column.buffer_info()[1] * column.itemsize
            for column in (self.tokens, self.offsets, self.rids)
        )

    # -- bulk ops ------------------------------------------------------
    def copy(self) -> "FragmentPostings":
        """Deep copy of the sealed columns: what a fragment migration
        installs, and what :func:`~repro.cluster.build.
        build_cluster` gives the slices of a caller's live index.  A carve
        from an index nothing else holds takes the columns uncopied."""
        self._check_sealed()
        dup = FragmentPostings()
        dup.tokens = array(ID_TYPECODE, self.tokens)
        dup.offsets = array(ID_TYPECODE, self.offsets)
        dup.rids = array(ID_TYPECODE, self.rids)
        return dup

    def _check_sealed(self) -> None:
        """Flat columns are only asked of sealed postings: only the index
        knows the lengths a seal sorts by, so it seals first."""
        if self._pending:
            raise ValueError(
                "posting entries are staged; the owning index must seal "
                "them before the flat columns are read"
            )

    # -- pickling (snapshot v6 payload) --------------------------------
    def __getstate__(self):
        self._check_sealed()
        return (self.tokens, self.offsets, self.rids)

    def __setstate__(self, state) -> None:
        self.tokens, self.offsets, self.rids = state
        self._pending = {}
