"""Array-backed columnar storage for the serving hot path.

:class:`FragmentPostings` is one fragment's inverted index laid out as four
flat :class:`array.array` columns instead of a dict of lists of tuples::

    tokens:    [t0, t1, t2, ...]          sorted distinct token ids
    offsets:   [o0, o1, o2, ..., oN]      offsets[k] .. offsets[k+1] is
    rids:      [r, r, r, r, r, ...]       token k's contiguous (rid, pos)
    positions: [p, p, p, p, p, ...]       run in the two entry columns

The win over the dict layout is threefold: a posting entry costs 12 bytes
(8 + 4) instead of a ~60-byte tuple-in-list, a probe batch reads each run
as one slice of the rid column with no per-entry allocation, and the whole
structure pickles as machine bytes.

Mutation is staged: :meth:`add` appends into a small pending dict (token →
rids, positions, plain lists) and :meth:`seal` merges the stage into the
flat columns — new entries of an existing token append *after* its old
run, preserving insertion order.  The stage is readable: a token's run is
its sealed slice followed by its staged entries (:meth:`run_rids`), which
is exactly the run :meth:`seal` would lay out, so a probe answers the same
before and after a seal and never has to trigger one.  A write therefore
costs its own entries; the O(fragment) rebuild happens when somebody needs
flat columns — pickling, :meth:`copy`, :meth:`items`, byte accounting —
and, on the ingest path, once per memtable at flush.  Probing is
read-only, so postings are safe to share across threads and processes
between writes.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Sequence, Tuple

#: Typecodes: token ids / record ids / offsets are native longs, positions
#: (a token's index inside one segment) always fit a signed 32-bit int.
ID_TYPECODE = "l"
POS_TYPECODE = "i"

#: A posting entry as the tuple views yield it: (record id, position).
Posting = Tuple[int, int]


class FragmentPostings:
    """One fragment's token-id → (rid, pos)-run inverted lists."""

    __slots__ = ("tokens", "offsets", "rids", "positions", "_slots", "_pending")

    def __init__(self) -> None:
        self.tokens = array(ID_TYPECODE)
        self.offsets = array(ID_TYPECODE, [0])
        self.rids = array(ID_TYPECODE)
        self.positions = array(POS_TYPECODE)
        #: token id → slot in ``tokens`` (rebuilt by :meth:`seal`).
        self._slots: Dict[int, int] = {}
        #: staged inserts: token id → ([rids], [positions]).
        self._pending: Dict[int, Tuple[List[int], List[int]]] = {}

    # -- mutation ------------------------------------------------------
    def add(self, token: int, rid: int, pos: int) -> None:
        """Stage one posting entry (visible to :meth:`run_rids` at once)."""
        entry = self._pending.get(token)
        if entry is None:
            entry = ([], [])
            self._pending[token] = entry
        entry[0].append(rid)
        entry[1].append(pos)

    def seal(self) -> None:
        """Merge staged entries into the flat columns (idempotent)."""
        if not self._pending:
            return
        pending = self._pending
        old_tokens, old_offsets = self.tokens, self.offsets
        old_rids, old_positions = self.rids, self.positions
        merged = sorted(set(old_tokens) | pending.keys())
        tokens = array(ID_TYPECODE, merged)
        offsets = array(ID_TYPECODE, [0])
        rids = array(ID_TYPECODE)
        positions = array(POS_TYPECODE)
        slots: Dict[int, int] = {}
        for slot, token in enumerate(merged):
            old_slot = self._slots.get(token)
            if old_slot is not None:
                lo, hi = old_offsets[old_slot], old_offsets[old_slot + 1]
                rids.extend(old_rids[lo:hi])
                positions.extend(old_positions[lo:hi])
            staged = pending.get(token)
            if staged is not None:
                rids.extend(staged[0])
                positions.extend(staged[1])
            offsets.append(len(rids))
            slots[token] = slot
        self.tokens, self.offsets = tokens, offsets
        self.rids, self.positions = rids, positions
        self._slots = slots
        self._pending = {}

    # -- views ---------------------------------------------------------
    def run_rids(self, token: int) -> Sequence[int]:
        """The record ids of ``token``'s posting run, in insertion order:
        the sealed slice, then the stage — what :meth:`seal` would lay out
        as one run.  Reads only; empty for a token never posted."""
        slot = self._slots.get(token)
        run: Sequence[int] = (
            () if slot is None
            else self.rids[self.offsets[slot]:self.offsets[slot + 1]]
        )
        staged = self._pending.get(token)
        return run if staged is None else [*run, *staged[0]]

    def items(self) -> Iterator[Tuple[int, List[Posting]]]:
        """Iterate ``(token, [(rid, pos), ...])`` in ascending token order —
        the content-digest and debugging view."""
        self.seal()
        for slot, token in enumerate(self.tokens):
            lo, hi = self.offsets[slot], self.offsets[slot + 1]
            yield token, list(zip(self.rids[lo:hi], self.positions[lo:hi]))

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        """Total posting entries (staged entries included)."""
        return len(self.rids) + sum(
            len(entry[0]) for entry in self._pending.values()
        )

    @property
    def n_tokens(self) -> int:
        return len(self.tokens) + sum(
            1 for token in self._pending if token not in self._slots
        )

    def nbytes(self) -> int:
        """Actual bytes held by the four columns (buffer × itemsize)."""
        return sum(
            column.buffer_info()[1] * column.itemsize
            for column in (self.tokens, self.offsets, self.rids, self.positions)
        )

    # -- bulk ops ------------------------------------------------------
    def copy(self) -> "FragmentPostings":
        """Deep copy of the sealed columns (fragment carve/migration)."""
        self.seal()
        dup = FragmentPostings()
        dup.tokens = array(ID_TYPECODE, self.tokens)
        dup.offsets = array(ID_TYPECODE, self.offsets)
        dup.rids = array(ID_TYPECODE, self.rids)
        dup.positions = array(POS_TYPECODE, self.positions)
        dup._slots = dict(self._slots)
        return dup

    # -- pickling (snapshot v3 payload) --------------------------------
    def __getstate__(self):
        self.seal()
        return (self.tokens, self.offsets, self.rids, self.positions)

    def __setstate__(self, state) -> None:
        self.tokens, self.offsets, self.rids, self.positions = state
        self._slots = {token: slot for slot, token in enumerate(self.tokens)}
        self._pending = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FragmentPostings(tokens={self.n_tokens}, entries={len(self)}, "
            f"bytes={self.nbytes()})"
        )
