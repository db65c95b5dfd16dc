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
which is cheaper than walking a second column beside every run.  A probe
batch reads each run as one slice of the rid column with no per-entry
allocation, and the whole structure pickles as machine bytes.

Mutation is staged: :meth:`add` appends into a small pending dict (token →
rids, a plain list) and :meth:`seal` merges the stage into the flat
columns — new entries of an existing token append *after* its old run,
preserving insertion order.  The stage is readable: a token's run is its
sealed slice followed by its staged entries (:meth:`run_rids`), which is
exactly the run :meth:`seal` would lay out, so a probe answers the same
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

#: Typecode of all three columns: token ids, offsets and record ids are
#: native longs.
ID_TYPECODE = "l"


class FragmentPostings:
    """One fragment's token-id → rid-run inverted lists."""

    __slots__ = ("tokens", "offsets", "rids", "_slots", "_pending")

    def __init__(self) -> None:
        self.tokens = array(ID_TYPECODE)
        self.offsets = array(ID_TYPECODE, [0])
        self.rids = array(ID_TYPECODE)
        #: token id → slot in ``tokens`` (rebuilt by :meth:`seal`).
        self._slots: Dict[int, int] = {}
        #: staged inserts: token id → [rids].
        self._pending: Dict[int, List[int]] = {}

    # -- mutation ------------------------------------------------------
    def add(self, token: int, rid: int) -> None:
        """Stage one posting entry (visible to :meth:`run_rids` at once)."""
        staged = self._pending.get(token)
        if staged is None:
            self._pending[token] = [rid]
        else:
            staged.append(rid)

    def seal(self) -> None:
        """Merge staged entries into the flat columns (idempotent)."""
        if not self._pending:
            return
        pending = self._pending
        old_offsets, old_rids = self.offsets, self.rids
        merged = sorted(set(self.tokens) | pending.keys())
        tokens = array(ID_TYPECODE, merged)
        offsets = array(ID_TYPECODE, [0])
        rids = array(ID_TYPECODE)
        slots: Dict[int, int] = {}
        for slot, token in enumerate(merged):
            old_slot = self._slots.get(token)
            if old_slot is not None:
                rids.extend(
                    old_rids[old_offsets[old_slot]:old_offsets[old_slot + 1]]
                )
            staged = pending.get(token)
            if staged is not None:
                rids.extend(staged)
            offsets.append(len(rids))
            slots[token] = slot
        self.tokens, self.offsets, self.rids = tokens, offsets, rids
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
        return run if staged is None else [*run, *staged]

    def items(self) -> Iterator[Tuple[int, List[int]]]:
        """Iterate ``(token, [rid, ...])`` in ascending token order — the
        content-digest and debugging view."""
        self.seal()
        for slot, token in enumerate(self.tokens):
            yield token, self.rids[
                self.offsets[slot]:self.offsets[slot + 1]
            ].tolist()

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        """Total posting entries (staged entries included)."""
        return len(self.rids) + sum(map(len, self._pending.values()))

    @property
    def n_tokens(self) -> int:
        return len(self.tokens) + sum(
            1 for token in self._pending if token not in self._slots
        )

    def nbytes(self) -> int:
        """Actual bytes held by the three columns (buffer × itemsize)."""
        return sum(
            column.buffer_info()[1] * column.itemsize
            for column in (self.tokens, self.offsets, self.rids)
        )

    # -- bulk ops ------------------------------------------------------
    def copy(self) -> "FragmentPostings":
        """Deep copy of the sealed columns (fragment carve/migration)."""
        self.seal()
        dup = FragmentPostings()
        dup.tokens = array(ID_TYPECODE, self.tokens)
        dup.offsets = array(ID_TYPECODE, self.offsets)
        dup.rids = array(ID_TYPECODE, self.rids)
        dup._slots = dict(self._slots)
        return dup

    # -- pickling (snapshot v4 payload) --------------------------------
    def __getstate__(self):
        self.seal()
        return (self.tokens, self.offsets, self.rids)

    def __setstate__(self, state) -> None:
        self.tokens, self.offsets, self.rids = state
        self._slots = {token: slot for slot, token in enumerate(self.tokens)}
        self._pending = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FragmentPostings(tokens={self.n_tokens}, entries={len(self)}, "
            f"bytes={self.nbytes()})"
        )
