"""Write-ahead log on the DFS: segmented, digest-checked, batch-atomic.

Every accepted write batch is made durable *before* it touches the
memtable: the batch's records are appended to the active WAL segment as
individual entries, then a **commit marker** — the fsync point — is
appended in a second DFS call.  Each entry carries a sha256 digest over
its canonical ``repr`` (the same envelope discipline as the snapshot
format and :func:`repro.mapreduce.hdfs.content_digest`), so replay can
tell a well-formed entry from a torn or bit-rotted one without trusting
pickling.

Replay is **batch-atomic** and **truncating**:

* a batch is visible only when its commit marker is present and intact —
  records whose commit append died (a torn write) are discarded;
* the log is scanned in segment order and entry order; the first entry
  that fails its digest check, parses wrong, or breaks the sequence
  monotonicity truncates the log at that point — everything after it is
  discarded, mirroring how a real LSM store handles a torn tail.

Segments are named with zero-padded sequence numbers under one root, so
:meth:`repro.mapreduce.hdfs.InMemoryDFS.list_prefix` returns them in
chronological order.  Fully-applied segments (their highest sequence
number is covered by the manifest's ``wal_applied_seq``) are garbage-
collected by :meth:`WriteAheadLog.truncate_through` after a flush commits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.data.records import Record
from repro.errors import WALError
from repro.mapreduce.hdfs import InMemoryDFS

#: Entry kinds: a record belonging to a batch, and the batch's fsync point.
KIND_RECORD = "record"
KIND_COMMIT = "commit"
#: Entries a segment holds before appends roll to the next one.
SEGMENT_ENTRIES = 256


def entry_digest(seq: int, kind: str, batch_id: int, payload) -> str:
    """sha256 over the canonical ``repr`` of one WAL entry."""
    hasher = hashlib.sha256()
    hasher.update(repr((seq, kind, batch_id, payload)).encode("utf-8"))
    return hasher.hexdigest()


@dataclass(frozen=True)
class ReplayBatch:
    """One committed batch recovered from the log."""

    batch_id: int
    commit_seq: int
    records: Tuple[Record, ...]


@dataclass
class ReplayResult:
    """What a log scan found: committed batches plus damage accounting."""

    batches: List[ReplayBatch] = field(default_factory=list)
    #: highest sequence number of any intact entry (−1 for an empty log).
    last_seq: int = -1
    #: next batch id a writer should use.
    next_batch_id: int = 0
    #: intact record entries whose commit marker never landed (torn tail).
    torn_entries: int = 0
    #: sequence number of the first corrupt/torn entry, or ``None``.
    truncated_at: Optional[int] = None
    #: entries discarded at and after ``truncated_at``.
    truncated_entries: int = 0
    #: total intact entries scanned (records + commit markers).
    entries_seen: int = 0

    def committed_records(self) -> int:
        return sum(len(batch.records) for batch in self.batches)


class WriteAheadLog:
    """Append-only segmented log of write batches on an :class:`InMemoryDFS`.

    The writer state (next sequence number, next batch id, active segment)
    is positioned either by :meth:`bootstrap` (fresh log) or by
    :meth:`replay` (recovery), so a recovered writer continues appending
    after the last intact entry — including after torn entries, whose
    sequence numbers are burned but never reused.
    """

    def __init__(self, dfs: InMemoryDFS, root: str) -> None:
        self.dfs = dfs
        self.root = root.rstrip("/")
        self._next_seq = 0
        self._next_batch = 0
        self._segment = 0
        self._entries_in_segment = 0
        self._appended_batches = 0
        #: pin id → lowest sequence number the pin still needs (entries
        #: *beyond* that seq are protected from truncation).
        self._pins: Dict[int, int] = {}
        self._next_pin = 0

    @property
    def last_seq(self) -> int:
        """Highest sequence number handed out (−1 before any append)."""
        return self._next_seq - 1

    @property
    def next_batch(self) -> int:
        return self._next_batch

    # -- paths ---------------------------------------------------------
    def segment_path(self, segment: int) -> str:
        return f"{self.root}/{segment:08d}"

    @property
    def current_path(self) -> str:
        """The segment the next append lands in (the drill's tear target)."""
        return self.segment_path(self._segment)

    def segment_paths(self) -> List[str]:
        return self.dfs.list_prefix(self.root + "/")

    # -- writing -------------------------------------------------------
    def append_batch(self, records: Sequence[Record]) -> Tuple[int, int]:
        """Make a batch durable; returns ``(batch_id, commit_seq)``.

        Two DFS appends: the record entries land first, then the commit
        marker.  A crash between the two leaves a torn batch that replay
        discards — the caller's contract is that a batch is applied iff
        its commit marker survived.
        """
        if not records:
            raise WALError("cannot log an empty batch")
        if self._entries_in_segment >= SEGMENT_ENTRIES:
            self._segment += 1
            self._entries_in_segment = 0
        batch_id = self._next_batch
        path = self.current_path
        entries = []
        for record in records:
            seq = self._next_seq
            self._next_seq += 1
            payload = (record.rid, tuple(record.tokens))
            entries.append(
                (seq, (KIND_RECORD, batch_id,
                       entry_digest(seq, KIND_RECORD, batch_id, payload),
                       payload))
            )
        self.dfs.append(path, entries)
        self._entries_in_segment += len(entries)
        commit_seq = self._next_seq
        self._next_seq += 1
        marker = (commit_seq, (KIND_COMMIT, batch_id,
                               entry_digest(commit_seq, KIND_COMMIT,
                                            batch_id, len(records)),
                               len(records)))
        self.dfs.append(path, [marker])
        self._entries_in_segment += 1
        self._next_batch = batch_id + 1
        self._appended_batches += 1
        return batch_id, commit_seq

    # -- reading / recovery --------------------------------------------
    def replay(self, after_seq: int = -1) -> ReplayResult:
        """Scan the log and return committed batches beyond ``after_seq``.

        Also repositions this instance's writer state to continue after
        the last intact entry (never at or below ``after_seq``), so
        ``replay`` doubles as ``open`` for recovery.  Batch atomicity: a batch whose commit marker has
        ``seq > after_seq`` is returned whole; one whose commit marker is
        missing (torn) or damaged is discarded whole.
        """
        result = ReplayResult()
        pending: dict = {}
        last_segment = 0
        entries_in_last = 0
        stop = False
        for path in self.segment_paths():
            if stop:
                break
            entries = self.dfs.read(path)
            try:
                segment = int(path.rsplit("/", 1)[-1])
            except ValueError:
                raise WALError(f"foreign file in WAL directory: {path!r}")
            for position, pair in enumerate(entries):
                parsed = self._parse(pair, result.last_seq)
                if parsed is None:
                    # Torn/corrupt entry: truncate here, count the rest.
                    seq_guess = result.last_seq + 1
                    result.truncated_at = seq_guess
                    result.truncated_entries = len(entries) - position
                    stop = True
                    break
                seq, kind, batch_id, payload = parsed
                result.last_seq = seq
                result.entries_seen += 1
                last_segment = segment
                entries_in_last = position + 1
                # Burn the batch id even when the commit marker never
                # lands: a recovered writer reusing a torn batch's id
                # would merge the torn records into its own batch.
                result.next_batch_id = max(result.next_batch_id, batch_id + 1)
                if kind == KIND_RECORD:
                    rid, tokens = payload
                    pending.setdefault(batch_id, []).append(
                        Record(rid, tuple(tokens))
                    )
                else:
                    records = tuple(pending.pop(batch_id, ()))
                    if seq > after_seq:
                        result.batches.append(
                            ReplayBatch(batch_id, seq, records)
                        )
            if stop:
                # Later segments are beyond the truncation point too.
                remaining = self.segment_paths()
                idx = remaining.index(path)
                for later in remaining[idx + 1:]:
                    result.truncated_entries += len(self.dfs.read(later))
                break
        result.torn_entries = sum(len(v) for v in pending.values())
        # Reposition the writer after the last intact entry — and beyond
        # ``after_seq`` even when a flush emptied the log below it: an
        # entry logged at or below what the caller has already applied
        # would be skipped, an acknowledged batch lost, by the next replay.
        self._next_seq = max(result.last_seq, after_seq) + 1
        self._next_batch = result.next_batch_id
        self._segment = last_segment
        self._entries_in_segment = entries_in_last
        if self._entries_in_segment >= SEGMENT_ENTRIES:
            self._segment += 1
            self._entries_in_segment = 0
        return result

    def _parse(self, pair, prev_seq: int):
        """Validate one stored pair; ``None`` marks it torn/corrupt."""
        try:
            seq, body = pair
            kind, batch_id, digest, payload = body
        except (TypeError, ValueError):
            return None
        if not isinstance(seq, int) or seq <= prev_seq:
            return None
        if kind not in (KIND_RECORD, KIND_COMMIT):
            return None
        if entry_digest(seq, kind, batch_id, payload) != digest:
            return None
        return seq, kind, batch_id, payload

    # -- segment pinning -----------------------------------------------
    def pin(self, after_seq: int) -> int:
        """Hold every entry beyond ``after_seq`` against garbage collection.

        A rebuild catching a replica up from a snapshot needs to replay
        WAL entries past the snapshot's applied sequence; without a pin, a
        flush committing *during* the catch-up would
        :meth:`truncate_through` those very segments out from under it.
        Returns a pin id for :meth:`release` — released on readmission or
        abort, never leaked by a crashed rebuild (pins are in-memory; a
        restarted writer starts unpinned).  The caller is
        ``RepairManager.rebuild_ingest`` (``repro serve --heal --ingest``).
        """
        pin_id = self._next_pin
        self._next_pin += 1
        self._pins[pin_id] = after_seq
        return pin_id

    def release(self, pin_id: int) -> None:
        """Drop one pin; unknown/already-released ids are a no-op (the end
        of every ``rebuild_ingest``, success or not)."""
        self._pins.pop(pin_id, None)

    def pinned_through(self) -> Optional[int]:
        """The lowest sequence number any live pin still protects beyond
        (``None`` when nothing is pinned)."""
        return min(self._pins.values()) if self._pins else None

    # -- maintenance ---------------------------------------------------
    def truncate_through(self, applied_seq: int) -> int:
        """Drop segments fully covered by ``applied_seq``; returns the count.

        Pure garbage collection: replay already skips entries at or below
        the manifest's ``wal_applied_seq``, so deleting them only reclaims
        space.  A segment is kept if any entry in it is newer than
        ``applied_seq`` or fails to parse (damage stays visible) — or
        newer than the lowest live :meth:`pin` (an in-flight rebuild still
        needs it for catch-up).
        """
        floor = self.pinned_through()
        if floor is not None and floor < applied_seq:
            applied_seq = floor
        dropped = 0
        for path in self.segment_paths():
            entries = self.dfs.read(path)
            keep = False
            prev = -1
            for pair in entries:
                parsed = self._parse(pair, prev)
                if parsed is None or parsed[0] > applied_seq:
                    keep = True
                    break
                prev = parsed[0]
            if keep:
                break
            self.dfs.delete(path)
            dropped += 1
        return dropped

    def stats(self) -> dict:
        """Shape of the live log, for ``status()`` and the CLI."""
        paths = self.segment_paths()
        return {
            "segments": len(paths),
            "entries": sum(len(self.dfs.read(p)) for p in paths),
            "bytes": sum(self.dfs.size_bytes(p) for p in paths),
            "next_seq": self._next_seq,
            "next_batch": self._next_batch,
            "appended_batches": self._appended_batches,
            "pins": len(self._pins),
        }
