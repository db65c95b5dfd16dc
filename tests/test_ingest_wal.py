"""WAL unit tests: durability envelope, batch atomicity, torn-tail replay."""

from __future__ import annotations

import pytest

from repro.chaos import ChaosConfig, FaultInjector, FaultSchedule
from repro.data.records import Record
from repro.errors import DFSError, WALError
from repro.ingest import WriteAheadLog
from repro.ingest.wal import (
    KIND_COMMIT,
    KIND_RECORD,
    SEGMENT_ENTRIES,
    entry_digest,
)
from repro.mapreduce.hdfs import InMemoryDFS


def _records(*rids):
    return [Record.make(rid, [f"t{rid}", f"u{rid}"]) for rid in rids]


def _segment_batch(i):
    """Batch ``i`` sized to fill one segment: its records and its commit
    marker are exactly :data:`SEGMENT_ENTRIES` entries."""
    start = i * SEGMENT_ENTRIES
    return _records(*range(start, start + SEGMENT_ENTRIES - 1))


class TestAppendReplay:
    def test_roundtrip_one_batch(self):
        wal = WriteAheadLog(InMemoryDFS(), "wal")
        batch_id, commit_seq = wal.append_batch(_records(1, 2, 3))
        assert (batch_id, commit_seq) == (0, 3)

        result = WriteAheadLog(wal.dfs, "wal").replay()
        assert len(result.batches) == 1
        assert result.batches[0].batch_id == 0
        assert [r.rid for r in result.batches[0].records] == [1, 2, 3]
        assert result.last_seq == 3
        assert result.torn_entries == 0
        assert result.truncated_at is None

    def test_replay_preserves_batch_and_record_order(self):
        wal = WriteAheadLog(InMemoryDFS(), "wal")
        wal.append_batch(_records(5, 4))
        wal.append_batch(_records(9))
        result = WriteAheadLog(wal.dfs, "wal").replay()
        assert [b.batch_id for b in result.batches] == [0, 1]
        assert [r.rid for r in result.batches[0].records] == [5, 4]
        assert result.committed_records() == 3

    def test_replay_after_seq_skips_applied_batches(self):
        wal = WriteAheadLog(InMemoryDFS(), "wal")
        _, first_commit = wal.append_batch(_records(1))
        wal.append_batch(_records(2))
        result = WriteAheadLog(wal.dfs, "wal").replay(after_seq=first_commit)
        assert [b.batch_id for b in result.batches] == [1]
        # The skipped batch's entries are still scanned (state positioning).
        assert result.entries_seen == 4
        assert result.next_batch_id == 2

    def test_recovered_writer_continues_sequence(self):
        wal = WriteAheadLog(InMemoryDFS(), "wal")
        wal.append_batch(_records(1))
        recovered = WriteAheadLog(wal.dfs, "wal")
        recovered.replay()
        recovered.append_batch(_records(2))
        result = WriteAheadLog(wal.dfs, "wal").replay()
        assert [b.batch_id for b in result.batches] == [0, 1]
        assert result.last_seq == 3

    def test_empty_batch_rejected(self):
        with pytest.raises(WALError):
            WriteAheadLog(InMemoryDFS(), "wal").append_batch([])

    def test_empty_log_replay(self):
        result = WriteAheadLog(InMemoryDFS(), "wal").replay()
        assert result.batches == []
        assert result.last_seq == -1
        assert result.next_batch_id == 0


class TestSegmentation:
    def test_segments_roll_and_list_in_order(self):
        wal = WriteAheadLog(InMemoryDFS(), "wal")
        # Two entries a batch: the last batch rolls into a third segment.
        n_batches = SEGMENT_ENTRIES + 1
        for i in range(n_batches):
            wal.append_batch(_records(i))
        paths = wal.segment_paths()
        assert len(paths) == 3
        assert paths == sorted(paths)
        result = WriteAheadLog(wal.dfs, "wal").replay()
        assert [b.batch_id for b in result.batches] == list(range(n_batches))

    def test_truncate_through_drops_only_covered_segments(self):
        wal = WriteAheadLog(InMemoryDFS(), "wal")
        commits = [wal.append_batch(_segment_batch(i))[1] for i in range(4)]
        before = len(wal.segment_paths())
        dropped = wal.truncate_through(commits[1])
        assert dropped >= 1
        assert len(wal.segment_paths()) == before - dropped
        # Batches beyond the applied point are still replayable.
        result = WriteAheadLog(wal.dfs, "wal").replay(after_seq=commits[1])
        assert [b.batch_id for b in result.batches] == [2, 3]

    def test_foreign_file_in_wal_dir_is_typed(self):
        dfs = InMemoryDFS()
        wal = WriteAheadLog(dfs, "wal")
        wal.append_batch(_records(1))
        dfs.write("wal/not-a-segment", [])
        with pytest.raises(WALError):
            WriteAheadLog(dfs, "wal").replay()

    def test_stats_shape(self):
        wal = WriteAheadLog(InMemoryDFS(), "wal")
        wal.append_batch(_records(1, 2))
        stats = wal.stats()
        assert stats["segments"] == 1
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert stats["next_batch"] == 1


class TestTornWrites:
    def _tear_commit_marker(self, dfs, wal_root="wal"):
        """Append a batch whose commit-marker append is killed."""
        injector = FaultInjector(FaultSchedule(0, ChaosConfig()))
        torn_dfs = injector.attach_dfs(dfs)
        wal = WriteAheadLog(torn_dfs, wal_root)
        wal.append_batch(_records(1))
        injector.schedule_kill("append", wal.current_path, after=1)
        with pytest.raises(DFSError):
            wal.append_batch(_records(2, 3))
        dfs.fault_hook = None
        return wal

    def test_torn_batch_is_discarded_whole(self):
        dfs = InMemoryDFS()
        self._tear_commit_marker(dfs)
        result = WriteAheadLog(dfs, "wal").replay()
        assert [b.batch_id for b in result.batches] == [0]
        assert result.torn_entries == 2
        # The torn records' seqs are burned: the writer resumes after them.
        assert result.last_seq == 3

    def test_torn_batch_id_is_never_reused(self):
        """A recovered writer must not reuse a torn batch's id — replay
        would merge the torn records into the new batch."""
        dfs = InMemoryDFS()
        self._tear_commit_marker(dfs)
        recovered = WriteAheadLog(dfs, "wal")
        recovered.replay()
        batch_id, _ = recovered.append_batch(_records(7))
        assert batch_id == 2
        result = WriteAheadLog(dfs, "wal").replay()
        assert [(b.batch_id, [r.rid for r in b.records])
                for b in result.batches] == [(0, [1]), (2, [7])]

    def test_corrupt_entry_truncates_the_tail(self):
        dfs = InMemoryDFS()
        wal = WriteAheadLog(dfs, "wal")
        wal.append_batch(_records(1))
        wal.append_batch(_records(2))
        path = wal.current_path
        entries = dfs.read(path)
        # Flip a byte of batch 1's record payload: digest check must fail
        # there and discard everything after it, commit marker included.
        seq, (kind, batch_id, digest, payload) = entries[2]
        entries[2] = (seq, (kind, batch_id, digest, (99, ("evil",))))
        dfs.write(path, entries, overwrite=True)

        result = WriteAheadLog(dfs, "wal").replay()
        assert [b.batch_id for b in result.batches] == [0]
        assert result.truncated_at == 2
        assert result.truncated_entries == 2

    def test_non_monotonic_sequence_truncates(self):
        dfs = InMemoryDFS()
        wal = WriteAheadLog(dfs, "wal")
        wal.append_batch(_records(1))
        path = wal.current_path
        entries = dfs.read(path)
        replayed = (0, (KIND_RECORD, 9,
                        entry_digest(0, KIND_RECORD, 9, (9, ("x",))),
                        (9, ("x",))))
        dfs.append(path, [replayed])
        result = WriteAheadLog(dfs, "wal").replay()
        assert result.truncated_at == len(entries)
        assert [b.batch_id for b in result.batches] == [0]

    def test_damage_in_earlier_segment_hides_later_segments(self):
        dfs = InMemoryDFS()
        wal = WriteAheadLog(dfs, "wal")
        for i in range(3):
            wal.append_batch(_segment_batch(i))
        first = wal.segment_path(0)
        entries = dfs.read(first)
        entries[0] = ("garbage", "entry")
        dfs.write(first, entries, overwrite=True)
        result = WriteAheadLog(dfs, "wal").replay()
        assert result.batches == []
        assert result.truncated_at == 0
        assert result.truncated_entries == 3 * SEGMENT_ENTRIES

    def test_entry_digest_is_canonical(self):
        a = entry_digest(3, KIND_COMMIT, 1, 2)
        assert a == entry_digest(3, KIND_COMMIT, 1, 2)
        assert a != entry_digest(4, KIND_COMMIT, 1, 2)
        assert a != entry_digest(3, KIND_RECORD, 1, 2)
