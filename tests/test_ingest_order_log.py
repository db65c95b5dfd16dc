"""The order log: the tier's shared order, persisted once and recovered exactly.

Model-based: a streaming tier is driven through appends (known and fresh
tokens mixed), flushes, compactions (minor, major) and crashes at
every DFS operation a persist performs, each followed by ``recover`` — and
after every step the log on the DFS, the orders the tiers hold and the
answers must agree with a model that is nothing but the list of
acknowledged records.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.data.records import Record, RecordCollection
from repro.errors import DFSError, IngestError
from repro.ingest import IngestConfig, StreamingIndex
from repro.mapreduce.hdfs import InMemoryDFS
from tests.conftest import brute_force_search

#: t00–t11 are the base corpus's vocabulary; the rest are fresh to the tier
#: the first time a batch brings them.
POOL = [f"t{i:02d}" for i in range(36)]
BASE = [
    Record.make(rid, POOL[rid % 5:rid % 5 + 3 + rid % 4]) for rid in range(8)
]
#: Flushes and compactions happen only when a rule asks: the memtable limit
#: is beyond any stream a run appends, and minor compactions merge pairs.
CONFIG = IngestConfig(memtable_limit=1_000, fanout=2)

token_sets = st.sets(st.sampled_from(POOL), min_size=1, max_size=6)
batches = st.lists(token_sets, min_size=1, max_size=4)

#: kill target → (DFS op, which paths of the tier it names).
TARGETS = {
    "order-log": ("append", lambda s: s.order_log.path),
    "segment": ("write", lambda s: s.segments.root + "/"),
    "manifest-version": ("write", lambda s: s.manifests.root + "/v-"),
    "current": ("write", lambda s: s.manifests.current_path),
    "committed": ("write", lambda s: s.manifests.committed_path),
    "wal": ("append", lambda s: s.wal.root + "/"),
}


class OrderLogMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dfs = InMemoryDFS(fault_hook=self._hook)
        self.kill = None  # (op, path prefix, matching ops still to let by)
        self.acked = []
        self.next_rid = 100

    def _hook(self, op, path):
        if self.kill is None:
            return
        kill_op, prefix, skip = self.kill
        if op == kill_op and path.startswith(prefix):
            if skip:
                self.kill = (kill_op, prefix, skip - 1)
                return
            self.kill = None
            raise DFSError(f"injected {op} fault on {path!r}")

    @initialize(with_base=st.booleans())
    def bootstrap(self, with_base):
        base = BASE if with_base else []
        self.live = StreamingIndex.create(
            self.dfs, records=RecordCollection(base) if base else None,
            n_vertical=4, config=CONFIG,
        )
        self.acked = list(base)

    def _records(self, batch):
        records = [
            Record.make(self.next_rid + i, sorted(tokens))
            for i, tokens in enumerate(batch)
        ]
        self.next_rid += len(records)
        return records

    @rule(batch=batches)
    def append(self, batch):
        records = self._records(batch)
        self.live.apply_batch(records)
        self.acked.extend(records)

    @rule()
    def flush(self):
        self.live.flush()

    @rule(major=st.booleans())
    def compact(self, major):
        if not major:
            self.live.compact()
            return
        self.live.compact(major=True)
        if len(self.live.generations) == 1:
            assert pickle.dumps(
                self.live.generations[0].index
            ) == pickle.dumps(self.live.to_segment_index())

    @rule(point=st.sampled_from(sorted(TARGETS)), skip=st.integers(0, 2),
          batch=batches, major=st.booleans())
    def crash_and_recover(self, point, skip, batch, major):
        """Kill the next (``skip``-th next) DFS op on ``point`` under an
        append followed by a flush or a major compaction; restart."""
        op, prefix = TARGETS[point]
        self.kill = (op, prefix(self.live), skip)
        records = self._records(batch)
        try:
            self.live.apply_batch(records)
            self.acked.extend(records)
            if major:
                self.live.compact(major=True)
            else:
                self.live.flush()
        except DFSError:
            pass
        self.kill = None
        before = self.live.order
        self.live = StreamingIndex.recover(self.dfs, config=CONFIG)
        after = self.live.order
        # The log's committed prefix, then the WAL's deterministic
        # re-interning: the recovered order is the live order, id for id.
        assert self.live.order_log.size <= after.vocab_size
        assert after.entries() == before.entries()[:after.vocab_size]
        # Nothing a crashed persist appended is left beyond the commit.
        assert self._logged_ids() == self.live.order_log.size == max(
            gen.order_size for gen in self.live.generations
        )

    def _logged_ids(self):
        """Ids in the log file, checking each chunk starts where the one
        before it ended."""
        logged = 0
        path = self.live.order_log.path
        if self.dfs.exists(path):
            assert self.dfs.verify(path)
            live = self.live.order.entries()
            for first_id, entries in self.dfs.read(path):
                assert first_id == logged
                assert entries == live[first_id:first_id + len(entries)]
                logged += len(entries)
        return logged

    @invariant()
    def one_order_logged_once(self):
        live = self.live
        assert self._logged_ids() == live.order_log.size
        assert live.order_log.size <= live.order.vocab_size
        assert live.memtable.order is live.order
        for gen in live.generations:
            assert gen.index.order is live.order
            assert gen.order_size <= live.order_log.size

    @invariant()
    def answers_are_the_acknowledged_records(self):
        assert len(self.live) == len(self.acked)
        queries = [record.tokens for record in self.acked[-3:]] + [POOL[:4]]
        for tokens in queries:
            for theta in (0.5, 0.8):
                assert self.live.probe(tokens, theta) == brute_force_search(
                    self.acked, tokens, theta)


TestOrderLogMachine = OrderLogMachine.TestCase
TestOrderLogMachine.settings = settings(
    max_examples=60, stateful_step_count=20, deadline=None
)


def _flushed_tier():
    dfs = InMemoryDFS()
    streaming = StreamingIndex.create(
        dfs, records=RecordCollection(BASE), n_vertical=4, config=CONFIG
    )
    streaming.apply_batch([Record.make(100, POOL[10:16])])
    streaming.flush()
    return dfs, streaming


class TestOrderLogRecovery:
    def test_corrupt_order_log_fails_recovery_closed(self):
        """Bit rot in the log is a typed refusal — never a traceback from
        a malformed chunk, never an order silently ranked otherwise."""
        dfs, streaming = _flushed_tier()
        dfs.corrupt(streaming.order_log.path)
        with pytest.raises(IngestError) as caught:
            StreamingIndex.recover(dfs, config=CONFIG)
        message = str(caught.value)
        assert "\n" not in message
        assert "order log" in message and "integrity check" in message

    def test_log_shorter_than_the_commit_fails_closed(self):
        dfs, streaming = _flushed_tier()
        first_chunk = dfs.read(streaming.order_log.path)[:1]
        dfs.write(streaming.order_log.path, first_chunk, overwrite=True)
        with pytest.raises(IngestError, match="committed size"):
            StreamingIndex.recover(dfs, config=CONFIG)

    def test_no_payload_holds_a_token(self):
        dfs, streaming = _flushed_tier()
        streaming.compact(major=True)
        for gen in streaming.generations:
            body = dict(dfs.read(gen.path))["index"]
            assert not any(
                token.encode("utf-8") in body for token in POOL
            )
        assert [
            path for path in dfs.list_prefix("") if path.endswith("/order")
        ] == [streaming.order_log.path]
