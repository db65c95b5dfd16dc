"""Unit tests for the in-memory DFS, and its digest invariant as a state
machine over every mutating verb."""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import DFSError
from repro.mapreduce.hdfs import InMemoryDFS, content_digest
from repro.mapreduce.sizer import estimate_pair_size


class TestInMemoryDFS:
    def test_write_read_roundtrip(self):
        dfs = InMemoryDFS()
        dfs.write("out/part-0", [("k", 1), ("k2", 2)])
        assert dfs.read("out/part-0") == [("k", 1), ("k2", 2)]

    def test_missing_read_raises(self):
        with pytest.raises(DFSError):
            InMemoryDFS().read("nope")

    def test_overwrite_protection(self):
        dfs = InMemoryDFS()
        dfs.write("p", [])
        with pytest.raises(DFSError):
            dfs.write("p", [])

    def test_overwrite_allowed_when_requested(self):
        dfs = InMemoryDFS()
        dfs.write("p", [("a", 1)])
        dfs.write("p", [("b", 2)], overwrite=True)
        assert dfs.read("p") == [("b", 2)]

    def test_exists(self):
        dfs = InMemoryDFS()
        assert not dfs.exists("p")
        dfs.write("p", [])
        assert dfs.exists("p")

    def test_delete(self):
        dfs = InMemoryDFS()
        dfs.write("p", [])
        dfs.delete("p")
        assert not dfs.exists("p")

    def test_delete_missing_raises(self):
        with pytest.raises(DFSError):
            InMemoryDFS().delete("p")

    def test_size_accounting(self):
        dfs = InMemoryDFS()
        small = dfs.write("small", [("k", "v")])
        large = dfs.write("large", [("k", "v" * 100)])
        assert large > small
        assert dfs.size_bytes("small") == small
        assert dfs.size_bytes("large") == large

    def test_size_missing_raises(self):
        with pytest.raises(DFSError):
            InMemoryDFS().size_bytes("p")

    def test_list_paths_sorted(self):
        dfs = InMemoryDFS()
        dfs.write("b", [])
        dfs.write("a", [])
        assert dfs.list_prefix("") == ["a", "b"]


class TestAtomicOverwrite:
    def test_failed_overwrite_preserves_old_content(self):
        """write(overwrite=True) stages fully before the commit point."""
        dfs = InMemoryDFS()
        dfs.write("p", [("old", 1)])

        def exploding_pairs():
            yield ("new", 2)
            raise RuntimeError("producer died mid-stream")

        with pytest.raises(RuntimeError):
            dfs.write("p", exploding_pairs(), overwrite=True)
        assert dfs.read("p") == [("old", 1)]
        assert dfs.size_bytes("p") > 0

    def test_failed_fresh_write_leaves_no_partial_file(self):
        dfs = InMemoryDFS()

        def exploding_pairs():
            yield ("new", 2)
            raise RuntimeError("producer died mid-stream")

        with pytest.raises(RuntimeError):
            dfs.write("p", exploding_pairs())
        assert not dfs.exists("p")
        with pytest.raises(DFSError):
            dfs.size_bytes("p")


class TestAppend:
    def test_append_creates_then_extends(self):
        dfs = InMemoryDFS()
        dfs.append("log", [("a", 1)])
        dfs.append("log", [("b", 2), ("c", 3)])
        assert dfs.read("log") == [("a", 1), ("b", 2), ("c", 3)]

    def test_append_size_and_digest_track_content(self):
        dfs = InMemoryDFS()
        first = dfs.append("log", [("a", 1)])
        second = dfs.append("log", [("b", "v" * 50)])
        assert second > first
        assert dfs.size_bytes("log") == first + second
        assert dfs.verify("log")

    def test_append_to_written_file(self):
        dfs = InMemoryDFS()
        dfs.write("p", [("a", 1)])
        dfs.append("p", [("b", 2)])
        assert dfs.read("p") == [("a", 1), ("b", 2)]
        assert dfs.verify("p")

    def test_torn_append_leaves_file_untouched(self):
        """A fault at the append's check point is all-or-nothing: the
        existing entries, size accounting and digest are unchanged."""
        from repro.chaos import ChaosConfig, FaultInjector, FaultSchedule

        injector = FaultInjector(FaultSchedule(0, ChaosConfig()))
        dfs = injector.attach_dfs(InMemoryDFS())
        dfs.append("log", [("a", 1)])
        size = dfs.size_bytes("log")
        digest = dfs.digest("log")
        injector.schedule_kill("append", "log")
        with pytest.raises(DFSError):
            dfs.append("log", [("b", 2)])
        assert dfs.read("log") == [("a", 1)]
        assert dfs.size_bytes("log") == size
        assert dfs.digest("log") == digest
        assert dfs.verify("log")

    def test_torn_producer_leaves_file_untouched(self):
        dfs = InMemoryDFS()
        dfs.append("log", [("a", 1)])

        def exploding_pairs():
            yield ("b", 2)
            raise RuntimeError("producer died mid-append")

        with pytest.raises(RuntimeError):
            dfs.append("log", exploding_pairs())
        assert dfs.read("log") == [("a", 1)]
        assert dfs.verify("log")


class TestListPrefix:
    def test_list_prefix_filters_and_sorts(self):
        dfs = InMemoryDFS()
        for path in ("wal/00000002", "wal/00000000", "wal/00000001",
                     "other/x", "walx"):
            dfs.write(path, [])
        assert dfs.list_prefix("wal/") == [
            "wal/00000000", "wal/00000001", "wal/00000002",
        ]

    def test_list_prefix_empty(self):
        assert InMemoryDFS().list_prefix("wal/") == []


class TestAppendKeepsDamageVisible:
    """The recorded digest continues from what was *written*: an append
    must not re-derive it from stored content that has since rotted."""

    def test_append_after_corruption_does_not_launder_it(self):
        dfs = InMemoryDFS()
        dfs.append("log", [("a", 1), ("b", 2)])
        dfs.corrupt("log")
        assert not dfs.verify("log")
        dfs.append("log", [("c", 3)])
        dfs.append("log", [("d", 4)])
        assert not dfs.verify("log")

    def test_nor_on_a_written_path(self):
        """``write`` keeps the state its digest came from, so a first
        append has no stored content to re-hash."""
        dfs = InMemoryDFS()
        dfs.write("tmp", [("a", 1), ("b", 2)])
        path = "tmp"
        dfs.corrupt(path)
        dfs.append(path, [("c", 3)])
        dfs.append(path, [("d", 4)])
        assert not dfs.verify(path)

    def test_overwriting_the_damage_clears_it(self):
        dfs = InMemoryDFS()
        dfs.append("log", [("a", 1)])
        dfs.corrupt("log")
        dfs.write("log", [("a", 1)], overwrite=True)
        dfs.append("log", [("b", 2)])
        assert dfs.verify("log")
        assert dfs.digest("log") == content_digest([("a", 1), ("b", 2)])


PATHS = ["wal/0", "wal/1", "out"]
chunks = st.lists(
    st.tuples(st.integers(0, 50), st.text(max_size=6)), max_size=4
)


class DFSDigestMachine(RuleBasedStateMachine):
    """Any interleaving of the mutating verbs against a dict model: after
    every step each path's recorded digest is ``content_digest`` of what
    ``read`` returns and its size the sum of its chunks' sizes — except
    that a path damaged by ``corrupt`` fails ``verify`` until it is
    overwritten or deleted, however many appends follow."""

    def __init__(self):
        super().__init__()
        self.refused = set()
        self.dfs = InMemoryDFS(fault_hook=self._hook)
        self.model = {}
        self.sizes = {}
        self.damaged = set()

    def _hook(self, op, path):
        if (op, path) in self.refused:
            raise DFSError(f"injected {op} fault on {path!r}")

    def _state(self, path):
        if path not in self.model:
            return None
        return (list(self.dfs.read(path)), self.dfs.size_bytes(path),
                self.dfs.digest(path))

    @staticmethod
    def _size(chunk):
        return sum(estimate_pair_size(k, v) for k, v in chunk)

    @rule(path=st.sampled_from(PATHS), chunk=chunks, overwrite=st.booleans())
    def write(self, path, chunk, overwrite):
        if path in self.model and not overwrite:
            before = self._state(path)
            with pytest.raises(DFSError):
                self.dfs.write(path, chunk)
            assert self._state(path) == before
            return
        self.dfs.write(path, chunk, overwrite=overwrite)
        self.model[path] = list(chunk)
        self.sizes[path] = self._size(chunk)
        self.damaged.discard(path)

    @rule(path=st.sampled_from(PATHS), chunk=chunks)
    def append(self, path, chunk):
        earlier = self.dfs.read(path) if path in self.model else []
        snapshot = list(earlier)
        self.dfs.append(path, iter(chunk))
        assert earlier == snapshot, "a reader's list grew under it"
        self.model[path] = self.model.get(path, []) + list(chunk)
        self.sizes[path] = self.sizes.get(path, 0) + self._size(chunk)

    @rule(path=st.sampled_from(PATHS), chunk=chunks,
          refused=st.booleans())
    def failed_append(self, path, chunk, refused):
        """The fault hook refuses the append, or its generator dies."""
        def dying():
            yield from chunk
            raise RuntimeError("producer died mid-append")

        before = self._state(path)
        if refused:
            self.refused.add(("append", path))
            with pytest.raises(DFSError):
                self.dfs.append(path, chunk)
            self.refused.clear()
        else:
            with pytest.raises(RuntimeError):
                self.dfs.append(path, dying())
        assert self._state(path) == before
        assert self.dfs.exists(path) == (path in self.model)

    @rule(path=st.sampled_from(PATHS))
    def delete(self, path):
        if path not in self.model:
            with pytest.raises(DFSError):
                self.dfs.delete(path)
            return
        self.dfs.delete(path)
        del self.model[path], self.sizes[path]
        self.damaged.discard(path)

    @rule(path=st.sampled_from(PATHS))
    def corrupt(self, path):
        if path in self.model:
            self.dfs.corrupt(path)
            self.damaged.add(path)

    @invariant()
    def digests_sizes_and_damage_agree_with_the_model(self):
        assert self.dfs.list_prefix("") == sorted(self.model)
        for path, pairs in self.model.items():
            assert self.dfs.size_bytes(path) == self.sizes[path]
            if path in self.damaged:
                assert not self.dfs.verify(path)
            else:
                assert self.dfs.read(path) == pairs
                assert self.dfs.digest(path) == content_digest(pairs)


TestDFSDigestMachine = DFSDigestMachine.TestCase
TestDFSDigestMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
