"""Unit tests for repro.data.records."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.records import Record, RecordCollection
from repro.errors import DataError
from tests.conftest import records_of


class TestRecord:
    def test_make_deduplicates(self):
        record = Record.make(1, ["a", "b", "a", "c", "b"])
        assert record.tokens == ("a", "b", "c")

    def test_make_preserves_first_seen_order(self):
        record = Record.make(1, ["c", "a", "c", "b"])
        assert record.tokens == ("c", "a", "b")

    def test_size(self):
        assert Record.make(0, ["x", "y"]).size == 2

    def test_empty(self):
        record = Record.make(0, [])
        assert record.size == 0
        assert record.token_set() == frozenset()

    def test_token_set(self):
        assert Record.make(0, ["a", "b"]).token_set() == {"a", "b"}

    def test_frozen(self):
        record = Record.make(0, ["a"])
        with pytest.raises(AttributeError):
            record.rid = 5

    @given(st.lists(st.text(min_size=1, max_size=3)))
    def test_make_always_unique(self, tokens):
        record = Record.make(0, tokens)
        assert len(record.tokens) == len(set(record.tokens))
        assert set(record.tokens) == set(tokens)


class TestRecordCollection:
    def test_iteration_order(self):
        collection = records_of([["a"], ["b"], ["c"]])
        assert [record.rid for record in collection] == [0, 1, 2]

    def test_len(self):
        assert len(records_of([["a"], ["b"]])) == 2

    def test_getitem(self):
        collection = records_of([["a"], ["b"]])
        assert collection[1].tokens == ("b",)

    def test_get_by_rid(self):
        collection = RecordCollection([Record.make(7, ["x"])])
        assert collection.get(7).tokens == ("x",)

    def test_get_missing_raises(self):
        with pytest.raises(DataError):
            RecordCollection().get(0)

    def test_duplicate_rid_rejected(self):
        collection = RecordCollection([Record.make(1, ["a"])])
        with pytest.raises(DataError):
            collection.add(Record.make(1, ["b"]))

    def test_copy_constructor(self):
        original = records_of([["a"], ["b"]])
        copy = RecordCollection(original)
        assert len(copy) == 2
        assert copy.get(0) is original.get(0)
