"""Unit tests for dataset statistics (Table III quantities)."""

from __future__ import annotations

import pytest

from repro.data.records import RecordCollection
from repro.data.stats import DatasetStats, dataset_stats
from tests.conftest import records_of


class TestDatasetStats:
    def test_empty_collection(self):
        stats = dataset_stats(RecordCollection())
        assert stats.n_records == 0
        assert stats.mean_len == 0.0

    def test_counts(self):
        records = records_of(
            [["a", "b"], ["b", "c", "d"], ["a"]]
        )
        stats = dataset_stats(records)
        assert stats.n_records == 3
        assert stats.n_tokens == 6
        assert stats.vocab_size == 4

    def test_length_bounds(self):
        records = records_of([["a"], ["a", "b", "c"]])
        stats = dataset_stats(records)
        assert stats.min_len == 1
        assert stats.max_len == 3
        assert stats.mean_len == pytest.approx(2.0)

    def test_top_token_share(self):
        records = records_of(
            [["a", "b"], ["a", "c"], ["a", "d"]]
        )
        stats = dataset_stats(records)
        assert stats.top_token_share == pytest.approx(3 / 6)

    def test_size_bytes_positive(self):
        records = records_of([["hello", "world"]])
        assert dataset_stats(records).size_bytes == len("hello") + len("world") + 2

    def test_as_row_keys(self):
        row = dataset_stats(records_of([["a"]])).as_row()
        assert {"records", "vocab", "min_len", "max_len", "mean_len"} <= set(row)

    def test_frozen(self):
        stats = dataset_stats(RecordCollection())
        with pytest.raises(AttributeError):
            stats.n_records = 5

    def test_is_dataclass_instance(self):
        assert isinstance(dataset_stats(RecordCollection()), DatasetStats)
