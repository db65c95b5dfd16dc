"""Tests for the global ordering phase."""

from __future__ import annotations

import pytest

from repro.core.ordering import GlobalOrder, compute_global_ordering
from repro.data.records import Record, RecordCollection
from repro.errors import DataError


def rank_of(order, token):
    """``token``'s rank: its position in the order's entries."""
    return [entry for entry, _ in order.entries()].index(token)


def frequency_of(order, token):
    return dict(order.entries())[token]


class TestGlobalOrder:
    def test_ascending_frequency(self):
        order = GlobalOrder([("common", 10), ("rare", 1), ("mid", 5)])
        assert rank_of(order, "rare") == 0
        assert rank_of(order, "mid") == 1
        assert rank_of(order, "common") == 2

    def test_ties_broken_lexicographically(self):
        order = GlobalOrder([("b", 3), ("a", 3)])
        assert rank_of(order, "a") == 0
        assert rank_of(order, "b") == 1

    def test_vocab_size(self):
        assert GlobalOrder([("a", 1), ("b", 2)]).vocab_size == 2

    def test_token_inverse(self):
        order = GlobalOrder([("x", 2), ("y", 1)])
        assert order.token(rank_of(order, "x")) == "x"

    def test_divergence_from_a_live_order(self):
        stored = GlobalOrder([("a", 1), ("b", 2)])
        live = GlobalOrder([("a", 1), ("b", 2)])
        assert stored.divergence_from(live) is None
        live.extend([("c", 5)])
        assert stored.divergence_from(live) is None
        assert live.divergence_from(stored) == 2
        assert GlobalOrder([("a", 1), ("x", 2)]).divergence_from(live) == 1
        assert GlobalOrder([]).divergence_from(live) is None

    def test_rank_frequencies_sorted(self):
        order = GlobalOrder([("a", 9), ("b", 1), ("c", 4)])
        assert list(order.rank_frequencies) == [1, 4, 9]

    def test_encode_sorted(self):
        order = GlobalOrder([("a", 3), ("b", 1), ("c", 2)])
        record = Record.make(0, ["a", "b", "c"])
        ranks = order.encode(record)
        assert list(ranks) == sorted(ranks)
        assert order.decode(ranks) == ("b", "c", "a")

    def test_encode_unknown_token_raises(self):
        order = GlobalOrder([("a", 1)])
        with pytest.raises(DataError):
            order.encode(Record.make(0, ["a", "zzz"]))

    def test_encode_strictly_increasing(self):
        order = GlobalOrder([(f"t{i}", i + 1) for i in range(10)])
        ranks = order.encode(Record.make(0, [f"t{i}" for i in range(0, 10, 2)]))
        assert all(x < y for x, y in zip(ranks, ranks[1:]))


class TestComputeGlobalOrdering:
    def test_frequencies_correct(self, cluster, small_records):
        order, result = compute_global_ordering(cluster, small_records)
        # "a" appears in records 0, 1, 2.
        assert frequency_of(order, "a") == 3
        assert frequency_of(order, "q") == 1

    def test_rare_tokens_first(self, cluster, small_records):
        order, _ = compute_global_ordering(cluster, small_records)
        assert rank_of(order, "q") < rank_of(order, "a")

    def test_covers_whole_vocabulary(self, cluster, medium_records):
        order, _ = compute_global_ordering(cluster, medium_records)
        vocab = {token for record in medium_records for token in record.tokens}
        assert order.vocab_size == len(vocab)
        for token in vocab:
            assert 0 <= rank_of(order, token) < order.vocab_size

    def test_job_result_metrics(self, cluster, medium_records):
        _, result = compute_global_ordering(cluster, medium_records)
        assert result.metrics.job_name == "fsjoin-ordering"
        assert result.metrics.input_records == len(medium_records)

    def test_combiner_active(self, cluster, medium_records):
        _, result = compute_global_ordering(cluster, medium_records)
        total_tokens = sum(record.size for record in medium_records)
        assert result.metrics.shuffle_records < total_tokens
