"""Unit tests for repro.mapreduce.counters."""

from __future__ import annotations

from repro.mapreduce.counters import Counters


class TestCounters:
    def test_default_zero(self):
        assert Counters().get("g", "n") == 0

    def test_increment(self):
        counters = Counters()
        counters.increment("g", "n")
        counters.increment("g", "n", 4)
        assert counters.get("g", "n") == 5

    def test_groups_independent(self):
        counters = Counters()
        counters.increment("a", "x")
        counters.increment("b", "x", 2)
        assert counters.get("a", "x") == 1
        assert counters.get("b", "x") == 2

    def test_group_snapshot(self):
        counters = Counters()
        counters.increment("g", "one")
        counters.increment("g", "two", 2)
        assert counters.group("g") == {"one": 1, "two": 2}

    def test_group_snapshot_is_copy(self):
        counters = Counters()
        counters.increment("g", "n")
        snapshot = counters.group("g")
        snapshot["n"] = 99
        assert counters.get("g", "n") == 1

    def test_merge(self):
        left, right = Counters(), Counters()
        left.increment("g", "n", 1)
        right.increment("g", "n", 2)
        right.increment("h", "m", 3)
        left.merge(right)
        assert left.get("g", "n") == 3
        assert left.get("h", "m") == 3

    def test_merge_does_not_mutate_source(self):
        left, right = Counters(), Counters()
        right.increment("g", "n", 2)
        left.merge(right)
        left.increment("g", "n")
        assert right.get("g", "n") == 2

    def test_as_dict(self):
        counters = Counters()
        counters.increment("g", "n", 7)
        assert counters.as_dict() == {"g": {"n": 7}}
