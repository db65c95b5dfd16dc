"""Unit tests for stable hashing and partitioning."""

from __future__ import annotations

import math
import subprocess
import sys
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import ClusterSpec, SimulatedCluster
from repro.mapreduce.shuffle import default_partition, group_sort_key, stable_hash
from tests.conftest import Rank, shuffled_values

_MASK = (1 << 61) - 1


def reference_hash(value) -> int:
    """The partition hash as one plain recursive ``isinstance`` chain — the
    definition ``stable_hash``'s exact-type dispatch must agree with."""
    if value is None:
        return 0x9E3779B1
    if isinstance(value, bool):
        return reference_hash(int(value))
    if isinstance(value, int):
        return (value * 0x9E3779B97F4A7C15) & _MASK
    if isinstance(value, float):
        if math.isfinite(value) and value.is_integer():
            return reference_hash(int(value))
        if math.isinf(value):
            return 0x7F4A7C15 if value > 0 else 0x2545F491
        if math.isnan(value):
            return 0x6C62272E
        return reference_hash(value.as_integer_ratio())
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8")) * 0x9E3779B1 & _MASK
    if isinstance(value, bytes):
        return zlib.crc32(value) * 0x9E3779B1 & _MASK
    if isinstance(value, (tuple, list)):
        acc = 0x345678
        for item in value:
            acc = (acc * 1000003) ^ reference_hash(item)
            acc &= _MASK
        return acc ^ len(value)
    if isinstance(value, frozenset):
        acc = 0
        for item in value:
            acc ^= reference_hash(item)
        return acc & _MASK
    return zlib.crc32(repr(value).encode("utf-8")) & _MASK

keys = st.one_of(
    st.integers(-(2**40), 2**40),
    st.text(max_size=12),
    st.tuples(st.integers(0, 100), st.integers(0, 100)),
    st.booleans(),
    st.none(),
)

# Keys that can compare equal across Python types: True == 1 == 1.0,
# 2**53 == float(2**53), etc.  The partitioner contract demands equal
# hashes for all of them (see shuffle.py's module docstring).
numeric_keys = st.one_of(
    st.booleans(),
    st.integers(-(2**60), 2**60),
    st.floats(allow_nan=False, width=64),
    st.integers(-(2**60), 2**60).map(float).filter(lambda f: abs(f) < 2**63),
)


class TestMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(shuffled_values)
    def test_any_value(self, value):
        assert stable_hash(value) == reference_hash(value)

    @given(st.lists(st.integers(-(2**70), 2**70), max_size=6))
    def test_flat_int_tuples(self, items):
        assert stable_hash(tuple(items)) == reference_hash(tuple(items))
        mixed = tuple(items) + (Rank.HUGE, True, 2.0, "x", (1, 2))
        assert stable_hash(mixed) == reference_hash(mixed)


class TestStableHash:
    def test_deterministic_within_process(self):
        assert stable_hash("token") == stable_hash("token")

    def test_deterministic_across_processes(self):
        """Python's str hash is salted per process; ours must not be."""
        code = "from repro.mapreduce.shuffle import stable_hash; print(stable_hash('abc'))"
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True
            ).stdout.strip()
            for _ in range(2)
        }
        assert len(outputs) == 1
        assert outputs == {str(stable_hash("abc"))}

    def test_distinct_values_usually_differ(self):
        hashes = {stable_hash(f"tok{i}") for i in range(500)}
        assert len(hashes) > 490

    def test_tuple_order_matters(self):
        assert stable_hash((1, 2)) != stable_hash((2, 1))

    def test_frozenset_order_insensitive(self):
        assert stable_hash(frozenset([1, 2, 3])) == stable_hash(frozenset([3, 1, 2]))

    @given(keys)
    def test_nonnegative(self, key):
        assert stable_hash(key) >= 0

    @given(keys, keys)
    def test_equal_keys_equal_hashes(self, a, b):
        if a == b:
            assert stable_hash(a) == stable_hash(b)

    @given(numeric_keys, numeric_keys)
    def test_cross_type_numeric_equality(self, a, b):
        """Regression: ``a == b ⇒ stable_hash(a) == stable_hash(b)`` must
        hold even when ``type(a) is not type(b)`` — a key emitted as ``1``
        by one mapper and ``1.0`` by another lands on one reducer."""
        if a == b:
            assert stable_hash(a) == stable_hash(b)

    def test_bool_int_float_are_one_key(self):
        assert stable_hash(True) == stable_hash(1) == stable_hash(1.0)
        assert stable_hash(False) == stable_hash(0) == stable_hash(0.0)
        assert stable_hash(2**53) == stable_hash(float(2**53))

    def test_nested_numeric_keys_normalize(self):
        assert stable_hash((1, "x")) == stable_hash((1.0, "x")) == stable_hash((True, "x"))

    def test_nonintegral_floats_still_hash(self):
        assert stable_hash(0.5) == stable_hash(0.5)
        assert stable_hash(0.5) != stable_hash(1.5)

    def test_nonfinite_floats_hash_consistently(self):
        assert stable_hash(float("inf")) == stable_hash(float("inf"))
        assert stable_hash(float("-inf")) == stable_hash(float("-inf"))
        assert stable_hash(float("nan")) == stable_hash(float("nan"))
        assert stable_hash(float("inf")) != stable_hash(float("-inf"))


class TestDefaultPartition:
    @given(keys, st.integers(1, 64))
    def test_in_range(self, key, n):
        assert 0 <= default_partition(key, n) < n

    def test_spreads_keys(self):
        buckets = {default_partition(f"k{i}", 16) for i in range(200)}
        assert len(buckets) == 16


class TestGroupSortKey:
    def test_sorts_ints(self):
        assert sorted([3, 1, 2], key=group_sort_key) == [1, 2, 3]

    def test_sorts_tuples(self):
        items = [(2, 1), (1, 9), (1, 2)]
        assert sorted(items, key=group_sort_key) == [(1, 2), (1, 9), (2, 1)]

    def test_exotic_keys_fall_back_to_repr(self):
        class Odd:
            def __repr__(self):
                return "odd"

        sorted([Odd(), Odd()], key=group_sort_key)  # must not raise

    def test_mixed_int_and_str_keys(self):
        """Regression: ``sorted([1, "a"])`` raises TypeError in Python 3;
        group_sort_key must impose a total order across comparison classes."""
        mixed = ["b", 2, "a", 1, None, (1, "x"), True]
        once = sorted(mixed, key=group_sort_key)
        assert sorted(reversed(mixed), key=group_sort_key) == once
        # Within a class, natural order is preserved.
        assert [k for k in once if isinstance(k, str)] == ["a", "b"]
        assert [k for k in once if isinstance(k, int) and not isinstance(k, bool)] == [1, 2]

    def test_mixed_nested_tuple_keys(self):
        mixed = [(1, "a"), ("a", 1), (1, 2)]
        once = sorted(mixed, key=group_sort_key)
        assert sorted(reversed(mixed), key=group_sort_key) == once

    def test_bool_sorts_as_int(self):
        assert sorted([2, True, 0], key=group_sort_key) == [0, True, 2]


class MixedKeyJob(MapReduceJob):
    """Emits int and str keys from the same map phase."""

    name = "mixed-keys"

    def map(self, key, value, emit, context):
        emit(value, 1)          # str key
        emit(len(value), 1)     # int key

    def reduce(self, key, values, emit, context):
        emit(key, sum(values))


class TestMixedKeyJob:
    def test_reduce_handles_mixed_key_types(self):
        """Regression: the sorted group phase used to raise TypeError when a
        reducer partition received both int and str keys."""
        lines = [(i, w) for i, w in enumerate(["aa", "bb", "ccc", "aa"])]
        result = SimulatedCluster(ClusterSpec(workers=2)).run_job(
            MixedKeyJob(), lines, num_reduce_tasks=1
        )
        counts = dict(result.output)
        assert counts["aa"] == 2
        assert counts[2] == 3  # len("aa") twice + len("bb")
        assert counts[3] == 1

    def test_mixed_key_output_deterministic(self):
        lines = [(i, w) for i, w in enumerate(["aa", "bb", "ccc", "aa"])]
        runs = [
            SimulatedCluster(ClusterSpec(workers=2)).run_job(
                MixedKeyJob(), lines, num_reduce_tasks=1
            ).output
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
