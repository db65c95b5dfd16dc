"""Unit tests for the shuffle-byte sizer."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitioning import Segment, SegmentInfo
from repro.mapreduce.sizer import estimate_pair_size, estimate_size
from tests.conftest import Rank, shuffled_values


def reference_size(value) -> int:
    """The sizer as one plain recursive ``isinstance`` chain — the
    definition ``estimate_size``'s exact-type dispatch must agree with."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        magnitude = abs(value)
        size = 1
        while magnitude >= 128:
            magnitude >>= 7
            size += 1
        return size
    if isinstance(value, float):
        return 8
    if isinstance(value, (str, bytes)):
        return len(value) + 1
    if isinstance(value, (tuple, list, set, frozenset)):
        return 4 + sum(reference_size(item) for item in value)
    if isinstance(value, dict):
        return 4 + sum(
            reference_size(k) + reference_size(v) for k, v in value.items()
        )
    payload = getattr(value, "payload_size", None)
    if callable(payload):
        return int(payload())
    return len(repr(value))


class TestMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(shuffled_values)
    def test_any_value(self, value):
        assert estimate_size(value) == reference_size(value)

    @given(st.integers(-(2**70), 2**70))
    def test_varint_closed_form(self, value):
        assert estimate_size(value) == reference_size(value)
        assert estimate_size((value, Rank.HUGE, -value)) == reference_size(
            (value, Rank.HUGE, -value)
        )

    def test_varint_boundaries(self):
        for bits in range(0, 80):
            for value in (2**bits - 1, 2**bits, -(2**bits), 2**bits + 1):
                assert estimate_size(value) == reference_size(value), value


class TestScalarSizes:
    def test_none(self):
        assert estimate_size(None) == 1

    def test_bool(self):
        assert estimate_size(True) == 1

    def test_small_int(self):
        assert estimate_size(5) == 1

    def test_varint_growth(self):
        assert estimate_size(1_000_000) > estimate_size(100)

    def test_float(self):
        assert estimate_size(3.14) == 8

    def test_str(self):
        assert estimate_size("abcd") == 5

    def test_bytes(self):
        assert estimate_size(b"xy") == 3


class TestContainerSizes:
    def test_tuple(self):
        assert estimate_size((1, 2)) == 4 + 1 + 1

    def test_nested(self):
        flat = estimate_size((1, 2, 3))
        nested = estimate_size(((1, 2), 3))
        assert nested == flat + 4  # one extra container header

    def test_dict(self):
        assert estimate_size({"a": 1}) == 4 + 2 + 1

    def test_pair(self):
        assert estimate_pair_size("k", 1) == estimate_size("k") + estimate_size(1)

    @given(st.lists(st.integers(0, 100)))
    def test_monotone_in_length(self, items):
        assert estimate_size(tuple(items)) >= estimate_size(tuple(items[:-1]) if items else ())


class TestPayloadHook:
    def test_segment_uses_payload_size(self):
        segment = Segment(SegmentInfo(1, 10, 0, 5), (1, 2, 3, 4, 5))
        assert estimate_size(segment) == 12 + 3 * 5

    def test_larger_segment_costs_more(self):
        small = Segment(SegmentInfo(1, 10, 0, 5), (1, 2))
        large = Segment(SegmentInfo(1, 10, 0, 5), tuple(range(20)))
        assert estimate_size(large) > estimate_size(small)


class TestFallback:
    def test_unknown_object_uses_repr(self):
        class Odd:
            def __repr__(self):
                return "x" * 10

        assert estimate_size(Odd()) == 10
