"""Partitioning and grouping primitives for the shuffle phase.

Python's builtin ``hash`` is randomized per process for strings, which would
make task placement (and therefore metrics) non-reproducible.  The runtime
uses :func:`stable_hash` instead — a deterministic recursive hash over the
value kinds jobs emit as keys.

**Key-normalization contract.**  A partitioner must satisfy
``a == b ⇒ partition(a) == partition(b)``: Python collapses equal keys of
different numeric types into one dict entry (``1``, ``1.0`` and ``True``
are the *same* map-output group key), so if their hashes differed, one
logical key group could be routed to different reduce partitions depending
on which representative a mapper emitted first.  :func:`stable_hash`
therefore normalizes numerics before hashing — ``bool`` and integral
``float`` values are hashed through the ``int`` path, and the same rule
applies element-wise inside tuples/lists/frozensets — mirroring CPython's
own cross-type numeric hash invariant.  Property-tested in
``tests/test_mr_shuffle.py`` (``a == b ⇒ stable_hash(a) == stable_hash(b)``
over a mixed-type corpus).

:func:`group_sort_key` gives reducers a deterministic key order even when
one job emits keys of several incomparable types: keys are tagged by
comparison class (numbers, strings, bytes, tuples, …) before their value,
so ``sorted`` compares values only within a class and never raises
``TypeError``.
"""

from __future__ import annotations

import math
import zlib
from typing import Any

_MASK = (1 << 61) - 1
_INT_MULTIPLIER = 0x9E3779B97F4A7C15


def stable_hash(value: Any) -> int:
    """Deterministic, process-independent hash of common key types.

    Equal keys hash equal even across numeric types (see the module
    docstring): ``stable_hash(True) == stable_hash(1) == stable_hash(1.0)``.

    Join keys are ints, flat tuples of ints (record-id pairs, fragment
    coordinates) and token strings, so the exact ``type(value)`` is tried
    first; every other value — ``bool``, floats, subclasses — takes the
    general chain, which hashes those kinds to the same number.
    """
    kind = type(value)
    if kind is int:
        return (value * _INT_MULTIPLIER) & _MASK
    if kind is tuple:
        acc = 0x345678
        for item in value:
            if type(item) is int:
                acc = ((acc * 1000003) ^ ((item * _INT_MULTIPLIER) & _MASK)) & _MASK
            else:
                acc = ((acc * 1000003) ^ stable_hash(item)) & _MASK
        return acc ^ len(value)
    if kind is str:
        return zlib.crc32(value.encode("utf-8")) * 0x9E3779B1 & _MASK
    return _hash_general(value)


def _hash_general(value: Any) -> int:
    """The full ``isinstance`` dispatch behind :func:`stable_hash`."""
    if value is None:
        return 0x9E3779B1
    if isinstance(value, bool):
        # bool is an int subclass and True == 1: hash through the int path.
        return stable_hash(int(value))
    if isinstance(value, int):
        return (value * _INT_MULTIPLIER) & _MASK
    if isinstance(value, float):
        if math.isfinite(value) and value.is_integer():
            # 2.0 == 2 must land on the same partition as the int form.
            return stable_hash(int(value))
        if math.isinf(value):
            return 0x7F4A7C15 if value > 0 else 0x2545F491
        if math.isnan(value):  # NaN != NaN; any stable value will do.
            return 0x6C62272E
        return stable_hash(value.as_integer_ratio())
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8")) * 0x9E3779B1 & _MASK
    if isinstance(value, bytes):
        return zlib.crc32(value) * 0x9E3779B1 & _MASK
    if isinstance(value, (tuple, list)):
        acc = 0x345678
        for item in value:
            acc = (acc * 1000003) ^ stable_hash(item)
            acc &= _MASK
        return acc ^ len(value)
    if isinstance(value, frozenset):
        acc = 0
        for item in value:
            acc ^= stable_hash(item)
        return acc & _MASK
    return zlib.crc32(repr(value).encode("utf-8")) & _MASK


def default_partition(key: Any, n_partitions: int) -> int:
    """Hash partitioner (Hadoop's default): ``stable_hash(key) % n``."""
    return stable_hash(key) % n_partitions


def group_sort_key(key: Any):
    """Deterministic ordering for reduce groups, total across mixed types.

    Every key maps to a ``(class_tag, value)`` pair: tags (plain strings)
    order the comparison classes, and values are only compared within one
    class, where they are mutually comparable.  Numbers — ``bool``/``int``/
    ``float`` — share one class (Python compares them cross-type), tuples
    and lists recurse element-wise so ``(1, "a")`` and ``(1, 2)`` order
    deterministically instead of raising, and exotic types fall back to
    ``repr`` under a tag that sorts last.
    """
    if isinstance(key, bool):
        return ("num", int(key))
    if isinstance(key, (int, float)):
        return ("num", key)
    if isinstance(key, str):
        return ("str", key)
    if isinstance(key, bytes):
        return ("bytes", key)
    if isinstance(key, (tuple, list)):
        return ("tuple", tuple(group_sort_key(item) for item in key))
    if key is None:
        return ("none", 0)
    return ("~" + type(key).__name__, repr(key))
