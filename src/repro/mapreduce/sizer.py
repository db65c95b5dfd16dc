"""Serialized-size estimation for shuffle-byte accounting.

Hadoop shuffles serialized key/value pairs; the byte volume is the dominant
shuffle cost and one of the paper's headline comparisons (duplication blows
up shuffle bytes).  ``estimate_size`` approximates the wire size of the
Python values our jobs emit, cheaply and deterministically:

* ``str`` → its UTF-8-ish length (ASCII corpora: ``len``),
* ``int``/``float``/``bool``/``None`` → fixed widths (varint-style ints),
* containers → element sizes plus a small per-container header.

Exactness is irrelevant — only *relative* volumes matter for the paper's
comparisons — but the estimator must be monotone in payload size, which
this is.
"""

from __future__ import annotations

from typing import Any

_CONTAINER_OVERHEAD = 4
_NUMBER_SIZE = 8


def estimate_size(value: Any) -> int:
    """Approximate serialized byte size of ``value``.

    Record ids, token ranks, flat tuples of them and token strings are
    nearly everything a join shuffles, so the exact ``type(value)`` is
    tried first; any other value (subclasses included) takes the general
    ``isinstance`` chain, which sizes those kinds to the same number.
    """
    kind = type(value)
    if kind is int:
        # varint-style, 7 bits a byte: small ids are cheap, token ranks
        # stay small.
        return (value.bit_length() + 6) // 7 or 1
    if kind is tuple:
        size = _CONTAINER_OVERHEAD
        for item in value:
            item_kind = type(item)
            if item_kind is int:
                size += (item.bit_length() + 6) // 7 or 1
            elif item_kind is str:
                size += len(item) + 1
            else:
                size += estimate_size(item)
        return size
    if kind is str:
        return len(value) + 1
    return _estimate_general(value)


def _estimate_general(value: Any) -> int:
    """The full ``isinstance`` dispatch behind :func:`estimate_size`."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return (value.bit_length() + 6) // 7 or 1
    if isinstance(value, float):
        return _NUMBER_SIZE
    if isinstance(value, str):
        return len(value) + 1
    if isinstance(value, bytes):
        return len(value) + 1
    if isinstance(value, (tuple, list, set, frozenset)):
        return _CONTAINER_OVERHEAD + sum(estimate_size(item) for item in value)
    if isinstance(value, dict):
        return _CONTAINER_OVERHEAD + sum(
            estimate_size(k) + estimate_size(v) for k, v in value.items()
        )
    payload = getattr(value, "payload_size", None)
    if callable(payload):
        return int(payload())
    # Fallback: a stable, roughly size-proportional estimate.
    return len(repr(value))


def estimate_pair_size(key: Any, value: Any) -> int:
    """Approximate serialized size of one key/value pair."""
    return estimate_size(key) + estimate_size(value)
