"""Token interning for the columnar serving hot path.

:class:`TokenVocab` is the serving layer's view of the corpus vocabulary:
every token is interned to a dense integer id in **global frequency order**
(id 0 = rarest token), so prefix membership, position comparisons and
posting-list keys are all plain integer compares over
:class:`array.array` columns instead of string hashing.

The vocab is a thin façade over :class:`~repro.core.ordering.GlobalOrder`
— the same total order the offline FS-Join pipeline shuffles under — so an
index and the cluster router encode queries identically by construction.
Two invariants the property tests (``tests/test_service_vocab.py``) pin
down:

* **round trip** — ``decode(encode_record(tokens))`` returns the tokens
  (sorted by id, deduplicated);
* **id stability under growth** — :meth:`extend` (the ``apply_batch``
  hook) only ever *appends* ids: an interned token keeps its id forever,
  so encoded records, pivot cuts and posting columns built before a batch
  stay valid after it.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Iterable, List, Sequence, Tuple

from repro.core.ordering import GlobalOrder
from repro.errors import DataError

#: Array typecode for token-id columns: 4-byte unsigned.  Ids are dense
#: from 0, so 32 bits cover any vocabulary an index can hold in memory.
ID_TYPECODE = "I"
assert array(ID_TYPECODE).itemsize == 4, "token-id columns need 4 bytes"
#: The largest token id an id column holds.
ID_MAX = 2**32 - 1


def _too_large(token: str, tid: int) -> DataError:
    return DataError(
        f"token {token!r} has id {tid}, beyond the {ID_MAX} the index's "
        "4-byte id columns hold"
    )


class TokenVocab:
    """Dense, frequency-ordered token ids over a :class:`GlobalOrder`.

    The vocab *shares* the order object (it does not copy it), so extending
    the vocab extends the order and vice versa — index, service and router
    always agree on the interning.
    """

    __slots__ = ("order",)

    def __init__(self, order: GlobalOrder) -> None:
        self.order = order

    # -- introspection -------------------------------------------------
    @property
    def size(self) -> int:
        return self.order.vocab_size

    def knows(self, token: str) -> bool:
        return self.order.knows(token)

    # -- encoding ------------------------------------------------------
    def encode_record(self, tokens: Iterable[str]) -> array:
        """Intern a record's tokens to a strictly increasing id column.

        Raises :class:`DataError` when a token is not interned — records
        must be admitted through :meth:`extend` (or the ordering job)
        first — or when its id does not fit the column.
        """
        rank = self.order._rank
        distinct = set(tokens)
        try:
            ids = sorted(rank[token] for token in distinct)
        except KeyError as exc:
            raise DataError(
                f"token {exc.args[0]!r} not in the vocabulary"
            ) from None
        try:
            return array(ID_TYPECODE, ids)
        except OverflowError:
            token = max(distinct, key=rank.__getitem__)
            raise _too_large(token, rank[token]) from None

    def encode_known(self, tokens: Iterable[str]) -> Tuple[List[int], int]:
        """Intern the known tokens of a probe; count the unknown ones.

        Returns ``(sorted known ids, n_unknown)`` — the raw material of an
        :class:`~repro.service.index.EncodedQuery`.  Unknown tokens can
        match nothing but still enlarge the query set, so the caller keeps
        the count for the size-dependent bounds.
        """
        rank = self.order._rank
        ids: List[int] = []
        unknown = 0
        for token in set(tokens):
            tid = rank.get(token)
            if tid is None:
                unknown += 1
            else:
                ids.append(tid)
        ids.sort()
        return ids, unknown

    # -- growth --------------------------------------------------------
    def unseen(self, tokens: Iterable[str]) -> Counter:
        """Count the tokens not interned yet — what :meth:`extend` takes.

        Interning nothing, it raises the :class:`DataError` that
        :meth:`encode_record` would for a known token whose id does not
        fit the id column.  (The ids :meth:`extend` hands out are dense,
        so new tokens run out of room only past 2**32 interned strings,
        more than a process holds.)
        """
        rank = self.order._rank
        fresh: Counter = Counter()
        for token in tokens:
            tid = rank.get(token)
            if tid is None:
                fresh[token] += 1
            elif tid > ID_MAX:
                raise _too_large(token, tid)
        return fresh

    def extend(self, frequencies: Sequence[Tuple[str, int]]) -> int:
        """Intern unseen tokens *after* every existing id; returns the count.

        Delegates to :meth:`GlobalOrder.extend`: new tokens are appended in
        ``(frequency, token)`` order among themselves, existing ids are
        never remapped.
        """
        return self.order.extend(frequencies)
