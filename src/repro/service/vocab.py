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
from typing import Iterable, List, Sequence, Tuple

from repro.core.ordering import GlobalOrder
from repro.errors import DataError

#: Array typecode for token-id columns (signed native long, ≥ 32 bits;
#: 64 bits on every mainstream platform we target).
ID_TYPECODE = "l"


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
        first.
        """
        rank = self.order._rank
        try:
            ids = sorted(rank[token] for token in set(tokens))
        except KeyError as exc:
            raise DataError(
                f"token {exc.args[0]!r} not in the vocabulary"
            ) from None
        return array(ID_TYPECODE, ids)

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
    def extend(self, frequencies: Sequence[Tuple[str, int]]) -> int:
        """Intern unseen tokens *after* every existing id; returns the count.

        Delegates to :meth:`GlobalOrder.extend`: new tokens are appended in
        ``(frequency, token)`` order among themselves, existing ids are
        never remapped.
        """
        return self.order.extend(frequencies)
