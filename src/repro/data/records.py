"""Record types used throughout the package.

A :class:`Record` is a record id plus its token *set*, stored as a tuple of
unique tokens (SSJoin semantics: the string is a set of tokens, duplicates
within one record are dropped).  Token order inside a ``Record`` carries no
meaning; the ordering phase of each algorithm re-sorts tokens under a global
ordering and works with integer token ranks from then on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.errors import DataError


@dataclass(frozen=True)
class Record:
    """One input record: an id and its unique tokens.

    Attributes:
        rid: Record identifier, unique within a collection.
        tokens: Unique tokens, in no particular order.
    """

    rid: int
    tokens: Tuple[str, ...]

    @staticmethod
    def make(rid: int, tokens: Iterable[str]) -> "Record":
        """Build a record, de-duplicating tokens but keeping first-seen order."""
        seen = dict.fromkeys(tokens)
        return Record(rid, tuple(seen))

    @property
    def size(self) -> int:
        """Number of (unique) tokens."""
        return len(self.tokens)

    def token_set(self) -> frozenset:
        """The tokens as a frozenset (for set-algebra callers)."""
        return frozenset(self.tokens)


class RecordCollection:
    """An ordered collection of records with unique ids.

    Provides list-like iteration plus id lookup; the MapReduce runtime treats
    a collection as the job input (each record is one input key/value pair).
    """

    def __init__(self, records: Iterable[Record] = ()) -> None:
        self._records: List[Record] = []
        self._by_rid: Dict[int, Record] = {}
        for record in records:
            self.add(record)

    def add(self, record: Record) -> None:
        """Append a record; raises :class:`DataError` on duplicate rid."""
        if record.rid in self._by_rid:
            raise DataError(f"duplicate record id {record.rid}")
        self._records.append(record)
        self._by_rid[record.rid] = record

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index: int) -> Record:
        return self._records[index]

    def get(self, rid: int) -> Record:
        """Look a record up by id; raises :class:`DataError` if absent."""
        try:
            return self._by_rid[rid]
        except KeyError:
            raise DataError(f"no record with id {rid}") from None

