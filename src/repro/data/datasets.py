"""Dataset I/O and sampling.

Records are stored one per line: ``rid<TAB>token token token ...``.  The
sampling helper implements the paper's scale experiments (Section VI-C):
``sample(records, 0.6)`` is the paper's "6X" dataset (60% of records drawn
uniformly at random).
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Union

from repro.data.records import Record, RecordCollection
from repro.errors import ConfigError, DataError


def save_records(records: RecordCollection, path: Union[str, Path]) -> None:
    """Write records to ``path`` in ``rid<TAB>tokens`` format."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(f"{record.rid}\t{' '.join(record.tokens)}\n")


def load_records(path: Union[str, Path]) -> RecordCollection:
    """Read records from ``path``; tokens are split on runs of whitespace.

    Lines with a leading ``rid<TAB>`` keep that id; otherwise line numbers
    are used.
    """
    collection = RecordCollection()
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle):
            line = line.rstrip("\n")
            if not line:
                continue
            rid_text, sep, body = line.partition("\t")
            if sep and rid_text.isdigit():
                rid = int(rid_text)
            else:
                rid, body = line_no, line
            collection.add(Record.make(rid, body.split()))
    return collection


def sample(
    records: RecordCollection, fraction: float, seed: int = 0
) -> RecordCollection:
    """Uniform random sample of ``fraction`` of the records (rids preserved).

    ``fraction=1.0`` returns a shallow copy in the original order, matching
    the paper's "10X" (full) scale.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return RecordCollection(records)
    rng = random.Random(seed)
    count = max(1, round(len(records) * fraction))
    if count > len(records):
        raise DataError("sample larger than population")
    chosen = rng.sample(range(len(records)), count)
    return RecordCollection(records[i] for i in sorted(chosen))
