"""Brute-force Jaccard scan: the answer every layer must reproduce.

Independent of the index: every visible record is scored against the
query from raw token sets.  The score is the same ``|q∩t| / |q∪t|``
integer division the program performs, so answers compare bit for bit,
order included.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.service import SearchHit

#: Tie tolerance at the threshold, as in ``repro.baselines.naive``.
EPS = 1e-9


class JaccardOracle:
    """All records' token sets as one flat id column, scanned per query."""

    def __init__(self, records: Iterable) -> None:
        vocab = {}
        ids: List[int] = []
        starts: List[int] = []
        rids: List[int] = []
        for record in records:
            if not record.tokens:
                raise ValueError("the scan needs non-empty records")
            starts.append(len(ids))
            rids.append(record.rid)
            ids.extend(vocab.setdefault(t, len(vocab)) for t in record.tokens)
        self._vocab = vocab
        self._ids = np.asarray(ids, dtype=np.int64)
        self._starts = np.asarray(starts, dtype=np.int64)
        self._sizes = np.diff(np.append(self._starts, len(ids)))
        self._rids = np.asarray(rids, dtype=np.int64)

    def search(self, tokens: Sequence[str], theta: float,
               visible: Optional[int] = None) -> List[SearchHit]:
        """Hits among the first ``visible`` records, best first, ties by rid."""
        query = set(tokens)
        member = np.zeros(len(self._vocab) + 1, dtype=np.int64)
        member[[self._vocab[t] for t in query if t in self._vocab]] = 1
        common = np.add.reduceat(member[self._ids], self._starts)[:visible]
        union = len(query) + self._sizes[:visible] - common
        score = common / union
        keep = np.flatnonzero((common > 0) & (score + EPS >= theta))
        hits = sorted((-float(score[i]), int(self._rids[i])) for i in keep)
        return [SearchHit(rid, -neg) for neg, rid in hits]
