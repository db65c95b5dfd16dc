"""Incremental self-join maintenance.

Deduplication pipelines rarely re-join from scratch: batches of new
records arrive and only the *delta* — pairs involving a new record — is
wanted.  With the R-S machinery the delta decomposes exactly:

``Δ = join(new, new)  ∪  join(new, old)``

both computed by FS-Join pipelines, so the maintained result set is always
exactly what a full re-join would return (property-tested in
``tests/test_core_incremental.py``).

Each batch runs its own ordering job over the data it touches; global
orderings are an internal detail of a single join, so batches need not
share one.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.config import FSJoinConfig
from repro.core.fsjoin import FSJoin
from repro.core.rsjoin import FSJoinRS
from repro.data.records import RecordCollection
from repro.errors import DataError
from repro.mapreduce.runtime import SimulatedCluster

Pair = Tuple[int, int]


class IncrementalSelfJoin:
    """Maintains a self-join result under batch insertions.

    Example:
        >>> from repro.core import FSJoinConfig
        >>> from repro.data import Record, RecordCollection
        >>> join = IncrementalSelfJoin(FSJoinConfig(theta=0.9))
        >>> _ = join.initialize(RecordCollection.from_token_lists([["a", "b", "c"]]))
        >>> join.add_batch(RecordCollection([Record.make(1, ["a", "b", "c"])]))
        {(0, 1): 1.0}
    """

    def __init__(
        self,
        config: FSJoinConfig,
        cluster: Optional[SimulatedCluster] = None,
    ) -> None:
        self.config = config
        self.cluster = cluster or SimulatedCluster(executor=config.executor)
        self._records = RecordCollection()
        self._results: Dict[Pair, float] = {}

    # ------------------------------------------------------------------
    @property
    def records(self) -> RecordCollection:
        """The accumulated collection (do not mutate)."""
        return self._records

    @property
    def results(self) -> Dict[Pair, float]:
        """The maintained result set ``(rid_small, rid_large) → score``."""
        return dict(self._results)

    # ------------------------------------------------------------------
    def initialize(self, records: RecordCollection) -> Dict[Pair, float]:
        """Full join of the base collection; returns its result set."""
        if len(self._records):
            raise DataError("already initialized; use add_batch for more data")
        for record in records:
            self._records.add(record)
        result = FSJoin(self.config, self.cluster).run(self._records)
        self._results = dict(result.result_pairs)
        return self.results

    def add_batch(self, batch: RecordCollection) -> Dict[Pair, float]:
        """Insert a batch; returns only the delta pairs it created.

        Record ids clashing with the maintained collection — or repeated
        inside the batch itself — raise :class:`DataError` before any
        join runs, so a rejected batch cannot corrupt the maintained
        result set.
        """
        seen = set()
        for record in batch:
            if record.rid in self._records or record.rid in seen:
                raise DataError(f"record id {record.rid} already present")
            seen.add(record.rid)
        delta: Dict[Pair, float] = {}

        # New × new.
        new_pairs = FSJoin(self.config, self.cluster).run(batch)
        delta.update(new_pairs.result_pairs)

        # New × old (skipped for the very first batch into an empty join).
        if len(self._records):
            cross = FSJoinRS(self.config, self.cluster).run(batch, self._records)
            for (rid_new, rid_old), score in cross.result_pairs.items():
                key = (rid_new, rid_old) if rid_new < rid_old else (rid_old, rid_new)
                delta[key] = score

        for record in batch:
            self._records.add(record)
        self._results.update(delta)
        return delta
