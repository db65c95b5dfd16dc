"""The filtering MapReduce job (paper Algorithm 1, filtering phase).

Map: encode the record under the global ordering, route it to its
horizontal partition(s), split it into vertical segments and emit
``((h, v), segment)`` — the duplicate-free key scheme that distinguishes
FS-Join from the token-keyed baselines (with pure vertical partitioning
every emitted byte appears exactly once).

Reduce: each key group is one fragment (or one horizontal *section* of a
fragment); run the configured join algorithm with the filter battery and
emit its partial counts as stripes, ``owner → (len_owner, rid_t, len_t,
common, …)`` — one record per probing segment, not one per pair.  A
boundary partition hands the join its pivot, an R-S job its cross-side
flag: both rules are data, applied inside the join's one order.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.config import FSJoinConfig
from repro.core.horizontal import HorizontalPlan
from repro.core.joins import join_fragment
from repro.core.ordering import GlobalOrder
from repro.core.partitioning import Segment, VerticalPartitioner
from repro.data.records import Record
from repro.mapreduce.job import JobContext, MapReduceJob


class FilterJob(MapReduceJob):
    """Vertical (and optional horizontal) partition + fragment join."""

    name = "fsjoin-filter"

    #: :class:`RSFilterJob` sets this to join only cross-collection pairs.
    cross_side_only = False

    def __init__(
        self,
        config: FSJoinConfig,
        order: GlobalOrder,
        partitioner: VerticalPartitioner,
        horizontal: HorizontalPlan,
    ) -> None:
        self.config = config
        self.order = order
        self.partitioner = partitioner
        self.horizontal = horizontal

    # ------------------------------------------------------------------
    def map(self, key: int, value: Record, emit, context: JobContext) -> None:
        self._map_record(value, 0, emit, context)

    def _map_record(
        self, record: Record, side: int, emit, context: JobContext
    ) -> None:
        ranks = self.order.encode(record)
        if not ranks:
            context.increment("fsjoin.map", "empty_records")
            return
        segments = self.partitioner.split(record.rid, ranks, side=side)
        partitions = self.horizontal.partitions_of(len(ranks))
        for h in partitions:
            for v, segment in segments:
                emit((h, v), segment)
        context.increment("fsjoin.map", "records", 1)
        context.increment("fsjoin.map", "segments", len(segments) * len(partitions))
        if len(partitions) > 1:
            context.increment(
                "fsjoin.map", "horizontal_replicas", len(partitions) - 1
            )

    # ------------------------------------------------------------------
    def partition(self, key, n_partitions: int) -> int:
        # Fragments round-robin over reduce tasks: with #fragments equal to
        # #reduce tasks (the paper's setup) every task gets exactly one
        # fragment, making pivot-selection load differences visible.
        h, v = key
        return (h * self.partitioner.n_partitions + v) % n_partitions

    # ------------------------------------------------------------------
    def reduce(
        self, key, values: List[Segment], emit, context: JobContext
    ) -> None:
        h, _v = key
        stripes = join_fragment(
            values,
            method=self.config.join_method,
            theta=self.config.theta,
            func=self.config.func,
            filter_config=self.config.filters,
            context=context,
            pivot=self.horizontal.pivot_of(h),
            cross_side=self.cross_side_only,
        )
        for owner, stripe in stripes:
            emit(owner, stripe)


class RSFilterJob(FilterJob):
    """FilterJob over ``(side, record)`` values; joins cross-side pairs only."""

    name = "fsjoin-rs-filter"
    cross_side_only = True

    def map(
        self, key, value: Tuple[int, Record], emit, context: JobContext
    ) -> None:
        side, record = value
        self._map_record(record, side, emit, context)
