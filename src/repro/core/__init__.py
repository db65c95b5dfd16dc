"""FS-Join: the paper's primary contribution.

The pipeline (Fig. 3 of the paper) is three MapReduce jobs:

1. **Ordering** (:mod:`repro.core.ordering`) — compute the global token
   ordering by ascending term frequency.
2. **Filtering** (:mod:`repro.core.filter_job`) — vertically partition every
   record into disjoint segments at pivot tokens
   (:mod:`repro.core.partitioning`, pivots from :mod:`repro.core.pivots`),
   optionally combined with horizontal (length-based) partitioning
   (:mod:`repro.core.horizontal`); join each fragment on one reducer using a
   loop / index / prefix join (:mod:`repro.core.joins`) guarded by the
   StrL/SegL/SegI/SegD filters (:mod:`repro.core.filters`); emit partial
   common-token counts.
3. **Verification** (:mod:`repro.core.verify_job`) — aggregate partial
   counts per record pair and apply the exact threshold test without ever
   re-reading the original strings.

:class:`repro.core.fsjoin.FSJoin` drives the pipeline, for a self-join or,
given a second collection, an R-S join.
"""

from repro.core.config import ExecutorKind, FilterConfig, FSJoinConfig, JoinMethod
from repro.core.fsjoin import FSJoin
from repro.core.ordering import GlobalOrder, compute_global_ordering
from repro.core.pivots import PivotMethod, select_pivots
from repro.core.partitioning import Segment, SegmentInfo, VerticalPartitioner
from repro.core.horizontal import HorizontalPlan, build_horizontal_plan
from repro.core.topk import topk_similar_pairs

__all__ = [
    "FSJoin",
    "topk_similar_pairs",
    "FSJoinConfig",
    "FilterConfig",
    "JoinMethod",
    "ExecutorKind",
    "GlobalOrder",
    "compute_global_ordering",
    "PivotMethod",
    "select_pivots",
    "Segment",
    "SegmentInfo",
    "VerticalPartitioner",
    "HorizontalPlan",
    "build_horizontal_plan",
]
