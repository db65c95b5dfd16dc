"""R-S (two-collection) similarity joins — an extension beyond the paper.

The paper evaluates self-joins; most deployments join two collections
``R ⋈ S`` (e.g. dirty records against a clean master list).  FS-Join's
machinery extends directly:

* the global ordering and both pivot kinds are computed over the *union*
  of the collections (one shared vector space);
* every segment is tagged with its collection (``SegmentInfo.side``), and
  the side is the fragment order's tie-break after the length, so a pair's
  owner is still one record wherever the pair meets;
* fragment joins consider only cross-collection pairs (a flag handed to
  ``join_fragment``) and key each stripe by ``(side, rid)`` — record ids
  may repeat across collections without ambiguity;
* verification is the same job, handed the same flag: it puts the left
  collection first, so the output keys are always ``(rid_left,
  rid_right)`` (it never looks at the records again).

All the correctness arguments (filter safety, horizontal exactly-once
coverage, safe segment prefixes) are side-agnostic, so they carry over
verbatim.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.config import FSJoinConfig
from repro.core.filter_job import FilterJob
from repro.core.horizontal import build_horizontal_plan
from repro.core.ordering import TokenFrequencyJob, GlobalOrder
from repro.core.partitioning import VerticalPartitioner
from repro.core.pivots import select_pivots
from repro.core.verify_job import VerificationJob
from repro.data.records import Record, RecordCollection
from repro.mapreduce.job import JobContext
from repro.mapreduce.pipeline import PipelineResult
from repro.mapreduce.runtime import SimulatedCluster

SidedRecord = Tuple[int, Record]  # (side, record)


class RSFilterJob(FilterJob):
    """FilterJob over tagged records; joins cross-collection pairs only."""

    name = "fsjoin-rs-filter"
    cross_side_only = True

    def map(self, key, value: SidedRecord, emit, context: JobContext) -> None:
        side, record = value
        self._map_record(record, side, emit, context)


class FSJoinRS:
    """Join two record collections under a similarity threshold.

    Example:
        >>> from repro.core import FSJoinConfig
        >>> from repro.core.rsjoin import FSJoinRS
        >>> from repro.data import RecordCollection
        >>> left = RecordCollection.from_token_lists([["a", "b", "c"]])
        >>> right = RecordCollection.from_token_lists([["a", "b", "c"]])
        >>> result = FSJoinRS(FSJoinConfig(theta=0.9)).run(left, right)
        >>> result.result_pairs
        {(0, 0): 1.0}
    """

    algorithm_name = "FS-Join-RS"

    def __init__(
        self,
        config: FSJoinConfig,
        cluster: Optional[SimulatedCluster] = None,
    ) -> None:
        self.config = config
        self.cluster = cluster or SimulatedCluster(executor=config.executor)

    def run(
        self, left: RecordCollection, right: RecordCollection
    ) -> PipelineResult:
        """Return pairs ``(rid_left, rid_right) → score`` with ``sim ≥ θ``."""
        config = self.config
        cluster = self.cluster

        tagged: List[Tuple[Tuple[int, int], SidedRecord]] = [
            ((0, record.rid), (0, record)) for record in left
        ] + [((1, record.rid), (1, record)) for record in right]

        # Job 1: global ordering over the union of both collections.
        ordering_input = [(key, record) for key, (_, record) in tagged]
        ordering_result = cluster.run_job(TokenFrequencyJob(), ordering_input)
        order = GlobalOrder(ordering_result.output)

        cuts = select_pivots(
            order.rank_frequencies,
            config.n_vertical,
            method=config.pivot_method,
            seed=config.pivot_seed,
        )
        partitioner = VerticalPartitioner(cuts)
        horizontal = build_horizontal_plan(
            [record.size for record in left] + [record.size for record in right],
            config.n_horizontal,
            config.theta,
            config.func,
        )

        # Job 2: tagged partition + cross-side fragment join.
        filter_job = RSFilterJob(config, order, partitioner, horizontal)
        filter_result = cluster.run_job(filter_job, tagged)

        # Job 3: the self-join's verification job.
        verify_job = VerificationJob(config.theta, config.func, cross_side=True)
        verify_result = cluster.run_job(verify_job, filter_result.output)

        return PipelineResult(
            algorithm=self.algorithm_name,
            pairs=verify_result.output,
            job_results=[ordering_result, filter_result, verify_result],
        )
