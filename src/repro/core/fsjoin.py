"""The FS-Join driver: ordering → filtering → verification.

:class:`FSJoin` wires the three MapReduce jobs together on a simulated
cluster and returns a :class:`~repro.mapreduce.pipeline.PipelineResult`
carrying the similar pairs plus per-job metrics (shuffle volumes, reduce
loads, measured task times) that the benchmarks consume.

``FSJoin`` with ``n_horizontal == 1`` is the paper's **FS-Join-V** (pure
vertical partitioning); with ``n_horizontal > 1`` it is full **FS-Join**.

``run(left, right=right)`` is the R-S (two-collection) join, an extension
beyond the paper's self-joins: the same three jobs over the *union* of
the collections (one order, one set of pivots, one horizontal plan), with
every record keyed and segment tagged by its side, so record ids may
repeat across the collections.  The fragment joins consider only
cross-side pairs and verification puts the left collection first, so the
result keys are ``(rid_left, rid_right)``; filter safety, horizontal
exactly-once coverage and safe segment prefixes are side-agnostic and
carry over verbatim.  Its result names itself ``FS-Join-RS``.

When a DFS is attached, every job's output is additionally materialised as
a digest-validated checkpoint (``fsjoin/ckpt/<job>``), and
``run(records, resume=True)`` restarts a killed pipeline from the last
good job: jobs whose checkpoint still passes its sha256 digest are skipped
and their output reloaded, exactly like re-submitting a Hadoop job chain
over surviving intermediate files.  A corrupted checkpoint fails the
digest check and the job simply re-runs — resume can never feed garbage
downstream.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.core.config import FSJoinConfig
from repro.core.filter_job import FilterJob, RSFilterJob
from repro.core.horizontal import build_horizontal_plan
from repro.core.ordering import GlobalOrder, TokenFrequencyJob
from repro.core.partitioning import VerticalPartitioner
from repro.core.pivots import select_pivots
from repro.core.verify_job import VerificationJob
from repro.data.records import RecordCollection
from repro.errors import CheckpointError, ConfigError
from repro.mapreduce.checkpoint import PipelineCheckpoint
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.pipeline import PipelineResult
from repro.mapreduce.runtime import SimulatedCluster

#: DFS root the per-job checkpoints live under.
CHECKPOINT_ROOT = "fsjoin/ckpt"


class FSJoin:
    """Self-join a record collection, or join two, under a similarity threshold.

    Example:
        >>> from repro.core import FSJoin, FSJoinConfig
        >>> from repro.data import Record, RecordCollection, make_corpus
        >>> records = make_corpus("wiki", 200, seed=7)
        >>> result = FSJoin(FSJoinConfig(theta=0.8)).run(records)
        >>> isinstance(result.result_pairs, dict)
        True
        >>> left = RecordCollection([Record.make(0, ["a", "b", "c"])])
        >>> right = RecordCollection([Record.make(0, ["a", "b", "c"])])
        >>> rs = FSJoin(FSJoinConfig(theta=0.9)).run(left, right=right)
        >>> rs.algorithm, rs.result_pairs
        ('FS-Join-RS', {(0, 0): 1.0})
    """

    def __init__(
        self,
        config: FSJoinConfig,
        cluster: Optional[SimulatedCluster] = None,
        dfs: Optional[InMemoryDFS] = None,
    ) -> None:
        """``dfs``, when given, receives every job's output under
        ``fsjoin/<job-name>`` and feeds the next job from there — the way
        Hadoop pipelines hand data across jobs — plus a digest-validated
        checkpoint per job under ``fsjoin/ckpt/`` that ``run(resume=True)``
        restarts from.  Purely observational on a fault-free run (the
        returned results are identical); lets callers audit the
        intermediate HDFS volume that dominates MassJoin's cost story."""
        self.config = config
        self.cluster = cluster or SimulatedCluster(executor=config.executor)
        self.dfs = dfs

    @property
    def algorithm_name(self) -> str:
        return "FS-Join" if self.config.uses_horizontal else "FS-Join-V"

    def run(
        self,
        records: RecordCollection,
        right: Optional[RecordCollection] = None,
        resume: bool = False,
    ) -> PipelineResult:
        """Execute the three-job pipeline and return results + metrics.

        With ``right``, join ``records`` (the left collection) against it
        and return pairs ``(rid_left, rid_right) → score``.

        With ``resume=True`` (requires an attached DFS), jobs whose
        checkpoint from an earlier — possibly killed — run still passes
        its digest are skipped and their materialised output reused; the
        skipped names are reported on ``PipelineResult.resumed_jobs``.
        Resume assumes the same records and config as the original run:
        checkpoints name jobs, not inputs, so resuming a *different* join
        over a dirty DFS is caller error (give unrelated runs their own
        DFS).

        When the cluster carries an enabled tracer, the run is wrapped in a
        ``pipeline:<name>`` span with one child per driver phase
        (``order-build`` / ``filter-job`` / ``verify-job`` /
        ``aggregation``), each job's own spans nested inside — plus one
        ``phase="recovery"`` span per checkpoint-skipped job on resume;
        the slice of spans this run produced is returned on
        ``PipelineResult.trace``.
        """
        config = self.config
        cluster = self.cluster
        tracer = cluster.tracer
        if right is None:
            name = self.algorithm_name
            keyed = [(record.rid, record) for record in records]
            filter_input, filter_job_type = keyed, FilterJob
        else:
            name = "FS-Join-RS"
            keyed = [
                ((side, record.rid), record)
                for side, collection in enumerate((records, right))
                for record in collection
            ]
            filter_input = [(key, (key[0], record)) for key, record in keyed]
            filter_job_type = RSFilterJob
        mark = tracer.mark()
        ckpt = (
            PipelineCheckpoint(self.dfs, CHECKPOINT_ROOT)
            if self.dfs is not None
            else None
        )
        if resume and ckpt is None:
            raise ConfigError(
                "resume=True requires a DFS: checkpoints are materialised "
                "there (pass dfs=InMemoryDFS() to FSJoin)"
            )
        resumed: List[str] = []

        def restore(job: str):
            """A job's digest-valid checkpointed output, or None to re-run."""
            if not (resume and ckpt is not None and ckpt.valid(job)):
                return None
            try:
                pairs = ckpt.load(job)
            except CheckpointError:
                return None
            resumed.append(job)
            if tracer.enabled:
                tracer.add(
                    f"resume:{job}", "recovery",
                    start=time.perf_counter(), duration=0.0,
                    action="resume-skip", job=job,
                )
            return pairs

        with tracer.span(
            f"pipeline:{name}",
            phase="pipeline",
            theta=config.theta,
            func=config.func.value,
            records=len(keyed),
        ):
            # Job 1 + driver-side planning, as the paper's SetUp does:
            # vertical pivots from the ordering, horizontal pivots from the
            # length histogram.  The ordering job's output (token
            # frequencies) is the checkpoint; GlobalOrder rebuilds from it
            # deterministically.
            ordering_result = filter_result = verify_result = None
            with tracer.span("order-build", phase="driver"):
                frequencies = restore("ordering")
                if frequencies is None:
                    ordering_result = cluster.run_job(
                        TokenFrequencyJob(), keyed
                    )
                    frequencies = ordering_result.output
                    if ckpt is not None:
                        ckpt.store("ordering", frequencies)
                order = GlobalOrder(frequencies)
                cuts = select_pivots(
                    order.rank_frequencies,
                    config.n_vertical,
                    method=config.pivot_method,
                    seed=config.pivot_seed,
                )
                partitioner = VerticalPartitioner(cuts)
                horizontal = build_horizontal_plan(
                    [record.size for _, record in keyed],
                    config.n_horizontal,
                    config.theta,
                    config.func,
                )

            # Job 2: partition + fragment join → partial counts.
            with tracer.span("filter-job", phase="driver"):
                verify_input = restore("filter")
                if verify_input is None:
                    filter_job = filter_job_type(
                        config, order, partitioner, horizontal
                    )
                    filter_result = cluster.run_job(filter_job, filter_input)
                    if ckpt is not None:
                        ckpt.store("filter", filter_result.output)
                    verify_input = self._through_dfs(
                        "fsjoin/partial-counts", filter_result.output
                    )

            # Job 3: aggregate counts → exact results.
            with tracer.span("verify-job", phase="driver"):
                pairs = restore("verify")
                if pairs is None:
                    verify_job = VerificationJob(
                        config.theta, config.func, cross_side=right is not None
                    )
                    verify_result = cluster.run_job(verify_job, verify_input)
                    if ckpt is not None:
                        ckpt.store("verify", verify_result.output)
                    pairs = verify_result.output

            with tracer.span("aggregation", phase="driver") as agg_span:
                self._through_dfs("fsjoin/results", pairs)
                agg_span.attrs["pairs"] = len(pairs)
                result = PipelineResult(
                    algorithm=name,
                    pairs=pairs,
                    job_results=[
                        job_result
                        for job_result in (
                            ordering_result, filter_result, verify_result
                        )
                        if job_result is not None
                    ],
                    resumed_jobs=resumed,
                )

        if tracer.enabled:
            result.trace = tracer.spans_since(mark)
        return result

    def _through_dfs(self, path: str, pairs):
        """Round-trip one job's output through the DFS when one is attached."""
        if self.dfs is None:
            return pairs
        self.dfs.write(path, pairs, overwrite=True)
        return self.dfs.read(path)
