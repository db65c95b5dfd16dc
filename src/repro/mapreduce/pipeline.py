"""Multi-job pipeline bookkeeping.

Every join algorithm in this repo is a pipeline of MapReduce jobs (FS-Join:
ordering → filter → verification; MassJoin: four jobs).  Algorithms collect
their per-job :class:`~repro.mapreduce.runtime.JobResult` objects into a
:class:`PipelineResult`, which aggregates counters and simulated times and
is what benches and tests inspect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.mapreduce.costmodel import (
    CostModel,
    PhaseTimes,
    simulate_job_time,
    simulate_pipeline_time,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.metrics import JobMetrics
from repro.mapreduce.runtime import ClusterSpec, JobResult
from repro.observability.tracer import Span

Pair = Tuple[Any, Any]


@dataclass
class PipelineResult:
    """The result of a full algorithm run: final output plus per-job data."""

    algorithm: str
    pairs: List[Pair]
    """Final output: ``((rid_small, rid_large), score)`` per similar pair."""
    job_results: List[JobResult] = field(default_factory=list)
    trace: Optional[Tuple[Span, ...]] = None
    """The run's spans, when the driver ran with an enabled tracer."""
    resumed_jobs: List[str] = field(default_factory=list)
    """Jobs skipped on a ``resume=True`` run because a digest-valid
    checkpoint already held their output (execution order).  Such jobs
    contribute no fresh :class:`JobResult`, so counters and metrics cover
    only the work this run actually performed."""

    @property
    def result_pairs(self) -> Dict[Tuple[int, int], float]:
        """Results as an id-pair → score mapping (ids ordered ``small < large``)."""
        return {key: value for key, value in self.pairs}

    def result_set(self) -> frozenset:
        """Just the id pairs, for equality checks against an oracle."""
        return frozenset(key for key, _ in self.pairs)

    # ---- aggregations -----------------------------------------------------
    def counters(self) -> Counters:
        merged = Counters()
        for result in self.job_results:
            merged.merge(result.counters)
        return merged

    def job_metrics(self) -> List[JobMetrics]:
        return [result.metrics for result in self.job_results]

    def total_shuffle_bytes(self) -> int:
        return sum(result.metrics.shuffle_bytes for result in self.job_results)

    def simulated_time(
        self,
        cluster: ClusterSpec,
        model: Optional[CostModel] = None,
    ) -> PhaseTimes:
        """Total simulated wall-clock of all jobs on ``cluster``."""
        return simulate_pipeline_time(
            self.job_metrics(), cluster, model or CostModel()
        )

    def job_times(
        self,
        cluster: ClusterSpec,
        model: Optional[CostModel] = None,
    ) -> List[PhaseTimes]:
        """Per-job simulated times, in execution order."""
        model = model or CostModel()
        return [
            simulate_job_time(result.metrics, cluster, model)
            for result in self.job_results
        ]
