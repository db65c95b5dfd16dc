"""One-call run explanation: what a join pipeline did and where it cost.

``explain(result, cluster)`` renders a per-job breakdown (records, shuffle
volume, reduce skew, measured CPU, simulated time) plus the filter
counters — the first thing anyone asks of a distributed join run.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.report import format_table
from repro.mapreduce.costmodel import CostModel, simulate_job_time
from repro.mapreduce.pipeline import PipelineResult
from repro.mapreduce.runtime import ClusterSpec


def explain(
    result: PipelineResult,
    cluster: Optional[ClusterSpec] = None,
    model: Optional[CostModel] = None,
) -> str:
    """Render a textual report of one pipeline run."""
    cluster = cluster or ClusterSpec()
    model = model or CostModel()
    rows = []
    for job_result in result.job_results:
        metrics = job_result.metrics
        times = simulate_job_time(metrics, cluster, model)
        rows.append(
            {
                "job": metrics.job_name,
                "in_records": metrics.input_records,
                "shuffle_kb": round(metrics.shuffle_bytes / 1e3, 1),
                "out_records": metrics.output_records,
                "reduce_cv": round(metrics.reduce_load_cv(), 3),
                "cpu_s": round(
                    sum(
                        t.compute_seconds
                        for t in metrics.map_tasks + metrics.reduce_tasks
                    ),
                    3,
                ),
                "sim_s": round(times.total_s, 2),
            }
        )
    lines = [
        format_table(
            rows,
            title=(
                f"{result.algorithm}: {len(result.pairs)} result pairs, "
                f"{result.total_shuffle_bytes()/1e3:.1f} kB shuffled, "
                f"{cluster.workers} workers"
            ),
        )
    ]
    counters = result.counters()
    filter_counters = counters.group("fsjoin.filter")
    if filter_counters:
        considered = filter_counters.get("pairs_considered", 0)
        emitted = filter_counters.get("candidates_emitted", 0)
        pruned = {
            name.replace("pruned_", ""): value
            for name, value in sorted(filter_counters.items())
            if name.startswith("pruned_")
        }
        pruned_text = ", ".join(f"{k}={v}" for k, v in pruned.items()) or "none"
        stripes = filter_counters.get("stripes_emitted", 0)
        lines.append(
            f"fragment joins: {considered} pairs considered, "
            f"{emitted} candidate pairs in {stripes} stripes, "
            f"pruned: {pruned_text}"
        )
    verify = counters.group("fsjoin.verify")
    if verify:
        lines.append(
            f"verification: {verify.get('candidates', 0)} candidate pairs "
            f"→ {verify.get('results', 0)} results"
        )
    return "\n".join(lines)
