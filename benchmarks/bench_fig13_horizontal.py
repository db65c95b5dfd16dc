"""Figure 13: FS-Join vs FS-Join-V (the effect of horizontal partitioning).

Paper setup: 30 vertical partitions everywhere; horizontal partitions per
dataset (10 for Email, 50 for Wiki, 70 for PubMed); FS-Join beats FS-Join-V
across thresholds because smaller sections avoid spill/latency effects and
cut the per-reducer join cost.

The paper's speed-up is not reproducible without spill modelling: this
runtime never spills, and each fragment is sorted by length so the StrL
window skips length-incompatible pairs with or without sections.  Sections
therefore cannot save an enumerated pair; they only replicate segments.
Shapes asserted (all deterministic): identical results; the fragment joins
consider exactly the same pairs at 1 and N sections; FS-Join's shuffle bytes
and replication rate are at least FS-Join-V's.
"""

from __future__ import annotations

import pytest

from _common import DEFAULT_CLUSTER, corpus, record_table, run_algorithm
from repro.core import FSJoin, FSJoinConfig
from repro.mapreduce.runtime import SimulatedCluster

#: Paper's horizontal partition counts per dataset.
HORIZONTAL = {"email": 10, "pubmed": 70, "wiki": 50}
SIZES = {"email": 300, "pubmed": 500, "wiki": 500}
THETAS = (0.8, 0.9)


@pytest.mark.parametrize("name", list(SIZES))
def test_fig13_horizontal_effect(benchmark, name):
    cluster = SimulatedCluster(DEFAULT_CLUSTER)
    records = corpus(name, SIZES[name])

    def sweep():
        rows = []
        for theta in THETAS:
            for n_horizontal, label in ((1, "FS-Join-V"), (HORIZONTAL[name], "FS-Join")):
                algorithm = FSJoin(
                    FSJoinConfig(
                        theta=theta, n_vertical=30, n_horizontal=n_horizontal
                    ),
                    cluster,
                )
                row = run_algorithm(algorithm, records)
                result = row["_result"]
                metrics = result.job_results[1].metrics
                row.update(
                    {
                        "dataset": name,
                        "theta": theta,
                        "join_cpu_s": sum(
                            t.compute_seconds for t in metrics.reduce_tasks
                        ),
                        "pairs_considered": result.counters().get(
                            "fsjoin.filter", "pairs_considered"
                        ),
                        "shuffle_bytes": result.total_shuffle_bytes(),
                        "replication_rate": metrics.duplication_byte_factor(),
                    }
                )
                rows.append(row)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_table(
        f"fig13_{name}",
        rows,
        f"Fig 13 ({name}) — horizontal partitioning effect",
        columns=[
            "dataset", "theta", "algorithm", "wall_s", "join_cpu_s",
            "pairs_considered", "shuffle_mb", "replication_rate", "results",
        ],
    )

    for theta in THETAS:
        per_theta = {r["algorithm"]: r for r in rows if r["theta"] == theta}
        sections, plain = per_theta["FS-Join"], per_theta["FS-Join-V"]
        assert sections["results"] == plain["results"]
        # Sections spare the fragment joins no pair...
        assert sections["pairs_considered"] == plain["pairs_considered"]
        # ...and replicate segments across them: a dominated point on the
        # replication-rate / reducer-size curve.
        assert sections["shuffle_bytes"] >= plain["shuffle_bytes"]
        assert sections["replication_rate"] >= plain["replication_rate"]
