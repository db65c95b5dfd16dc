"""Lemma 5: the analytic cost model vs measured behaviour.

The paper's cost analysis models the filter job's loop-join reduce cost as
``N · (M·P/N)² · avg_size · C_r`` where ``M·P/N`` is the expected fragment
size (``P`` = expected segments per record).  This bench runs FS-Join with
the loop join (the implementation Lemma 5 explicitly models) at several
vertical partition counts, measures the actual fragment sizes, pair
comparisons and CPU, and evaluates the Lemma 5 expression with the
*measured* ``P``.

Shapes asserted:

* the model's fragment-size prediction matches the measured mean fragment
  size (it is an identity given measured ``P`` — the check guards the
  wiring);
* the model's pairwise-comparison count tracks the measured count within a
  small constant factor;
* analytic cost and measured CPU move in the same direction across the
  partition sweep.
"""

from __future__ import annotations

from _common import DEFAULT_CLUSTER, corpus, record_table
from repro.core import FSJoin, FSJoinConfig, JoinMethod
from repro.mapreduce.costmodel import lemma5_cost
from repro.mapreduce.runtime import SimulatedCluster

THETA = 0.8
CORPUS = ("wiki", 400)
PARTITION_COUNTS = (5, 15, 30, 60)


def test_lemma5_cost_model(benchmark):
    cluster = SimulatedCluster(DEFAULT_CLUSTER)
    records = corpus(*CORPUS)
    sizes = [record.size for record in records]
    m = len(records)

    def sweep():
        rows = []
        for n in PARTITION_COUNTS:
            result = FSJoin(
                FSJoinConfig(
                    theta=THETA, n_vertical=n, join_method=JoinMethod.LOOP
                ),
                cluster,
            ).run(records)
            filter_metrics = result.job_results[1].metrics
            counters = result.counters()
            segments = counters.get("fsjoin.map", "segments")
            measured_p = segments / m
            predicted_fragment = m * measured_p / n
            predicted_pairs = n * predicted_fragment**2 / 2
            # Lemma 5 counts every pair of a fragment: the ones the loop
            # join ran the filters on plus the ones its StrL window skipped.
            measured_pairs = counters.get(
                "fsjoin.filter", "pairs_considered"
            ) + counters.get("fsjoin.filter", "pruned_strl")
            candidates = counters.get("fsjoin.filter", "candidates_emitted")
            analytic = lemma5_cost(
                sizes,
                n_partitions=n,
                token_probability=measured_p,
                candidate_fraction=candidates / (m * (m - 1) / 2),
                result_fraction=len(result.pairs) / max(1, candidates),
            )
            rows.append(
                {
                    "n_partitions": n,
                    "measured_P": measured_p,
                    "fragment_size": segments / n,
                    "predicted_fragment": predicted_fragment,
                    "measured_pairs": measured_pairs,
                    "predicted_pairs": predicted_pairs,
                    "reduce_cpu_s": sum(
                        t.compute_seconds for t in filter_metrics.reduce_tasks
                    ),
                    "analytic_cost": analytic,
                    "results": len(result.pairs),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_table(
        "lemma5",
        rows,
        f"Lemma 5 — analytic vs measured filter-job cost (loop join), θ={THETA}",
    )

    assert len({row["results"] for row in rows}) == 1
    for row in rows:
        # Fragment-size prediction (identity check on the model's wiring).
        assert row["predicted_fragment"] > 0
        assert abs(row["fragment_size"] - row["predicted_fragment"]) < 1e-6
        # Pairwise comparisons tracked within a small constant factor
        # (fragment sizes vary around the mean, so Σ C(f_i, 2) exceeds
        # N·C(mean, 2) by Jensen's inequality — bounded, not exact).
        ratio = row["measured_pairs"] / row["predicted_pairs"]
        assert 0.3 < ratio < 3.5, ratio

    # Analytic cost and measured CPU agree on the direction of the sweep.
    cpu = [row["reduce_cpu_s"] for row in rows]
    analytic = [row["analytic_cost"] for row in rows]
    assert (cpu[-1] > cpu[0]) == (analytic[-1] > analytic[0])
