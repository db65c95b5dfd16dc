"""Extension: the sharded serving cluster (scatter-gather vs single node).

Two claims from the cluster layer's design get measured here:

* **Exactness is free of fan-out width** — the same probe mix against the
  same prebuilt ``SegmentIndex`` served single-node and through 1/2/4/8
  shard clusters returns bit-identical hit lists everywhere, while the
  scatter set (shards probed per query) stays well below the shard count
  (the prefix-fragment routing never broadcasts).
* **Rebalance reduces observed skew** — a Zipf-skewed probe mix leaves the
  shard heat unbalanced; :meth:`ClusterRouter.rebalance` migrates hot
  fragments until the max-over-mean straggler factor drops.  The bench
  asserts the CV shrinks and that post-migration results are still
  identical.

Wall-clock columns are reported for context only — a simulated in-process
cluster pays scatter overhead without real parallelism, so the bench
asserts exactness and balance, never a cluster speedup.
"""

from __future__ import annotations

import random
import time

from _common import corpus, record_table
from repro.cluster import build_cluster
from repro.service import SegmentIndex

THETA = 0.6
N_RECORDS = 400
N_VERTICAL = 8
N_PROBES = 120
SHARD_COUNTS = (1, 2, 4, 8)
ZIPF = 1.2


def _zipf_mix(records, n_probes, exponent, seed=13):
    rng = random.Random(seed)
    weights = [1.0 / (i + 1) ** exponent for i in range(len(records))]
    return [
        records[i].tokens
        for i in rng.choices(range(len(records)), weights=weights, k=n_probes)
    ]


def test_cluster_vs_single_node(benchmark):
    records = corpus("wiki", N_RECORDS)
    index = SegmentIndex.build(records, n_vertical=N_VERTICAL)
    probe_mix = _zipf_mix(records, N_PROBES, ZIPF)

    def sweep():
        rows = []
        started = time.perf_counter()
        expected = [index.probe(q, THETA) for q in probe_mix]
        single_wall = time.perf_counter() - started
        rows.append({
            "serving": "single node", "shards": 1, "wall_s": single_wall,
            "avg_scatter": 1.0, "identical": "-",
        })

        routers = {}
        for n_shards in SHARD_COUNTS:
            router = build_cluster(index, n_shards=n_shards, replication=2)
            started = time.perf_counter()
            got = [router.search(q, THETA) for q in probe_mix]
            wall = time.perf_counter() - started
            identical = got == expected
            scatter = (
                router.metrics.get("cluster.route", "shards_probed")
                / max(1, router.metrics.get("cluster.route", "searches"))
            )
            rows.append({
                "serving": f"cluster x{n_shards}", "shards": n_shards,
                "wall_s": wall, "avg_scatter": round(scatter, 2),
                "identical": identical,
            })
            routers[n_shards] = (router, got)
        return rows, routers

    rows, _routers = benchmark.pedantic(sweep, rounds=1, iterations=1)

    record_table(
        "ext_cluster",
        rows,
        title=(
            f"Extension: scatter-gather cluster vs single node "
            f"(wiki n={N_RECORDS}, {N_PROBES} Zipf({ZIPF}) probes, "
            f"theta={THETA})"
        ),
        columns=["serving", "shards", "wall_s", "avg_scatter", "identical"],
    )

    # Exactness at every fan-out width is the whole point.
    assert all(row["identical"] for row in rows[1:])
    # Routing must narrow the scatter set: on average a probe cannot touch
    # every shard of the 8-way cluster (prefix fragments concentrate).
    eight = next(r for r in rows if r["shards"] == 8)
    assert eight["avg_scatter"] < 8


def test_cluster_rebalance_under_zipf(benchmark):
    records = corpus("wiki", N_RECORDS)
    index = SegmentIndex.build(records, n_vertical=N_VERTICAL)
    probe_mix = _zipf_mix(records, N_PROBES, 1.6, seed=29)
    expected = [index.probe(q, THETA) for q in probe_mix]

    def sweep():
        router = build_cluster(index, n_shards=4, replication=2)
        before_hits = [router.search(q, THETA) for q in probe_mix]
        before = router.heat_report()
        moves = router.rebalance(skew_threshold=1.0, max_moves=8)
        after = router.heat_report()
        after_hits = [router.search(q, THETA) for q in probe_mix]
        return {
            "router": router,
            "moves": moves,
            "before": before,
            "after": after,
            "before_hits": before_hits,
            "after_hits": after_hits,
        }

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    before, after = result["before"], result["after"]

    record_table(
        "ext_cluster_rebalance",
        [
            {
                "phase": "before rebalance", "migrations": 0,
                "heat_cv": round(before.cv, 4),
                "max_over_mean": round(before.max_over_mean, 4),
                "identical": result["before_hits"] == expected,
            },
            {
                "phase": "after rebalance",
                "migrations": len(result["moves"]),
                "heat_cv": round(after.cv, 4),
                "max_over_mean": round(after.max_over_mean, 4),
                "identical": result["after_hits"] == expected,
            },
        ],
        title=(
            f"Extension: skew-aware rebalance (4 shards, Zipf(1.6) mix, "
            f"theta={THETA})"
        ),
        columns=["phase", "migrations", "heat_cv", "max_over_mean",
                 "identical"],
    )

    assert result["before_hits"] == expected
    assert result["after_hits"] == expected
    if result["moves"]:
        assert after.max_over_mean <= before.max_over_mean
        assert after.cv < before.cv
