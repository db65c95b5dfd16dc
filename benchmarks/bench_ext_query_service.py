"""Extension: serving one index (probe latency, cache, batching).

The serving layer answers per-query probes against a standing
``SegmentIndex`` instead of re-running a join.  This bench measures the
two mechanisms that make it a *service* rather than a loop over
``FSJoin``:

* the gateway's LRU result cache, over a one-shard cluster — repeating a
  probe mix against a warm cache must not probe the index at all: every
  query is a hit, and the node's ``service.probe`` counters do not move
  (the speed-up this buys is in the table, but a wall-clock ratio is no
  floor to assert on);
* batched probing — 100 probes (drawn with duplicates from 60 distinct
  records) answered by one ``SegmentIndex.probe_batch`` must look up
  fewer posting lists than 100 sequential ``SegmentIndex.probe`` calls,
  because the batch looks each distinct probe token up once (the
  ``service.probe`` counters prove it); verification runs per query, so
  token comparisons are equal.

Expected shape: the warm pass runs zero probes; batched posting lookups
strictly below sequential; identical hit lists everywhere.
"""

from __future__ import annotations

import time

from _common import corpus, record_table
from repro.cluster import build_cluster
from repro.gateway import GatewayRequest, SimilarityGateway
from repro.mapreduce.counters import Counters
from repro.service import SegmentIndex

THETA = 0.6
N_RECORDS = 400
N_VERTICAL = 8
N_PROBES = 100
N_DISTINCT = 60
PROBE = "service.probe"


def _one_by_one(gateway, probe_mix):
    """Each probe as its own request wave: repeats hit the cache instead
    of coalescing with an in-flight twin."""
    return [
        list(gateway.serve([GatewayRequest(tuple(q), THETA)])[0].hits)
        for q in probe_mix
    ]


def test_query_service(benchmark):
    records = corpus("wiki", N_RECORDS)
    # A skewed probe mix: 100 probes over 60 distinct records, so popular
    # queries repeat — the situation caches and batch lookups exist for.
    probe_mix = [records[i % N_DISTINCT].tokens for i in range(N_PROBES)]

    def sweep():
        index = SegmentIndex.build(records, n_vertical=N_VERTICAL)
        rows = []

        # --- cold vs warm cache -----------------------------------------
        gateway = SimilarityGateway(build_cluster(index, n_shards=1))
        node = gateway.router.replica(0, 0)
        started = time.perf_counter()
        cold_hits = _one_by_one(gateway, probe_mix)
        cold_wall = time.perf_counter() - started
        cold_probe = node.counters.group(PROBE)
        started = time.perf_counter()
        warm_hits = _one_by_one(gateway, probe_mix)
        warm_wall = time.perf_counter() - started
        warm_probe = node.counters.group(PROBE)
        rows.append({"scenario": "gateway, cold cache", "wall_s": cold_wall,
                     "speedup": 1.0, "lookups": "", "token_cmp": ""})
        rows.append({"scenario": "gateway, warm cache", "wall_s": warm_wall,
                     "speedup": cold_wall / warm_wall, "lookups": "",
                     "token_cmp": ""})

        # --- batched vs sequential (index, counters on) -----------------
        sequential = Counters()
        started = time.perf_counter()
        seq_hits = [index.probe(q, THETA, counters=sequential)
                    for q in probe_mix]
        seq_wall = time.perf_counter() - started
        batched = Counters()
        started = time.perf_counter()
        bat_hits = index.probe_batch(
            [index.encode_query(q) for q in probe_mix], THETA,
            counters=batched,
        )
        bat_wall = time.perf_counter() - started
        for scenario, wall, counters in (
            ("index.probe x100", seq_wall, sequential),
            ("index.probe_batch", bat_wall, batched),
        ):
            rows.append({
                "scenario": scenario, "wall_s": wall,
                "speedup": cold_wall / wall,
                "lookups": counters.get(PROBE, "posting_lookups"),
                "token_cmp": counters.get(PROBE, "verify_token_comparisons"),
            })

        outcomes = {
            "cold": cold_hits, "warm": warm_hits, "seq": seq_hits,
            "bat": bat_hits,
        }
        counters = {
            "seq": sequential.group(PROBE),
            "bat": batched.group(PROBE),
            "gateway": gateway.metrics.group("gateway"),
            "cold_probe": cold_probe,
            "warm_probe": warm_probe,
        }
        return rows, outcomes, counters

    rows, outcomes, counters = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_table(
        "ext_query_service",
        rows,
        f"Extension — query service, wiki-like n={N_RECORDS}, θ={THETA}, "
        f"{N_PROBES} probes over {N_DISTINCT} distinct queries",
        columns=("scenario", "wall_s", "speedup", "lookups", "token_cmp"),
    )

    # Every path answers every probe identically.
    assert (
        outcomes["cold"] == outcomes["warm"] == outcomes["seq"]
        == outcomes["bat"]
    )
    # The warm pass is pure cache hits: it probes nothing, so every
    # service.probe counter stands where the cold pass left it.  (The cold
    # pass already hits on its own repeats: 100 probes, 60 distinct.)
    assert counters["gateway"]["dispatched"] == N_DISTINCT
    assert counters["gateway"]["cache_hits"] == 2 * N_PROBES - N_DISTINCT
    assert counters["cold_probe"]["probes"] == N_DISTINCT
    assert counters["warm_probe"] == counters["cold_probe"]
    # Batching beats sequential probing on work done, not just wall-clock:
    # the counters show strictly fewer posting lookups, and verification
    # (per query either way) compares the same tokens.
    seq, bat = counters["seq"], counters["bat"]
    assert 0 < bat["posting_lookups"] < seq["posting_lookups"]
    assert bat["verify_token_comparisons"] == seq["verify_token_comparisons"]
