"""Extension: the online query service (probe latency, cache, batching).

The serving layer answers per-query probes against a standing
``SegmentIndex`` instead of re-running a join.  This bench measures the
three mechanisms that make it a *service* rather than a loop over
``FSJoin``:

* the LRU result cache — repeating a probe mix against a warm cache must
  not probe the index at all: every query is a hit, and the
  ``service.probe`` counters do not move (the speed-up this buys is in
  the table, but a wall-clock ratio is no floor to assert on);
* batched probing — 100 probes (drawn with duplicates from 60 distinct
  records) answered by one ``search_batch`` must touch fewer tokens than
  100 sequential ``search`` calls on an identical cache-disabled
  service, because the batch dedups repeated queries and scans each
  shared posting list once (the ``service.probe`` counters prove it).

Expected shape: the warm pass runs zero probes; batched token comparisons
strictly below sequential; identical hit lists everywhere.
"""

from __future__ import annotations

import time

from _common import corpus, record_table
from repro.service import SegmentIndex, SimilarityService

THETA = 0.6
N_RECORDS = 400
N_VERTICAL = 8
N_PROBES = 100
N_DISTINCT = 60
PROBE = "service.probe"
CACHE = "service.cache"


def _token_comparisons(service):
    return service.metrics.get(PROBE, "verify_token_comparisons")


def test_query_service(benchmark):
    records = corpus("wiki", N_RECORDS)
    # A skewed probe mix: 100 probes over 60 distinct records, so popular
    # queries repeat — the situation caches and batch dedup exist for.
    probe_mix = [records[i % N_DISTINCT].tokens for i in range(N_PROBES)]

    def sweep():
        index = SegmentIndex.build(records, n_vertical=N_VERTICAL)
        rows = []

        # --- cold vs warm cache -----------------------------------------
        cached = SimilarityService(index)
        started = time.perf_counter()
        cold_hits = [cached.search(q, THETA) for q in probe_mix]
        cold_wall = time.perf_counter() - started
        cold_probe = cached.metrics.group(PROBE)
        started = time.perf_counter()
        warm_hits = [cached.search(q, THETA) for q in probe_mix]
        warm_wall = time.perf_counter() - started
        warm_probe = cached.metrics.group(PROBE)
        rows.append({"scenario": "sequential, cold cache", "wall_s": cold_wall,
                     "speedup": 1.0, "token_cmp": ""})
        rows.append({"scenario": "sequential, warm cache", "wall_s": warm_wall,
                     "speedup": cold_wall / warm_wall, "token_cmp": ""})
        cache_stats = cached.cache_info()

        # --- batched vs sequential (caches off, counters on) ------------
        sequential = SimilarityService(index, cache_size=0)
        started = time.perf_counter()
        seq_hits = [sequential.search(q, THETA) for q in probe_mix]
        seq_wall = time.perf_counter() - started
        batched = SimilarityService(index, cache_size=0)
        started = time.perf_counter()
        bat_hits = batched.search_batch(probe_mix, THETA)
        bat_wall = time.perf_counter() - started
        rows.append({"scenario": "sequential, no cache", "wall_s": seq_wall,
                     "speedup": cold_wall / seq_wall,
                     "token_cmp": _token_comparisons(sequential)})
        rows.append({"scenario": "batched, no cache", "wall_s": bat_wall,
                     "speedup": cold_wall / bat_wall,
                     "token_cmp": _token_comparisons(batched)})

        outcomes = {
            "cold": cold_hits, "warm": warm_hits, "seq": seq_hits,
            "bat": bat_hits,
        }
        counters = {
            "seq_cmp": _token_comparisons(sequential),
            "bat_cmp": _token_comparisons(batched),
            "cache": cache_stats,
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
        columns=("scenario", "wall_s", "speedup", "token_cmp"),
    )

    # Every path answers every probe identically.
    assert (
        outcomes["cold"] == outcomes["warm"] == outcomes["seq"]
        == outcomes["bat"]
    )
    # The warm pass is pure cache hits: it probes nothing, so every
    # service.probe counter stands where the cold pass left it.  (The cold
    # pass already hits on its own repeats: 100 probes, 60 distinct.)
    assert counters["cache"]["misses"] == N_DISTINCT
    assert counters["cache"]["hits"] == 2 * N_PROBES - N_DISTINCT
    assert counters["cold_probe"]["probes"] == N_DISTINCT
    assert counters["warm_probe"] == counters["cold_probe"]
    # Batching beats sequential probing on work done, not just wall-clock:
    # the counters show strictly fewer token comparisons.
    assert 0 < counters["bat_cmp"] < counters["seq_cmp"]
