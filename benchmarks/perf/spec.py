"""Workload sizes and the metric catalogue — the harness's only data.

Every size the harness uses lives in a :class:`WorkloadSpec`; the tests
shrink these objects instead of passing flags.  Every metric the harness
reports is declared once here with its unit, direction and bound, and
``BENCHMARK.json`` is checked against these tables by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: The batch pipeline under test (the paper's headline configuration).
JOIN_THETA = 0.8
JOIN_VERTICAL = 30
JOIN_HORIZONTAL = 10
JOIN_WORKERS = 10

#: The serving stack under test: ``repro serve`` defaults over this cluster.
#: A shard per fragment: with fewer, ``plan_shards`` breaks a near-tie of
#: fragment loads differently from seed to seed, and whether the two
#: fragments a theta=0.8 prefix spans share a shard moves p50 by a quarter.
INDEX_VERTICAL = 8
N_SHARDS = 8
REPLICATION = 2
BATCH_FRAME = 32
ZIPF_S = 1.2

#: Timed rounds a run makes at least, whatever ``--seconds`` says.
MIN_ROUNDS = 3


@dataclass(frozen=True)
class WorkloadSpec:
    """Sizes of one workload.  ``kind`` picks the end-to-end driver and
    the layers the traced run measures."""

    name: str
    kind: str                 # "join" | "wire_light" | "wire_heavy" | "ingest"
    why: str
    theta: float              # serving threshold (the join always uses JOIN_THETA)
    n_base: int               # records joined (join) / indexed (serving)
    n_queries: int = 0        # query records; > gateway cache so replays never hit
    n_stream: int = 0         # records appended by the mixed leg
    rounds: int = MIN_ROUNDS  # rounds when no --seconds budget is given
    n_paired: int = 0         # queries the two-connection leg replays per round
    batch_frames: int = 0     # search_batch frames of BATCH_FRAME per round
    append_batch: int = 8     # records per append frame
    searches_per_append: int = 8
    sweep_queries: int = 200  # queries the in-process layer sweeps replay
    oracle_sample: int = 200  # answers re-derived by the brute-force scan
    setup_repeats: int = 1    # corpus generations timed (median reported)
    warmup: int = 50          # untimed requests before the first round

    @property
    def n_records(self) -> int:
        """Records generated: the splits plus spare query records, since
        queries that repeat a token set are dropped."""
        spare = self.n_queries // 10 + 10 if self.n_queries else 0
        return self.n_base + self.n_stream + self.n_queries + spare

    @property
    def n_appends(self) -> int:
        return self.n_stream // self.append_batch


SPECS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="batch_join", kind="join", theta=JOIN_THETA,
            why="the paper's headline FS-Join self-join: core+mapreduce do "
                "all the work, the serving stack none",
            n_base=500, setup_repeats=5,
        ),
        WorkloadSpec(
            name="wire_light", kind="wire_light", theta=0.8,
            why="theta=0.8 searches over TCP: the probe is a third of the "
                "request, so net/gateway/cluster fixed costs dominate",
            n_base=10_000, n_queries=2_400, n_paired=1_200, rounds=5,
        ),
        WorkloadSpec(
            name="wire_heavy", kind="wire_heavy", theta=0.6,
            why="theta=0.6 searches and batch frames: candidate generation, "
                "filters and verification in service dominate",
            n_base=3_000, n_queries=884, batch_frames=12,
            rounds=3, sweep_queries=100,
        ),
        WorkloadSpec(
            name="ingest_mixed", kind="ingest", theta=0.8,
            why="appends beside Zipf searches on a fresh --ingest server: "
                "memtable, flushes, compactions and cache invalidation",
            n_base=10_000, n_queries=1_000, n_stream=1_600, rounds=4,
            append_batch=4, searches_per_append=5,
        ),
    )
}

#: Which workload kinds report a metric.
JOIN = ("join",)
LIGHT = ("wire_light",)
HEAVY = ("wire_heavy",)
INGEST = ("ingest",)
WIRE = LIGHT + HEAVY
SERVING = WIRE + INGEST
ALL = JOIN + SERVING


@dataclass(frozen=True)
class Metric:
    """One reported number.  ``bound`` is the share of the parent's median
    by which it may worsen (``None``: a per-layer metric, unbounded).
    ``exact`` marks counts that must repeat bit for bit under one seed.
    ``on`` lists the workload kinds that report it.  ``moves`` names the
    end-to-end metric and workload a layer metric is predicted to move.
    ``role`` is the ``BENCHMARK.json`` metric an end-to-end metric fills
    where ``ROLE_SOURCES`` says so, after multiplying by ``scale``."""

    unit: str
    better: str = "lower"
    bound: Optional[float] = None
    exact: bool = False
    on: Tuple[str, ...] = ALL
    moves: str = ""
    role: Optional[str] = None
    scale: float = 1.0


#: What ``BENCHMARK.json`` lists under ``end_to_end``.  The driver needs
#: every workload to report every one of these, never zero, so they are
#: workload-neutral roles, and each workload fills a role from one of its
#: own metrics (``ROLE_SOURCES``).  The driver runs another seed every
#: time, so a bound here has to cover the role's spread across seeds on
#: its noisiest workload (README, "Bounds").
ROLES: Dict[str, Metric] = {
    "setup_s": Metric("s", bound=0.25),
    "peak_rss_mb": Metric("MB", bound=0.10),
    "latency_p50_ms": Metric("ms", bound=0.25),
    "throughput_per_s": Metric("1/s", "higher", bound=0.25),
    "cpu_ms_per_op": Metric("ms", bound=0.25),
}


def _fills(role: str, unit: str, on: Tuple[str, ...], scale: float = 1.0) -> Metric:
    """An end-to-end metric that fills ``role`` somewhere: the role's
    direction and bound are its own, so each metric has one bound,
    declared once."""
    declared = ROLES[role]
    return Metric(unit, declared.better, declared.bound, on=on, role=role,
                  scale=scale)


#: End-to-end metrics of the untraced run, under the issue's names.  The
#: ones that fill no role are in the document and ``compare.py`` only; their
#: bounds are the issue's and hold between runs of one seed.
END_TO_END: Dict[str, Metric] = {
    "setup_s": _fills("setup_s", "s", ALL),
    "peak_rss_mb": _fills("peak_rss_mb", "MB", ALL),
    "error_share": Metric("share", bound=0.0),
    "join_wall_s": _fills("latency_p50_ms", "s", JOIN, scale=1e3),
    "join_cpu_s": _fills("cpu_ms_per_op", "s", JOIN, scale=1e3),
    "join_records_per_s": _fills("throughput_per_s", "1/s", JOIN),
    "sim_cluster_s": Metric("s", bound=0.02, on=JOIN),
    "search_p50_ms": _fills("latency_p50_ms", "ms", SERVING),
    "search_p95_ms": Metric("ms", bound=0.10, on=HEAVY),
    "search_p99_ms": Metric("ms", bound=0.10, on=LIGHT + INGEST),
    "search_qps_c2": _fills("throughput_per_s", "1/s", LIGHT),
    "batch_qps": _fills("throughput_per_s", "1/s", HEAVY),
    "server_cpu_ms_per_search": _fills("cpu_ms_per_op", "ms", WIRE),
    "server_cpu_ms_per_op": _fills("cpu_ms_per_op", "ms", INGEST),
    "append_records_per_s": _fills("throughput_per_s", "1/s", INGEST),
    "append_p50_ms": _fills("latency_p50_ms", "ms", INGEST),
    "append_p95_ms": Metric("ms", bound=0.10, on=INGEST),
}

#: Which of its metrics a workload kind fills each role from.  The mixed
#: workload's latency is its appends': its searches are Zipf picks, a
#: handful of hot queries sets their median, and that median moves 18 %
#: from one seed to the next (its ``search_p50_ms`` is in the document).
ROLE_SOURCES: Dict[str, Dict[str, str]] = {
    "join": {"latency_p50_ms": "join_wall_s",
             "throughput_per_s": "join_records_per_s",
             "cpu_ms_per_op": "join_cpu_s"},
    "wire_light": {"latency_p50_ms": "search_p50_ms",
                   "throughput_per_s": "search_qps_c2",
                   "cpu_ms_per_op": "server_cpu_ms_per_search"},
    "wire_heavy": {"latency_p50_ms": "search_p50_ms",
                   "throughput_per_s": "batch_qps",
                   "cpu_ms_per_op": "server_cpu_ms_per_search"},
    "ingest": {"latency_p50_ms": "append_p50_ms",
               "throughput_per_s": "append_records_per_s",
               "cpu_ms_per_op": "server_cpu_ms_per_op"},
}
for _sources in ROLE_SOURCES.values():
    _sources.update(setup_s="setup_s", peak_rss_mb="peak_rss_mb")

_JOIN = "join_wall_s @ batch_join"
_SIM = "sim_cluster_s @ batch_join"
_SETUP = "setup_s @ all"
_SERVING_SETUP = "setup_s @ serving"
_RSS = "peak_rss_mb @ serving"
_HEAVY = "search_p50_ms, server_cpu_ms_per_search @ wire_heavy (flat @ wire_light)"
_BOTH = "search_p50_ms @ wire_light, wire_heavy"
_LIGHT = "search_p50_ms @ wire_light"
_NET = "search_p50_ms, search_qps_c2 @ wire_light (flat @ wire_heavy)"
_BATCH = "batch_qps @ wire_heavy"
_CACHE = "search_p50_ms @ ingest_mixed"
_APPEND = "append_records_per_s, append_p95_ms @ ingest_mixed"


def _layer(unit: str, on: Tuple[str, ...], moves: str, better: str = "lower",
           exact: bool = False) -> Metric:
    return Metric(unit, better, exact=exact, on=on, moves=moves)


#: Per-layer metrics of the traced run, keyed ``<src/repro package>.<name>``.
#: A workload measures the layers it loads (``on``); the rest read 0 in
#: the driver's line, which has to carry every name, and nowhere else.
PER_LAYER: Dict[str, Metric] = {
    "data.generate_s": _layer("s", ALL, _SETUP),
    "core.order_build_s": _layer("s", JOIN, _JOIN),
    "core.filter_job_s": _layer("s", JOIN, _JOIN),
    "core.verify_job_s": _layer("s", JOIN, _JOIN),
    "core.pairs_considered": _layer("count", JOIN, _JOIN, exact=True),
    "core.candidates_emitted": _layer("count", JOIN, _JOIN, exact=True),
    "core.verify_token_comparisons": _layer("count", JOIN, _JOIN, exact=True),
    "core.filter_pass_ratio": _layer("ratio", JOIN, _JOIN, exact=True),
    "mapreduce.filter_map_s": _layer("s", JOIN, _JOIN),
    "mapreduce.filter_reduce_s": _layer("s", JOIN, _JOIN),
    "mapreduce.verify_map_s": _layer("s", JOIN, _JOIN),
    "mapreduce.verify_shuffle_s": _layer("s", JOIN, _JOIN),
    "mapreduce.verify_reduce_s": _layer("s", JOIN, _JOIN),
    "mapreduce.runtime_overhead_s": _layer("s", JOIN, _JOIN),
    "mapreduce.sim_cluster_s": _layer("s", JOIN, _SIM),
    "mapreduce.shuffle_bytes": _layer("bytes", JOIN, _SIM, exact=True),
    "mapreduce.replication_rate": _layer("ratio", JOIN, _SIM, exact=True),
    "mapreduce.max_reducer_input_bytes": _layer("bytes", JOIN, _SIM, exact=True),
    "mapreduce.reduce_load_max_over_mean": _layer("ratio", JOIN, _SIM, exact=True),
    "service.index_build_s": _layer("s", SERVING, _SERVING_SETUP),
    "service.probe_p50_ms": _layer("ms", WIRE, _HEAVY),
    "service.prefix_filter_ms": _layer("ms", WIRE, _HEAVY),
    "service.positional_bound_ms": _layer("ms", WIRE, _HEAVY),
    "service.fragment_filters_ms": _layer("ms", WIRE, _HEAVY),
    "service.verification_ms": _layer("ms", WIRE, _HEAVY),
    "service.candidates_per_query": _layer("count", WIRE, _HEAVY, exact=True),
    "service.verify_cmp_per_query": _layer("count", WIRE, _HEAVY, exact=True),
    "service.candidate_precision": _layer("ratio", WIRE, _HEAVY, "higher", exact=True),
    "service.probe_batch_ms_per_query": _layer("ms", HEAVY, _BATCH),
    "service.posting_bytes": _layer("bytes", SERVING, _RSS, exact=True),
    "service.bytes_per_record_byte": _layer("ratio", SERVING, _RSS, exact=True),
    "cluster.build_s": _layer("s", SERVING, _SERVING_SETUP),
    "cluster.save_s": _layer("s", SERVING, _SERVING_SETUP),
    "cluster.snapshot_bytes": _layer("bytes", SERVING, _SERVING_SETUP, exact=True),
    "cluster.shard_probe_sum_ms": _layer("ms", WIRE, _BOTH),
    "cluster.search_p50_ms": _layer("ms", WIRE, _BOTH),
    "cluster.scatter_self_ms": _layer("ms", WIRE, _BOTH),
    "cluster.search_batch_ms_per_query": _layer("ms", HEAVY, _BATCH),
    "gateway.search_p50_ms": _layer("ms", WIRE, _LIGHT),
    "gateway.self_ms": _layer("ms", WIRE, _LIGHT),
    "gateway.cache_hit_ratio": _layer("ratio", SERVING, _CACHE + " (0 @ wire)",
                                      "higher", exact=True),
    "gateway.cache_invalidated": _layer("count", SERVING, _CACHE, exact=True),
    "gateway.dispatches_per_request": _layer("ratio", SERVING, _CACHE),
    "net.server_ready_s": _layer("s", SERVING, _SERVING_SETUP),
    "net.codec_us": _layer("us", WIRE, _NET),
    "net.status_rtt_ms": _layer("ms", WIRE, _NET),
    "net.self_ms": _layer("ms", WIRE, _NET),
    "net.c2_over_c1_qps": _layer("ratio", LIGHT, "search_qps_c2 @ wire_light", "higher"),
    "ingest.apply_batch_p50_ms": _layer("ms", INGEST, _APPEND),
    "ingest.apply_batch_max_ms": _layer("ms", INGEST, _APPEND),
    "ingest.stall_share": _layer("share", INGEST, _APPEND),
    "ingest.flushes": _layer("count", INGEST, _APPEND, exact=True),
    "ingest.compactions": _layer("count", INGEST, _APPEND, exact=True),
    "ingest.generations_final": _layer("count", INGEST, _APPEND, exact=True),
    "ingest.wal_bytes_per_record_byte": _layer("ratio", INGEST, _APPEND, exact=True),
    "ingest.probe_p50_ms": _layer("ms", INGEST, _CACHE),
    "observability.join_overhead_share": _layer("share", JOIN, _JOIN),
    "observability.wire_overhead_share": _layer("share", WIRE, _BOTH),
}
