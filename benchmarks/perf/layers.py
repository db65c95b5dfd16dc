"""The traced run: the layers of ``src/repro`` one workload loads, one by one.

Nothing in ``src/`` is instrumented for this.  Each layer is timed from
outside, around calls into its public functions, and the spans are
recorded with the program's own :class:`repro.observability.Tracer`;
where a function already accepts a tracer or counters (``SimulatedCluster``,
``SegmentIndex.probe``, ``ShardNode.probe``) the spans it emits land
under the harness's span and give that layer's stages.

A workload measures only the layers it loads (``STEPS``): the join its
``core`` and ``mapreduce``, a wire workload the serving stack from the
single-node index out to the socket, the mixed workload the ingest tier
and the gateway cache.  ``spec.PER_LAYER`` says which metric is whose.
"""

from __future__ import annotations

import asyncio
import math
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.calibration import PAPER_SCALE
from repro.baselines.naive import naive_self_join
from repro.cluster import load_cluster
from repro.core import FSJoin
from repro.gateway import GatewayConfig, SimilarityGateway
from repro.ingest import StreamingIndex
from repro.mapreduce import SimulatedCluster
from repro.mapreduce.counters import Counters
from repro.mapreduce.hdfs import InMemoryDFS
from repro.net.protocol import (
    FrameDecoder, encode_frame, hits_from_wire, hits_to_wire, result_frame,
    search_frame,
)
from repro.observability import Tracer, write_jsonl
from repro.similarity import SimilarityFunction

import legs
from inputs import make_inputs, record_bytes
from oracle import JaccardOracle
from server import ServeProcess
from spec import BATCH_FRAME, JOIN_THETA, PER_LAYER, WorkloadSpec
from stats import self_times
from workloads import (
    JOIN_CLUSTER, build_serving, join_config, wrong_mixed_answers,
)

JACCARD = SimilarityFunction.JACCARD
STAGES = {
    "prefix-filter": "prefix_filter_ms",
    "positional-bound": "positional_bound_ms",
    "fragment-filters": "fragment_filters_ms",
    "verification": "verification_ms",
}
STATUS_PROBES = 200
#: Times a read-only replay is made; each request's cost is its fastest,
#: as in the untraced run.  Three, because the budget subtracts medians of
#: separate replays from each other and one burst would show as a layer.
PASSES = 3
#: Distinct queries a wire replay needs before it repeats one, so that the
#: gateway's 256-entry cache never answers: a frame's 32 lookups all
#: precede its inserts.
MIN_CYCLE = 256 + 2 * BATCH_FRAME
#: ``repro serve`` defaults, for the in-process gateway twin.
SERVE_GATEWAY = GatewayConfig(max_batch=32, cache_size=256)


def _median_ms(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1e3


def _frames(items: Sequence) -> List[Sequence]:
    return [items[lo:lo + BATCH_FRAME] for lo in range(0, len(items), BATCH_FRAME)]


def _stage_seconds(spans) -> Dict[str, float]:
    """Summed duration of each probe stage among ``spans``."""
    totals = dict.fromkeys(STAGES, 0.0)
    for span in spans:
        if span.phase == "service" and span.name in totals:
            totals[span.name] += span.duration
    return totals


def _cache_metrics(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, float]:
    """The gateway's cache and dispatch counters over one stretch of load,
    as two reads of the wire ``status`` frame bracket it."""
    delta = {name: after.get(name, 0) - before.get(name, 0) for name in
             ("requests", "cache_hits", "cache_invalidated", "batches")}
    requests = max(1, delta["requests"])
    return {
        "gateway.cache_hit_ratio": delta["cache_hits"] / requests,
        "gateway.cache_invalidated": delta["cache_invalidated"],
        "gateway.dispatches_per_request": delta["batches"] / requests,
    }


class LayerSweep:
    """One traced pass over a workload's layers; fills ``values`` by metric name."""

    def __init__(self, spec: WorkloadSpec, seed: int, workdir: Path) -> None:
        self.spec = spec
        self.seed = seed
        self.theta = spec.theta
        self.workdir = workdir
        self.tracer = Tracer()
        self.values: Dict[str, float] = {}
        self.tally = legs.Tally()
        with self.tracer.span("data.make_inputs", phase="data", seed=seed):
            self.inputs = make_inputs(spec, seed)
        self.values["data.generate_s"] = self.inputs.generate_s
        self.queries = self.inputs.queries[:spec.sweep_queries]

    def timed(self, name: str, phase: str, call, *args, **attrs):
        """Run ``call(*args)``, record its wall as a span, return (result, wall)."""
        started = time.perf_counter()
        result = call(*args)
        wall = time.perf_counter() - started
        self.tracer.add(name, phase, started, wall, **attrs)
        return result, wall

    def replay(self, name: str, phase: str, call, items: Sequence):
        """``call(item)`` for every item, ``PASSES`` times over: the last
        pass's results and each item's fastest wall."""
        best = [math.inf] * len(items)
        for _ in range(PASSES):
            results = []
            for i, item in enumerate(items):
                result, wall = self.timed(name, phase, call, item)
                results.append(result)
                best[i] = min(best[i], wall)
        return results, best

    def agree(self, answers: Sequence[list]) -> None:
        """Every layer must give the single-node index's answers."""
        for got, expected in zip(answers, self.reference):
            self.tally.attempted += 1
            self.tally.failed += got != expected

    # -- core + mapreduce ----------------------------------------------
    def join(self) -> None:
        """The workload's join once untraced and once traced."""
        records = self.inputs.base
        config = join_config()
        plain, plain_wall = self.timed(
            "core.fsjoin", "core",
            FSJoin(config, SimulatedCluster(JOIN_CLUSTER)).run, records)
        mark = self.tracer.mark()
        with self.tracer.span("core.fsjoin-traced", phase="core") as root:
            traced = FSJoin(
                config, SimulatedCluster(JOIN_CLUSTER, tracer=self.tracer)
            ).run(records)
        expected = naive_self_join(records, JOIN_THETA)
        for result in (plain, traced):
            self.tally.attempted += 1
            self.tally.failed += result.result_pairs != expected
        spans = self.tracer.spans_since(mark)
        driver = {s.name: s.duration for s in spans if s.phase == "driver"}
        jobs = {s.name: s.span_id for s in spans if s.phase == "job"}
        waves = {(s.parent_id, s.phase): s.duration for s in spans
                 if s.phase in ("map-wave", "shuffle", "reduce-wave")}
        filter_job, verify_job = jobs["job:fsjoin-filter"], jobs["job:fsjoin-verify"]
        counters = traced.counters()
        considered = counters.get("fsjoin.filter", "pairs_considered")
        emitted = counters.get("fsjoin.filter", "candidates_emitted")
        metrics = {m.job_name: m for m in plain.job_metrics()}
        compute = sum(task.compute_seconds for m in metrics.values()
                      for task in m.map_tasks + m.reduce_tasks)
        self.values.update({
            "core.order_build_s": driver["order-build"],
            "core.filter_job_s": driver["filter-job"],
            "core.verify_job_s": driver["verify-job"],
            "core.pairs_considered": considered,
            "core.candidates_emitted": emitted,
            "core.verify_token_comparisons":
                counters.get("fsjoin.filter", "verify_token_comparisons"),
            "core.filter_pass_ratio": emitted / considered if considered else 0.0,
            "mapreduce.filter_map_s": waves[filter_job, "map-wave"],
            "mapreduce.filter_reduce_s": waves[filter_job, "reduce-wave"],
            "mapreduce.verify_map_s": waves[verify_job, "map-wave"],
            "mapreduce.verify_shuffle_s": waves[verify_job, "shuffle"],
            "mapreduce.verify_reduce_s": waves[verify_job, "reduce-wave"],
            "mapreduce.runtime_overhead_s": plain_wall - compute,
            "mapreduce.sim_cluster_s":
                plain.simulated_time(JOIN_CLUSTER, PAPER_SCALE).total_s,
            "mapreduce.shuffle_bytes": plain.total_shuffle_bytes(),
            "mapreduce.replication_rate":
                metrics["fsjoin-filter"].duplication_byte_factor(),
            "mapreduce.max_reducer_input_bytes":
                max(load for m in metrics.values()
                    for load in m.reduce_input_loads()),
            "mapreduce.reduce_load_max_over_mean":
                metrics["fsjoin-filter"].reduce_load_max_over_mean(),
            "observability.join_overhead_share": root.duration / plain_wall - 1.0,
        })

    # -- what every serving workload sets up ----------------------------
    def serving_stack(self) -> None:
        """Index, shard and save the base records: the parts of ``setup_s``
        and the index's size."""
        with self.tracer.span("cluster.build_serving", phase="cluster"):
            self.serving = build_serving(self.inputs, self.workdir)
        shape = self.serving.index.posting_stats()
        self.values.update({
            "service.index_build_s": self.serving.index_build_s,
            "service.posting_bytes": shape["posting_bytes"],
            "service.bytes_per_record_byte":
                (shape["posting_bytes"] + shape["record_bytes"])
                / record_bytes(self.inputs.base),
            "cluster.build_s": self.serving.cluster_build_s,
            "cluster.save_s": self.serving.save_s,
            "cluster.snapshot_bytes": self.serving.snapshot_bytes,
        })

    # -- service ---------------------------------------------------------
    def service(self) -> None:
        """The single-node index over the base records; its answers are
        the reference the other layers must reproduce."""
        index, theta, n = self.serving.index, self.theta, len(self.queries)
        self.reference, walls = self.replay(
            "service.probe", "service",
            lambda tokens: index.probe(tokens, theta), self.queries)
        counters = Counters()
        mark = self.tracer.mark()
        for tokens in self.queries:
            with self.tracer.span("service.probe-traced", phase="service"):
                index.probe(tokens, theta, counters=counters, tracer=self.tracer)
        stages = _stage_seconds(self.tracer.spans_since(mark))
        probe = counters.group("service.probe")
        self.values.update({
            "service.probe_p50_ms": _median_ms(walls),
            "service.candidates_per_query": probe.get("candidates", 0) / n,
            "service.verify_cmp_per_query":
                probe.get("verify_token_comparisons", 0) / n,
            "service.candidate_precision":
                probe.get("results", 0) / max(1, probe.get("candidates", 0)),
        })
        for stage, name in STAGES.items():
            self.values[f"service.{name}"] = stages[stage] * 1e3 / n
        if self.spec.batch_frames:
            frames, walls = self.replay(
                "service.probe_batch", "service",
                lambda frame: index.probe_batch(
                    [index.encode_query(tokens) for tokens in frame], theta),
                _frames(self.queries))
            self.agree([hits for frame in frames for hits in frame])
            self.values["service.probe_batch_ms_per_query"] = sum(walls) * 1e3 / n

    # -- cluster ---------------------------------------------------------
    def cluster(self) -> None:
        """The loaded router: its search, and the shard probes it makes."""
        self.router = router = load_cluster(self.serving.cluster_dir)
        theta = self.theta
        routed = []
        for tokens in self.queries:
            query = router.encode_query(tokens)
            routed.append((query, sorted(
                {router.plan.shard_of(fragment) for fragment in
                 router.target_fragments(query, theta, JACCARD)})))
        _hits, shard_sums = self.replay(
            "cluster.shard_probes", "cluster",
            lambda item: [router.replica(shard, 0).probe(
                item[0], theta, JACCARD, router.filters) for shard in item[1]],
            routed)
        answers, searches = self.replay(
            "cluster.search", "cluster",
            lambda tokens: router.search(tokens, theta), self.queries)
        self.agree(answers)
        # The same probes once more with the program's stage spans on,
        # for the budget's split of probe time; never read as a timing.
        mark = self.tracer.mark()
        for query, shards in routed:
            for shard in shards:
                with self.tracer.span("cluster.shard_probe-traced",
                                      phase="cluster", shard=shard):
                    router.replica(shard, 0).probe(
                        query, theta, JACCARD, router.filters, self.tracer)
        spans = self.tracer.spans_since(mark)
        own = self_times(spans)
        probes = [s for s in spans if s.name == "cluster.shard_probe-traced"]
        total = sum(s.duration for s in probes) or math.inf
        self.probe_shares = {STAGES[stage]: seconds / total
                             for stage, seconds in _stage_seconds(spans).items()}
        self.probe_shares["other"] = sum(own[s.span_id] for s in probes) / total
        self.cluster_searches = searches
        self.values.update({
            "cluster.shard_probe_sum_ms": _median_ms(shard_sums),
            "cluster.search_p50_ms": _median_ms(searches),
            "cluster.scatter_self_ms":
                _median_ms([s - p for s, p in zip(searches, shard_sums)]),
        })
        if self.spec.batch_frames:
            frames, walls = self.replay(
                "cluster.search_batch", "cluster",
                lambda frame: router.search_batch(frame, theta),
                _frames(self.queries))
            self.agree([hits for frame in frames for hits in frame])
            self.values["cluster.search_batch_ms_per_query"] = (
                sum(walls) * 1e3 / len(self.queries))

    # -- gateway ---------------------------------------------------------
    def gateway(self) -> None:
        """``await gateway.search`` on one running loop (``serve()`` would
        spin a loop per call)."""

        async def one_pass():
            # A fresh gateway each pass: its cache would answer a second one.
            gateway = SimilarityGateway(self.router, SERVE_GATEWAY)
            walls, answers = [], []
            for tokens in self.queries:
                started = time.perf_counter()
                answers.append(await gateway.search(tokens, self.theta))
                walls.append(time.perf_counter() - started)
                self.tracer.add("gateway.search", "gateway", started, walls[-1])
            return walls, answers

        passes = []
        for _ in range(PASSES):
            walls, answers = asyncio.run(one_pass())
            passes.append(walls)
        self.agree(answers)
        walls = [min(each) for each in zip(*passes)]
        self.values.update({
            "gateway.search_p50_ms": _median_ms(walls),
            "gateway.self_ms": _median_ms(
                [g - c for g, c in zip(walls, self.cluster_searches)]),
        })

    # -- net -------------------------------------------------------------
    def net(self) -> None:
        """Real sockets: one plain server for the legs, one ``--trace``
        server for the same one-connection leg."""
        spec, theta, inputs = self.spec, self.theta, self.inputs
        n = len(self.queries)
        cycle = list(enumerate(inputs.queries))[:max(n, MIN_CYCLE)]

        def one_connection(client) -> List[List[float]]:
            """``PASSES`` replays of the cycle; one latency list each."""
            return [self.timed("net.search_leg", "net", legs.search_leg,
                               client, cycle, theta, self.tally)[0]
                    for _ in range(PASSES)]

        plain = ServeProcess(self.serving.cluster_dir)
        try:
            with plain.client() as client:
                legs.warm_up(client, inputs.base[:spec.warmup], theta)
                before = legs.gateway_counters(client)
                passes = one_connection(client)
                if spec.n_paired:
                    with plain.client() as lane0, plain.client() as lane1:
                        wall_c2 = legs.two_connection_leg(
                            [lane0, lane1], cycle, theta, self.tally)
                    # One replay against one replay, both as measured.
                    self.values["net.c2_over_c1_qps"] = sum(passes[-1]) / wall_c2
                self.values.update(
                    _cache_metrics(before, legs.gateway_counters(client)))
                rtts = [self.timed("net.status", "net", client.status)[1]
                        for _ in range(STATUS_PROBES)]
        finally:
            plain.stop()
        trace_path = self.workdir / "server-trace.jsonl"
        traced = ServeProcess(self.serving.cluster_dir, ("--trace", str(trace_path)))
        try:
            with traced.client() as client:
                legs.warm_up(client, inputs.base[:spec.warmup], theta)
                traced_passes = one_connection(client)
        finally:
            traced.stop()
        self.agree([self.tally.answers.get(qi) for qi in range(n)])
        latencies = [min(each) for each in zip(*passes)]
        traced_latencies = [min(each) for each in zip(*traced_passes)]
        self.wire_p50_ms = _median_ms(latencies[:n])
        self.values.update({
            "net.server_ready_s": plain.ready_s,
            "net.codec_us": self._codec_us(),
            "net.status_rtt_ms": _median_ms(rtts),
            "net.self_ms": self.wire_p50_ms - self.values["gateway.search_p50_ms"],
            "observability.wire_overhead_share":
                statistics.median(traced_latencies)
                / statistics.median(latencies) - 1.0,
        })

    def _codec_us(self) -> float:
        """Mean cost of one request's four codec passes, in microseconds:
        request encode + decode, then its real answer's encode + decode."""
        started = time.perf_counter()
        for qi, (tokens, hits) in enumerate(zip(self.queries, self.reference)):
            request = encode_frame(search_frame(qi, tokens, self.theta))
            FrameDecoder().feed(request)
            response = encode_frame(
                result_frame(qi, {"hits": hits_to_wire(hits)}))
            hits_from_wire(FrameDecoder().feed(response)[0].payload["hits"])
        wall = time.perf_counter() - started
        self.tracer.add("net.codec", "net", started, wall, requests=len(self.queries))
        return wall * 1e6 / len(self.queries)

    def net_mixed(self) -> None:
        """The mixed leg against an ``--ingest`` server, for what the
        gateway cache does when appends invalidate it beside searches."""
        spec, inputs = self.spec, self.inputs
        server = ServeProcess(self.serving.cluster_dir, ("--ingest",))
        try:
            with server.client() as client:
                legs.warm_up(client, inputs.base[:spec.warmup], self.theta)
                before = legs.gateway_counters(client)
                self.timed("net.mixed_leg", "net", legs.mixed_leg, client,
                           inputs.append_batches(spec.append_batch), inputs.picks,
                           inputs.queries, self.theta, spec.searches_per_append,
                           self.tally)
                self.values.update(
                    _cache_metrics(before, legs.gateway_counters(client)))
        finally:
            server.stop()
        self.values["net.server_ready_s"] = server.ready_s

    # -- ingest ----------------------------------------------------------
    def ingest(self) -> None:
        """The streaming tier attached in-process, fed the same stream."""
        spec = self.spec
        router = load_cluster(self.serving.cluster_dir)
        streaming = StreamingIndex.attach(
            InMemoryDFS(), "bench-ingest", router.order, router.partitioner)
        router.attach_ingest(streaming)
        applies, probes = [], []
        wal_bytes = logged_bytes = 0
        for b, batch in enumerate(self.inputs.append_batches(spec.append_batch)):
            flushes = streaming.status()["flushes"]
            wal_before = streaming.wal.stats()["bytes"]
            applies.append(self.timed("ingest.apply_batch", "ingest",
                                      router.apply_batch, batch)[1])
            if streaming.status()["flushes"] == flushes:
                # No flush truncated the log: its growth is this batch's cost.
                wal_bytes += streaming.wal.stats()["bytes"] - wal_before
                logged_bytes += record_bytes(batch)
            tokens = self.inputs.queries[
                self.inputs.picks[b * spec.searches_per_append]]
            probes.append(self.timed("ingest.search", "ingest",
                                     router.search, tokens, self.theta)[1])
        # With the whole stream in, the tiered router must answer as a
        # brute-force scan of base + stream does.
        oracle = JaccardOracle(list(self.inputs.base) + self.inputs.stream)
        for tokens in self.queries:
            self.tally.attempted += 1
            self.tally.failed += (router.search(tokens, self.theta)
                                  != oracle.search(tokens, self.theta))
        slowest = sorted(applies)[-max(1, math.ceil(0.05 * len(applies))):]
        status = streaming.status()
        self.values.update({
            "ingest.apply_batch_p50_ms": _median_ms(applies),
            "ingest.apply_batch_max_ms": max(applies) * 1e3,
            "ingest.stall_share": sum(slowest) / sum(applies),
            "ingest.flushes": status["flushes"],
            "ingest.compactions": status["compactions"],
            "ingest.generations_final": len(status["generations"]),
            "ingest.wal_bytes_per_record_byte": wal_bytes / max(1, logged_bytes),
            "ingest.probe_p50_ms": _median_ms(probes),
        })

    def check_mixed(self) -> None:
        """The mixed leg's wire answers, each against the records
        acknowledged before it.  Last: it grows the reference index."""
        self.tally.failed += wrong_mixed_answers(
            self.inputs, self.serving.index, self.theta, self.tally.answers,
            self.spec.oracle_sample, self.seed)


#: The steps of a traced run, by workload kind, in the order they depend
#: on each other.
_WIRE_STEPS = ("serving_stack", "service", "cluster", "gateway", "net")
STEPS = {
    "join": ("join",),
    "wire_light": _WIRE_STEPS,
    "wire_heavy": _WIRE_STEPS,
    "ingest": ("serving_stack", "ingest", "net_mixed", "check_mixed"),
}


def run_traced(spec: WorkloadSpec, seed: int, workdir: Path,
               spans_path: Optional[Path] = None) -> Dict[str, object]:
    """Measure the layers ``spec``'s workload loads; one document like
    :func:`workloads.run_untraced`'s, plus a wire workload's latency budget."""
    sweep = LayerSweep(spec, seed, workdir)
    for step in STEPS[spec.kind]:
        with sweep.tracer.span(f"sweep.{step}", phase="bench"):
            getattr(sweep, step)()
    if spans_path is not None:
        write_jsonl(sweep.tracer.spans(), spans_path)
    values = sweep.values
    expected = [name for name, declared in PER_LAYER.items()
                if spec.kind in declared.on]
    if set(values) != set(expected):
        raise RuntimeError(f"{spec.name}: measured {sorted(values)}, "
                           f"the catalogue says {sorted(expected)}")
    metrics = {
        name: {"value": values[name], "unit": PER_LAYER[name].unit,
               "better": PER_LAYER[name].better, "exact": PER_LAYER[name].exact,
               "moves": PER_LAYER[name].moves}
        for name in expected
    }
    run = {
        "workload": spec.name, "why": spec.why, "seed": seed,
        "inputs_sha256": sweep.inputs.sha256, "spans": len(sweep.tracer),
        "attempted": sweep.tally.attempted, "failed": sweep.tally.failed,
        "metrics": metrics,
    }
    if "net.self_ms" in values:
        run["budget"] = {
            "search_p50_ms": sweep.wire_p50_ms,
            "codec_ms": values["net.codec_us"] / 1e3,
            "probe_shares": sweep.probe_shares,
        }
    return run
