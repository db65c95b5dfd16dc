"""The four end-to-end workloads, run untraced in identical rounds.

Each workload is ``setup`` (untimed but reported as ``setup_s``), then R
identical ``round``s, then ``check`` — the correctness gate, outside the
timed rounds — then ``finish``.  Rounds replay the same requests, and a
timing metric is a statistic of each request's fastest round
(``stats.best_of``), as measured: the machine shows interference bursts
that only ever add time.  The same metric computed on every single round
is recorded beside it.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Tuple

from repro.analysis.calibration import PAPER_SCALE
from repro.baselines.naive import naive_self_join
from repro.cluster import build_cluster, save_cluster
from repro.core import FSJoin, FSJoinConfig
from repro.mapreduce import ClusterSpec, SimulatedCluster
from repro.service import SegmentIndex

import legs
from inputs import Inputs, make_inputs
from oracle import JaccardOracle
from server import ServeProcess
from spec import (
    END_TO_END, INDEX_VERTICAL, JOIN_HORIZONTAL, JOIN_THETA, JOIN_VERTICAL,
    JOIN_WORKERS, MIN_ROUNDS, N_SHARDS, REPLICATION, WorkloadSpec,
)
from stats import Costs, Measured, best_of, p50_ms, summarize, tail_ms

JOIN_CLUSTER = ClusterSpec(workers=JOIN_WORKERS)


def join_config() -> FSJoinConfig:
    return FSJoinConfig(theta=JOIN_THETA, n_vertical=JOIN_VERTICAL,
                        n_horizontal=JOIN_HORIZONTAL)


@dataclass
class Serving:
    """The serving stack's on-disk form and what building it cost."""

    index: SegmentIndex
    cluster_dir: Path
    index_build_s: float
    cluster_build_s: float
    save_s: float
    snapshot_bytes: int

    @property
    def build_s(self) -> float:
        return self.index_build_s + self.cluster_build_s + self.save_s


def build_serving(inputs: Inputs, workdir: Path) -> Serving:
    """Index the base records, shard them, save the cluster directory."""
    started = time.perf_counter()
    index = SegmentIndex.build(inputs.base, n_vertical=INDEX_VERTICAL)
    built = time.perf_counter()
    router = build_cluster(index, n_shards=N_SHARDS, replication=REPLICATION)
    sharded = time.perf_counter()
    cluster_dir = workdir / "cluster"
    snapshot_bytes = save_cluster(router, cluster_dir)
    saved = time.perf_counter()
    return Serving(index, cluster_dir, built - started, sharded - built,
                   saved - sharded, snapshot_bytes)


def oracle_sample(keys, size: int, seed: int) -> List[Hashable]:
    keys = sorted(keys)
    return random.Random(f"{seed}:oracle").sample(keys, min(size, len(keys)))


def wrong_search_answers(inputs: Inputs, index: SegmentIndex, theta: float,
                         answers: Dict[int, list], sample: int, seed: int) -> int:
    """Wire answers keyed by query index that differ from the in-process
    probe, plus those of a seeded sample that differ from the brute-force
    scan."""
    queries = inputs.queries
    wrong = sum(index.probe(queries[qi], theta) != hits
                for qi, hits in answers.items())
    oracle = JaccardOracle(inputs.base)
    return wrong + sum(oracle.search(queries[qi], theta) != answers[qi]
                       for qi in oracle_sample(answers, sample, seed))


def wrong_mixed_answers(inputs: Inputs, index: SegmentIndex, theta: float,
                        answers: Dict[Tuple[int, int], list], sample: int,
                        seed: int) -> int:
    """The same for the mixed leg, whose answers are keyed ``(acknowledged,
    query)``: each is checked against exactly the records acknowledged at
    that point.  Grows ``index`` by the stream as it goes."""
    queries = inputs.queries
    wrong = applied = 0
    for key in sorted(answers):
        acknowledged, qi = key
        if acknowledged > applied:
            index.apply_batch(inputs.stream[applied:acknowledged])
            applied = acknowledged
        wrong += index.probe(queries[qi], theta) != answers[key]
    oracle = JaccardOracle(list(inputs.base) + inputs.stream)
    n_base = len(inputs.base)
    return wrong + sum(
        oracle.search(queries[qi], theta, n_base + acknowledged) != answers[acknowledged, qi]
        for acknowledged, qi in oracle_sample(answers, sample, seed))


class Workload:
    """``setup``, identical ``round``s of raw costs, ``check``, ``finish``;
    ``metrics`` turns one round's costs, or the best of all, into numbers."""

    def __init__(self, spec: WorkloadSpec, inputs: Inputs, seed: int,
                 workdir: Path) -> None:
        self.spec = spec
        self.inputs = inputs
        self.seed = seed
        self.workdir = workdir
        self.tally = legs.Tally()

    def setup(self) -> None:
        pass

    def round(self) -> Costs:
        raise NotImplementedError

    def metrics(self, costs: Costs) -> Dict[str, Measured]:
        raise NotImplementedError

    def check(self) -> None:
        """Count wrong answers into ``tally.failed``; never timed."""
        raise NotImplementedError

    def finish(self) -> Dict[str, float]:
        """The run-level metrics: ``setup_s`` and ``peak_rss_mb``."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class JoinWorkload(Workload):
    """FS-Join self-join of the base records on the serial simulated cluster."""

    def setup(self) -> None:
        self.pairs: List[dict] = []
        self.peak_rss_kb = 0

    def round(self) -> Costs:
        cpu = time.process_time()
        started = time.perf_counter()
        result = FSJoin(join_config(), SimulatedCluster(JOIN_CLUSTER)).run(
            self.inputs.base)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu
        self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.pairs.append(result.result_pairs)
        return {
            "wall": wall, "cpu": cpu,
            "sim": result.simulated_time(JOIN_CLUSTER, PAPER_SCALE).total_s,
        }

    def metrics(self, costs: Costs) -> Dict[str, Measured]:
        return {
            "join_wall_s": Measured(costs["wall"]),
            "join_cpu_s": Measured(costs["cpu"]),
            "join_records_per_s": Measured(len(self.inputs.base) / costs["wall"]),
            "sim_cluster_s": Measured(costs["sim"]),
        }

    def check(self) -> None:
        expected = naive_self_join(self.inputs.base, JOIN_THETA)
        for pairs in self.pairs:
            self.tally.attempted += 1
            self.tally.failed += pairs != expected

    def finish(self) -> Dict[str, float]:
        return {"setup_s": self.inputs.generate_s,
                "peak_rss_mb": self.peak_rss_kb / 1024.0}


class _ServingWorkload(Workload):
    """Shared by the three wire workloads: a cluster directory and a server."""

    serve_flags: Tuple[str, ...] = ()
    server: Optional[ServeProcess] = None
    client = None
    #: the wire replays are sized so no request can find its answer cached.
    may_hit_cache = False

    def setup(self) -> None:
        self.serving = build_serving(self.inputs, self.workdir)
        self.keyed = list(enumerate(self.inputs.queries))
        self.ready: List[float] = []
        self.peak_rss_mb = 0.0
        self.lanes: list = []

    def start_server(self) -> None:
        self.server = ServeProcess(self.serving.cluster_dir, self.serve_flags)
        self.ready.append(self.server.ready_s)
        self.client = self.server.client()
        legs.warm_up(self.client, self.inputs.base[:self.spec.warmup], self.spec.theta)

    def stop_server(self) -> None:
        for lane in self.lanes:
            lane.close()
        self.lanes = []
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            if self.server.address is not None:
                self.peak_rss_mb = max(self.peak_rss_mb, self.server.peak_rss_mb())
            self.server.stop()
            self.server = None

    def finish(self) -> Dict[str, float]:
        if (self.client is not None and not self.may_hit_cache
                and legs.gateway_counters(self.client).get("cache_hits", 0)):
            raise RuntimeError(
                f"{self.spec.name}: the replay hit the gateway cache; its "
                "query cycle must outrun the cache by a batch frame")
        self.stop_server()
        return {
            "setup_s": (self.inputs.generate_s + self.serving.build_s
                        + statistics.median(self.ready)),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def close(self) -> None:
        self.stop_server()

    def check(self) -> None:
        self.tally.failed += wrong_search_answers(
            self.inputs, self.serving.index, self.spec.theta,
            self.tally.answers, self.spec.oracle_sample, self.seed)


class WireLightWorkload(_ServingWorkload):
    """Most queries on one connection, then the rest on two.

    The two legs replay different queries, so a round never asks for an
    answer the 256-entry gateway cache still holds.
    """

    def setup(self) -> None:
        super().setup()
        self.single = self.keyed[:len(self.keyed) - self.spec.n_paired]
        self.paired = self.keyed[len(self.single):]
        self.start_server()
        self.lanes = [self.server.client(), self.server.client()]

    def round(self) -> Costs:
        theta = self.spec.theta
        cpu = self.server.cpu_s()
        search = legs.search_leg(self.client, self.single, theta, self.tally)
        paired_wall = legs.two_connection_leg(
            self.lanes, self.paired, theta, self.tally)
        return {"search": search, "paired_wall": paired_wall,
                "cpu": self.server.cpu_s() - cpu}

    def metrics(self, costs: Costs) -> Dict[str, Measured]:
        return {
            "search_p50_ms": p50_ms(costs["search"]),
            "search_p99_ms": tail_ms(costs["search"]),
            # The whole leg's wall, not per-request minima: a request's
            # wait behind the other connection is load, not interference.
            "search_qps_c2": Measured(len(self.paired) / costs["paired_wall"],
                                      len(self.paired)),
            "server_cpu_ms_per_search":
                Measured(costs["cpu"] * 1e3 / len(self.keyed), len(self.keyed)),
        }


class WireHeavyWorkload(_ServingWorkload):
    """Single searches on one connection, then ``search_batch`` frames."""

    def setup(self) -> None:
        super().setup()
        n_batched = self.spec.batch_frames * legs.BATCH_FRAME
        self.singles = self.keyed[:len(self.keyed) - n_batched]
        self.batched = self.keyed[len(self.singles):]
        self.start_server()

    def round(self) -> Costs:
        theta = self.spec.theta
        cpu = self.server.cpu_s()
        search = legs.search_leg(self.client, self.singles, theta, self.tally)
        frames = legs.batch_leg(self.client, self.batched, theta, self.tally)
        return {"search": search, "frames": frames,
                "cpu": self.server.cpu_s() - cpu}

    def metrics(self, costs: Costs) -> Dict[str, Measured]:
        return {
            "search_p50_ms": p50_ms(costs["search"]),
            "search_p95_ms": tail_ms(costs["search"]),
            "batch_qps": Measured(len(self.batched) / sum(costs["frames"]),
                                  len(self.batched)),
            "server_cpu_ms_per_search":
                Measured(costs["cpu"] * 1e3 / len(self.keyed), len(self.keyed)),
        }


class IngestMixedWorkload(_ServingWorkload):
    """A fresh ``--ingest`` server per round; appends beside Zipf searches."""

    serve_flags = ("--ingest",)
    may_hit_cache = True

    def setup(self) -> None:
        super().setup()
        self.batches = self.inputs.append_batches(self.spec.append_batch)

    def round(self) -> Costs:
        self.start_server()
        cpu = self.server.cpu_s()
        appends, searches = legs.mixed_leg(
            self.client, self.batches, self.inputs.picks, self.inputs.queries,
            self.spec.theta, self.spec.searches_per_append, self.tally,
        )
        cpu = self.server.cpu_s() - cpu
        self.stop_server()
        return {"append": appends, "search": searches, "cpu": cpu}

    def metrics(self, costs: Costs) -> Dict[str, Measured]:
        appends, searches = costs["append"], costs["search"]
        n_records = len(appends) * self.spec.append_batch
        return {
            "append_records_per_s": Measured(n_records / sum(appends), len(appends)),
            "append_p50_ms": p50_ms(appends),
            "append_p95_ms": tail_ms(appends),
            "search_p50_ms": p50_ms(searches),
            "search_p99_ms": tail_ms(searches),
            "server_cpu_ms_per_op": Measured(
                costs["cpu"] * 1e3 / (len(appends) + len(searches)),
                len(appends) + len(searches)),
        }

    def check(self) -> None:
        self.tally.failed += wrong_mixed_answers(
            self.inputs, self.serving.index, self.spec.theta,
            self.tally.answers, self.spec.oracle_sample, self.seed)


KINDS = {
    "join": JoinWorkload,
    "wire_light": WireLightWorkload,
    "wire_heavy": WireHeavyWorkload,
    "ingest": IngestMixedWorkload,
}


def run_untraced(spec: WorkloadSpec, seed: int, seconds: Optional[float],
                 workdir: Path) -> Dict[str, object]:
    """Set up, run rounds, check, and summarize one workload."""
    inputs = make_inputs(spec, seed)
    workload = KINDS[spec.kind](spec, inputs, seed, workdir)
    rounds: List[Costs] = []
    try:
        workload.setup()
        started = time.perf_counter()
        while True:
            round_started = time.perf_counter()
            rounds.append(workload.round())
            now = time.perf_counter()
            if seconds is None:
                if len(rounds) >= spec.rounds:
                    break
            elif (len(rounds) >= MIN_ROUNDS
                  and now - started + (now - round_started) > seconds):
                break
        workload.check()
        run_level = workload.finish()
    finally:
        workload.close()
    tally = workload.tally
    per_round = [workload.metrics(costs) for costs in rounds]
    metrics: Dict[str, Dict[str, object]] = {}
    for name, measured in workload.metrics(best_of(rounds)).items():
        metrics[name] = summarize(measured, [each[name].value for each in per_round])
    for name, value in run_level.items():
        metrics[name] = summarize(Measured(value), [value])
    metrics["error_share"] = summarize(
        Measured(tally.failed / tally.attempted, tally.attempted), [])
    for name, entry in metrics.items():
        declared = END_TO_END[name]
        entry.update(unit=declared.unit, better=declared.better, bound=declared.bound)
    return {
        "workload": spec.name, "why": spec.why, "seed": seed,
        "inputs_sha256": inputs.sha256, "rounds": len(rounds),
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": metrics,
    }
