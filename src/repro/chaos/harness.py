"""Chaos scenarios: inject scheduled faults, then prove the system recovered.

Each scenario runs one layer of the stack under a seeded
:class:`~repro.chaos.schedule.FaultSchedule` and checks the robustness
contract the repo promises:

    under injected faults, a run either produces **bit-identical** results
    to its fault-free twin, or fails with a **typed**
    :class:`~repro.errors.ReproError` (or an explicitly ``complete=False``
    partial result) — silent corruption and silently missing output are
    the only unacceptable outcomes.

* :func:`run_join_scenario` — the MapReduce pipeline: task attempts die
  and straggle (speculative execution races the stragglers), then the
  driver is killed mid-pipeline at a scheduled DFS write and one surviving
  checkpoint is corrupted in place; a ``resume=True`` re-run must skip the
  digest-valid checkpoints, re-run the corrupted job, and produce exactly
  the fault-free pairs.
* :func:`run_cluster_scenario` — the serving cluster: a replica flaps
  (fails probes until its circuit breaker opens, then heals); every search
  during and after the flap must equal the single-node index's answer, the
  breaker must open *and* close again (the rejoin), and with a whole shard
  down ``search`` must fail typed while ``search_partial`` must flag its
  answer incomplete and name the missing fragments.
* :func:`run_search_scenario` — one node's serving path: a snapshot
  corrupted on disk must fail closed with a typed error on load, and a
  request to a one-shard router that overruns its deadline (latency
  injected on the chaos clock) must raise
  :class:`~repro.errors.DeadlineExceededError` rather than return late.
* :func:`run_ingest_scenario` — the streaming ingest subsystem: the
  driver is killed at each of the three crash points of the write path
  (a torn WAL batch, the manifest's pre-commit write, its post-commit
  marker); after each kill ``StreamingIndex.recover`` must replay the
  WAL, garbage-collect orphans, and — once the lost batches are
  re-applied — answer probes bit-identically to an uninterrupted twin,
  with the post-compaction index *structurally* identical (equal pickle
  bytes) to a fresh index built from the same records.
* :func:`run_heal_scenario` — the self-healing control plane: one replica
  hard-killed and another silently bit-rotted under Zipf-skewed load; the
  failure detector must escalate the kill to a rebuild, the anti-entropy
  scrubber must quarantine the rot before it serves, both replicas must
  come back through verified (bit-identical) readmission with no operator
  action, and every answer along the way must equal the single-node
  index's.
* :func:`run_net_scenario` — the TCP front door: a live
  :class:`~repro.net.server.GatewayServer` is hit with seeded socket
  faults (torn frames, half-sent-then-silent headers, peers that hang up
  before reading their response, garbage headers); every probe must
  still answer bit-identically to the single-node index, stalled
  connections must be timed out and counted, garbage must be rejected
  with a typed ``ProtocolError`` frame, and a final drain must complete.

Every scenario starts from the same :class:`_Rig` (schedule, injector,
chaos clock, corpus, index, span mark) and ends in its one report
finisher; cluster, gateway and heal share its cluster build and victim
pick, cluster and gateway its flap.  :func:`run_recovery_report` chains
them all into the :class:`RecoveryReport` the ``repro chaos`` CLI prints.
Everything is a pure function of the seed: the same seed replays the same
faults, the same recoveries, the same report.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.schedule import ChaosClock, ChaosConfig, FaultInjector, FaultSchedule
from repro.cluster import BreakerConfig, RetryPolicy, build_cluster
from repro.core import FSJoin, FSJoinConfig
from repro.data import RecordCollection, make_corpus
from repro.errors import (
    ClusterError,
    ConfigError,
    DeadlineExceededError,
    DFSError,
    ReproError,
    SnapshotError,
)
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.runtime import ClusterSpec, SimulatedCluster
from repro.observability.tracer import NOOP_TRACER, Tracer
from repro.service import SegmentIndex, load_index, save_index
from repro.similarity.functions import SimilarityFunction

#: DFS path whose read the join scenario's driver kill is armed on — the
#: verification job's input, so the kill lands *between* jobs 2 and 3.
KILL_POINT = ("read", "fsjoin/partial-counts")

#: Each scenario's corpus, ``make_corpus("wiki", records, seed % modulus)``,
#: as ``(records, modulus, n_vertical)``; ``n_vertical`` is ``None`` where
#: the scenario builds no single-node index of its own.  Report inputs: a
#: changed entry changes every report that seed prints.
CORPORA: Dict[str, Tuple[int, int, Optional[int]]] = {
    "join": (120, 997, None),
    "cluster": (100, 991, 12),
    "search": (80, 983, 10),
    "ingest": (120, 977, None),
    "gateway": (120, 971, 12),
    "net": (80, 971, 8),
    "heal": (100, 983, 12),
}

#: The breaker of every chaos cluster: two failed probes open it, one
#: chaos-clock second later a half-open trial may close it.
BREAKER = BreakerConfig(failure_threshold=2, reset_timeout=1.0)

#: What each wire fault of the net scenario does, as its fault log says.
NET_FAULTS = {
    "torn-frame": "frame written in 3 chunks",
    "stalled-connection": "header left half-sent",
    "connection-kill": "peer hung up before reading the response",
}


@dataclass
class ScenarioReport:
    """Outcome of one chaos scenario."""

    scenario: str
    seed: int
    matched: bool
    """Did the chaos run's output equal the fault-free run's, bit for bit?"""
    error: Optional[str] = None
    """Typed error name when the run failed closed instead of recovering."""
    faults: Dict[str, int] = field(default_factory=dict)
    """Injected faults by kind (driver-side injections)."""
    recovery: Dict[str, int] = field(default_factory=dict)
    """Observed recovery actions by kind (retries, speculative wins,
    resume skips, failovers, breaker transitions...)."""
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """The contract held: recovered exactly, or failed typed."""
        return self.matched or self.error is not None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ok": self.ok,
            "matched": self.matched,
            "error": self.error,
            "faults": dict(self.faults),
            "recovery": dict(self.recovery),
            "detail": dict(self.detail),
        }


@dataclass
class RecoveryReport:
    """All scenarios for one seed — what ``repro chaos`` prints."""

    seed: int
    scenarios: List[ScenarioReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(scenario.ok for scenario in self.scenarios)

    def total_faults(self) -> int:
        return sum(sum(s.faults.values()) for s in self.scenarios)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "faults_injected": self.total_faults(),
            "scenarios": [scenario.as_dict() for scenario in self.scenarios],
        }


def _recovery_from_spans(tracer: Tracer, mark: int) -> Dict[str, int]:
    """Count ``phase="recovery"`` spans since ``mark`` by their action."""
    counts: Dict[str, int] = {}
    for span in tracer.spans_since(mark):
        if span.phase == "recovery":
            action = span.attrs.get("action", span.name)
            counts[action] = counts.get(action, 0) + 1
    return counts


def _moved(route: Dict[str, int], keys: Sequence[str]) -> Dict[str, int]:
    """The named ``cluster.route`` counters that moved, in ``keys`` order."""
    return {key: route[key] for key in keys if route.get(key)}


class _Rig:
    """What every scenario starts from, built once.

    The normalised similarity function, the tracer (no-op unless given)
    and the span mark recovery is counted from, the seed's
    :class:`FaultSchedule` and the :class:`FaultInjector` that logs every
    fault, one :class:`ChaosClock` for breakers, retry sleeps and
    deadlines, and the scenario's :data:`CORPORA` corpus with its
    single-node index — the exact answer every served one is held to.
    """

    def __init__(
        self,
        scenario: str,
        seed: int,
        theta: float,
        func: SimilarityFunction,
        tracer: Optional[Tracer],
        config: ChaosConfig = ChaosConfig(),
        n_records: Optional[int] = None,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.theta = theta
        self.func = SimilarityFunction(func)
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.schedule = FaultSchedule(seed, config)
        self.injector = FaultInjector(self.schedule, self.tracer)
        self.clock = ChaosClock()
        size, modulus, n_vertical = CORPORA[scenario]
        self.records = make_corpus(
            "wiki", n_records if n_records is not None else size,
            seed=seed % modulus,
        )
        self.index = (
            SegmentIndex.build(self.records, n_vertical=n_vertical)
            if n_vertical is not None else None
        )
        self.mark = self.tracer.mark()

    def expect(self, tokens):
        """The single-node index's answer: what every served one must be."""
        return self.index.probe(tokens, self.theta, self.func)

    def wrong(self, router, tokens) -> bool:
        """Does the cluster answer ``tokens`` differently from the index?"""
        answer = router.search(tokens, self.theta, func=self.func)
        return answer != self.expect(tokens)

    def cluster(self, n_shards: int, **options):
        """The chaos-configured cluster over the rig's index: two
        replicas, one seeded retry, :data:`BREAKER`, and the chaos clock
        as both breaker time and retry sleep."""
        return build_cluster(
            self.index,
            n_shards=n_shards,
            replication=2,
            tracer=self.tracer,
            retry=RetryPolicy(max_retries=1, base_delay=0.01, seed=self.seed),
            breaker=BREAKER,
            clock=self.clock,
            sleep=self.clock.sleep,
            **options,
        )

    def victim_shard(self, router, tokens) -> int:
        """A shard ``tokens`` provably routes to, so a fault placed there
        is on the path of every probe of them."""
        targets = router.target_fragments(
            router.encode_query(tokens), self.theta, self.func
        )
        return router.plan.shard_of(targets[0]) if targets else 0

    def flap(self, router, shard: int, serve: Callable[[], int]):
        """Flap replica 0 of ``shard`` under ``serve`` (one request,
        returning its mismatch count); returns the victim and the
        mismatches.

        The replica fails a breaker's worth of probes.  With round-robin
        rotation, two full rotations burn that budget and trip the
        breaker open; once the chaos clock passes the reset timeout, one
        more rotation's half-open trial finds the replica healed and
        closes it again.
        """
        victim = router.replica(shard, 0)
        self.injector.crash_replica(victim, probes=BREAKER.failure_threshold)
        mismatches = sum(serve() for _ in range(2 * router.replication))
        self.clock.advance(BREAKER.reset_timeout)
        mismatches += sum(serve() for _ in range(router.replication))
        return victim, mismatches

    def report(
        self,
        matched: bool,
        detail: Dict[str, Any],
        counters: Optional[Dict[str, int]] = None,
        error: Optional[str] = None,
    ) -> ScenarioReport:
        """The scenario's report: every fault the injector logged, and as
        recovery the ``phase="recovery"`` spans since the mark plus the
        scenario's own recovery ``counters``."""
        recovery = _recovery_from_spans(self.tracer, self.mark)
        for key, value in (counters or {}).items():
            recovery[key] = recovery.get(key, 0) + value
        return ScenarioReport(
            scenario=self.scenario,
            seed=self.seed,
            matched=matched,
            error=error,
            faults=self.injector.report(),
            recovery=recovery,
            detail=detail,
        )


def run_join_scenario(
    seed: int,
    theta: float = 0.7,
    func: SimilarityFunction = SimilarityFunction.JACCARD,
    executor: str = "serial",
    n_records: int = 120,
    tracer: Optional[Tracer] = None,
) -> ScenarioReport:
    """Kill, corrupt and straggle the FS-Join pipeline; resume must heal it.

    Timeline (all from the seed): run 1 executes under task failures and
    stragglers with speculative execution on, and is driver-killed at the
    verify job's input read — after the ordering and filter checkpoints
    are durable.  The filter checkpoint is then corrupted in place
    (silent bit rot).  Run 2 (``resume=True``) must skip only the
    digest-valid ordering checkpoint, re-run the corrupted filter job,
    and finish with pairs bit-identical to a fault-free run.
    """
    rig = _Rig(
        "join", seed, theta, func, tracer,
        ChaosConfig(task_failure_rate=0.12, straggler_rate=0.2,
                    straggler_delay=0.3),
        n_records=n_records,
    )
    records = rig.records
    join_config = FSJoinConfig(theta=theta, func=rig.func)

    # The fault-free twin every comparison is against.
    baseline = FSJoin(join_config).run(records)

    dfs = rig.injector.attach_dfs(InMemoryDFS())
    rig.injector.schedule_kill(*KILL_POINT)
    mr_cluster = SimulatedCluster(
        ClusterSpec(executor=executor),
        failure_injector=rig.schedule.task_failure,
        straggler_injector=rig.schedule.straggler,
        tracer=rig.tracer,
    )
    join = FSJoin(join_config, mr_cluster, dfs=dfs)

    detail: Dict[str, Any] = {}
    try:
        join.run(records)
        detail["first_run"] = "completed"  # kill point not reached (unexpected)
    except DFSError:
        detail["first_run"] = "killed mid-pipeline"
    except ReproError as exc:
        # e.g. a task exhausted its retry budget under a harsh schedule —
        # a typed failure, and the resume below still gets its chance.
        detail["first_run"] = f"failed typed: {type(exc).__name__}"

    if dfs.exists("fsjoin/ckpt/filter"):
        rig.injector.corrupt(dfs, "fsjoin/ckpt/filter")

    try:
        result = join.run(records, resume=True)
    except ReproError as exc:
        detail["resume_error"] = str(exc)
        return rig.report(False, detail, error=type(exc).__name__)
    detail["resumed_jobs"] = list(result.resumed_jobs)
    matched = (
        result.result_pairs == baseline.result_pairs
        and result.result_set() == baseline.result_set()
    )
    counters = result.counters().as_dict().get("mapreduce", {})
    detail["pairs"] = len(result.pairs)
    return rig.report(matched, detail, {
        key: value for key, value in counters.items()
        if "retries" in key or "speculative" in key
    })


def run_cluster_scenario(
    seed: int,
    theta: float = 0.6,
    func: SimilarityFunction = SimilarityFunction.JACCARD,
    tracer: Optional[Tracer] = None,
) -> ScenarioReport:
    """Flap a replica and down a shard; routing must absorb both.

    Phase 1 — *flap*: replica 0 of a shard the first query routes to
    fails its next probes (the breaker threshold), so the router fails
    over, trips the breaker open, and — once the chaos clock passes the
    reset timeout — rejoins the healed replica through a half-open trial.
    Every search result is compared to the single-node index's answer.

    Phase 2 — *shard down*: every replica of one shard is stopped;
    ``search`` must raise a typed :class:`ClusterError` and
    ``search_partial`` must return ``complete=False`` naming the missing
    fragments.  After restore, full answers must come back.
    """
    rig = _Rig("cluster", seed, theta, func, tracer)
    records, func = rig.records, rig.func
    router = rig.cluster(n_shards=4)

    queries = [records[i].tokens for i in range(0, len(records), 7)]
    # The flap victim is a shard queries[0] provably routes to, so every
    # flap-phase probe actually exercises the broken replica.
    flap_tokens = queries[0]
    victim_shard = rig.victim_shard(router, flap_tokens)
    victim, mismatches = rig.flap(
        router, victim_shard, lambda: rig.wrong(router, flap_tokens)
    )

    breaker_stats = router.breaker(victim_shard, 0).transitions
    detail: Dict[str, Any] = {
        "victim": victim.name,
        "victim_breaker": dict(breaker_stats),
        "victim_tripped": breaker_stats["opened"] >= 1,
        "victim_rejoined": breaker_stats["closed"] >= 1,
    }

    # Correctness sweep with the cluster healed: broad query coverage.
    mismatches += sum(rig.wrong(router, tokens) for tokens in queries)
    detail["queries"] = len(queries)
    detail["mismatches"] = mismatches

    # Shard-down phase: typed failure vs flagged partial on the same query.
    downed = victim_shard
    for r in range(router.replication):
        router.replica(downed, r).fail()
    typed_failure = False
    try:
        router.search(flap_tokens, theta, func=func)
    except ClusterError:
        typed_failure = True
    partial = router.search_partial(flap_tokens, theta, func=func)
    partial_flagged = (
        not partial.complete and downed in partial.missing_shards
    )
    detail["typed_failure_when_shard_down"] = typed_failure
    detail["partial_flagged"] = partial_flagged
    detail["partial_missing_fragments"] = list(partial.missing_fragments)
    for r in range(router.replication):
        router.replica(downed, r).restore()
    rig.clock.advance(BREAKER.reset_timeout)
    restored_ok = not rig.wrong(router, flap_tokens)
    detail["restored_ok"] = restored_ok

    matched = (
        mismatches == 0
        and restored_ok
        and detail["victim_tripped"]
        and detail["victim_rejoined"]
        and typed_failure
        and partial_flagged
    )
    return rig.report(matched, detail, _moved(
        router.metrics.group("cluster.route"),
        ("failovers", "breaker_opened", "breaker_closed", "retries",
         "breaker_skipped", "partial_results"),
    ))


def run_search_scenario(
    seed: int,
    theta: float = 0.7,
    func: SimilarityFunction = SimilarityFunction.JACCARD,
    tracer: Optional[Tracer] = None,
) -> ScenarioReport:
    """Corrupt a snapshot on disk and overrun a deadline; both fail typed.

    The snapshot must fail closed (:class:`SnapshotError` on load, never a
    silently wrong index), and a probe that runs past its deadline on the
    chaos clock must raise :class:`DeadlineExceededError` — while the same
    probe with a sane deadline still answers exactly.
    """
    import tempfile
    from pathlib import Path

    rig = _Rig("search", seed, theta, func, tracer)
    records, index, func = rig.records, rig.index, rig.func
    probe_tokens = records[stable_mod(seed, len(records))].tokens
    expected = rig.expect(probe_tokens)

    detail: Dict[str, Any] = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chaos.idx"
        save_index(index, path)
        # Intact round-trip first: the baseline the corruption breaks.
        detail["roundtrip_ok"] = (
            load_index(path).probe(probe_tokens, theta, func) == expected
        )
        raw = bytearray(path.read_bytes())
        offset = len(raw) // 2 + stable_mod(seed, max(1, len(raw) // 4))
        raw[offset] ^= 0xFF
        path.write_bytes(bytes(raw))
        rig.injector.record("snapshot-corruption", str(path),
                            f"byte {offset} flipped")
        try:
            load_index(path)
            corruption_detected = False
        except SnapshotError:
            corruption_detected = True
        detail["corruption_detected"] = corruption_detected

    clock = rig.clock
    router = build_cluster(index, n_shards=1, tracer=rig.tracer, clock=clock)
    hits = router.search(probe_tokens, theta, func=func, deadline=60.0)
    detail["in_deadline_ok"] = hits == expected
    victim = router.replica(0, 0)
    rig.injector.record("latency-spike", victim.name,
                        "+1.000s on the chaos clock mid-request")
    victim.fault_hook = lambda node: clock.advance(1.0)
    deadline_typed = False
    try:
        router.search(probe_tokens, theta, func=func, deadline=0.5)
    except DeadlineExceededError:
        deadline_typed = True
    detail["deadline_typed"] = deadline_typed
    detail["deadline_counter"] = router.metrics.get(
        "cluster.route", "deadline_exceeded"
    )

    matched = (
        detail["roundtrip_ok"]
        and corruption_detected
        and detail["in_deadline_ok"]
        and deadline_typed
    )
    return rig.report(matched, detail, {
        "fail-closed": int(corruption_detected) + int(deadline_typed)
    })


def run_ingest_scenario(
    seed: int,
    theta: float = 0.6,
    func: SimilarityFunction = SimilarityFunction.JACCARD,
    tracer: Optional[Tracer] = None,
) -> ScenarioReport:
    """Kill the ingest driver at every crash point; recovery must be exact.

    An uninterrupted twin streams the same batches through a
    :class:`~repro.ingest.StreamingIndex` (same seed, same config) and is
    the bit-identical reference.  Then, for each kill point —

    * ``wal-tear``: the batch's record entries land but the driver dies
      before the commit marker (``after=1`` on the WAL segment append),
      leaving a torn tail that replay must discard whole;
    * ``pre-commit``: a flush persists its segment but dies writing the
      manifest's ``CURRENT`` pointer — the commit record — so recovery
      must roll back to the previous manifest, GC the orphan segment, and
      re-apply the batches from the WAL;
    * ``post-commit``: the commit record lands and the driver dies on the
      ``COMMITTED`` audit marker — recovery must adopt the *new* manifest
      and replay nothing it already covers;

    — the harness restarts via :meth:`StreamingIndex.recover`, re-applies
    whichever batches the kill lost (torn batches are atomic: either
    every rid of a batch survives or none does), runs a major compaction,
    and requires probe results equal to the twin's *and* the compacted
    generation's pickle bytes equal to a fresh
    :class:`~repro.service.SegmentIndex` built from the union — the
    crash-safety drill's structural half.
    """
    import pickle

    from repro.ingest import IngestConfig, StreamingIndex

    rig = _Rig("ingest", seed, theta, func, tracer)
    records, func, tracer = rig.records, rig.func, rig.tracer
    batch_size = 8
    base = records[: len(records) // 3]
    stream = records[len(records) // 3:]
    batches = [stream[i:i + batch_size]
               for i in range(0, len(stream), batch_size)]
    queries = [records[i].tokens for i in range(0, len(records), 5)]
    config = IngestConfig(memtable_limit=2 * batch_size, fanout=2)

    def build(dfs):
        return StreamingIndex.create(
            dfs, records=RecordCollection(base), n_vertical=12,
            config=config, tracer=tracer,
        )

    # The fault-free twin: same batches, no kills, one major compaction.
    twin = build(InMemoryDFS())
    for batch in batches:
        twin.apply_batch(batch)
    twin.compact(major=True)
    expected = [twin.probe(q, theta, func) for q in queries]

    detail: Dict[str, Any] = {"batches": len(batches)}
    matched = True
    for point in ("wal-tear", "pre-commit", "post-commit"):
        dfs = rig.injector.attach_dfs(InMemoryDFS())
        live = build(dfs)
        for batch in batches[:-1]:
            live.apply_batch(batch)
        op, path = live.kill_points()[point]
        rig.injector.schedule_kill(
            op, path, after=1 if point == "wal-tear" else 0
        )
        killed = False
        try:
            live.apply_batch(batches[-1])
            live.flush()
        except DFSError:
            killed = True

        recovered = StreamingIndex.recover(dfs, config=config, tracer=tracer)
        lost = [b for b in batches if b[0].rid not in recovered]
        # Batch atomicity: a lost batch must be lost *whole*.
        torn_whole = all(
            not any(r.rid in recovered for r in b) for b in lost
        )
        for batch in lost:
            recovered.apply_batch(batch)
        recovered.compact(major=True)

        probes_ok = all(
            recovered.probe(q, theta, func) == expected[i]
            for i, q in enumerate(queries)
        )
        fresh = recovered.to_segment_index()
        structural_ok = pickle.dumps(
            recovered.generations[0].index
        ) == pickle.dumps(fresh)
        point_ok = (killed and torn_whole and probes_ok and structural_ok
                    and len(recovered) == len(records))
        matched = matched and point_ok
        detail[point] = {
            "killed": killed,
            "lost_batches": len(lost),
            "torn_whole": torn_whole,
            "probes_ok": probes_ok,
            "structural_ok": structural_ok,
        }

    return rig.report(matched, detail)


def run_gateway_scenario(
    seed: int,
    theta: float = 0.6,
    func: SimilarityFunction = SimilarityFunction.JACCARD,
    tracer: Optional[Tracer] = None,
) -> ScenarioReport:
    """Storm, flap and slow the gateway's cluster; answers must stay exact.

    Four phases, one gateway, one chaos clock shared by the router, its
    breakers and every latency histogram:

    * *storm* — a hot-key storm from a small-quota tenant alongside a
      paid tenant's distinct probes: the duplicates must coalesce onto
      one shared computation, the quota overflow must shed typed (a
      seeded schedule sheds the same requests every run), and the paid
      tenant must be untouched.
    * *flap* — replica 0 of a shard the storm key provably routes to
      fails its next probes: the batched scatter must fail over, trip
      the breaker (which also removes the replica from hedge-backup
      duty), and — once the chaos clock passes the reset timeout —
      rejoin it through a half-open trial.
    * *hedge* — the healed replica turns slow (a real-time stall, since
      the hedge race is a wall-clock one): whenever it is the primary
      leg, the rolling-p95 hedge timer must fire a backup probe on its
      twin and take the answer that lands first.  Replicas serve the
      same slice, so every answer along the way must stay bit-identical
      with zero dedup.
    * *spike* — a replica's probes advance the *chaos clock*: the spike
      must show up in the gateway's latency percentiles, proving the
      histograms record on the same injectable clock the deadline checks
      read (the one-clock contract).

    Every response in every phase is compared against the single-node
    index's answer.
    """
    import time as _time

    from repro.cluster import HedgeConfig
    from repro.gateway import (
        GatewayConfig,
        GatewayRequest,
        SimilarityGateway,
        TenantConfig,
    )

    rig = _Rig("gateway", seed, theta, func, tracer)
    records, func = rig.records, rig.func
    injector, clock = rig.injector, rig.clock
    # min_observations high: the rolling p95 of chaos-clock legs is ~0,
    # so the hedge timer stays pinned at min_delay — deterministic.  The
    # race itself is wall-clock: min_delay sits far above a healthy leg
    # (a few ms even on a loaded box, where 2 ms fired spurious hedges)
    # and far below the 50 ms stall, so exactly the stalled legs hedge.
    router = rig.cluster(n_shards=4, hedge=HedgeConfig(
        min_delay=0.02, max_delay=0.05, min_observations=10_000,
    ))
    # cache_size=0: every wave re-dispatches, so flap/hedge waves keep
    # exercising the scatter path instead of the result cache.
    gateway = SimilarityGateway(
        router,
        GatewayConfig(
            max_batch=16,
            cache_size=0,
            tenants={
                "free": TenantConfig(weight=1, max_outstanding=4),
                "paid": TenantConfig(weight=3, max_outstanding=64),
            },
        ),
    )
    detail: Dict[str, Any] = {}

    def check(requests, responses) -> int:
        """How many answered responses differ from the index's answer."""
        return sum(
            1 for request, response in zip(requests, responses)
            if response.ok
            and list(response.hits) != rig.expect(request.tokens)
        )

    # Storm phase: 12 identical free-tenant probes (quota 4) riding with
    # 6 distinct paid probes in one scheduling wave.
    hot = records[stable_mod(seed, len(records))]
    storm = [GatewayRequest(tuple(hot.tokens), theta, func=func,
                            tenant="free") for _ in range(12)]
    paid = [GatewayRequest(tuple(records[(i * 7 + 3) % len(records)].tokens),
                           theta, func=func, tenant="paid")
            for i in range(6)]
    responses = gateway.serve(storm + paid)
    mismatches = check(storm + paid, responses)
    stats = gateway.metrics.group("gateway")
    paid_ok = all(r.ok for r in responses[len(storm):])
    shed = [r for r in responses[: len(storm)] if r.error]
    detail["storm"] = {
        "coalesced": stats.get("coalesced", 0),
        "quota_shed": stats.get("quota_shed", 0),
        "shed_typed": all(r.error == "QuotaExceededError" for r in shed),
        "paid_unaffected": paid_ok,
    }
    injector.record("hot-key-storm", "tenant:free",
                    f"{len(storm)} identical probes, quota 4")

    # Flap phase: crash a replica of a shard the hot key routes to, then
    # keep probing it through the gateway until the breaker trips.
    victim_shard = rig.victim_shard(router, list(hot.tokens))
    flap_request = [GatewayRequest(tuple(hot.tokens), theta, func=func,
                                   tenant="paid")]

    def serve_flap() -> int:
        return check(flap_request, gateway.serve(flap_request))

    victim, flap_mismatches = rig.flap(router, victim_shard, serve_flap)
    mismatches += flap_mismatches
    transitions = router.breaker(victim_shard, 0).transitions
    detail["flap"] = {
        "victim": victim.name,
        "victim_tripped": transitions["opened"] >= 1,
        "victim_rejoined": transitions["closed"] >= 1,
    }

    # Hedge phase: the healed victim stalls in real time (the hedge race
    # is wall-clock); whenever it is the primary leg the timer fires its
    # twin and the fast answer wins — bit-identical either way.
    def stall(target) -> None:
        _time.sleep(0.05)

    victim.fault_hook = stall
    injector.record("replica-stall", victim.name,
                    "+50ms wall time per probe batch")
    for _ in range(3 * router.replication):
        mismatches += serve_flap()
    victim.fault_hook = None
    route = router.metrics.group("cluster.route")
    detail["hedge"] = {
        "hedges": route.get("hedges", 0),
        "hedge_wins": route.get("hedge_wins", 0),
    }

    # Spike phase: probes advance the chaos clock; the spike must appear
    # in the gateway's shared-clock latency percentiles.  Both replicas
    # get the spike so rotation cannot route around it.
    def spike(target) -> None:
        clock.advance(0.25)

    for replica_id in range(router.replication):
        router.replica(victim_shard, replica_id).fault_hook = spike
    injector.record("latency-spike", f"shard{victim_shard}",
                    "+250ms on the chaos clock per probe batch")
    mismatches += serve_flap()
    for replica_id in range(router.replication):
        router.replica(victim_shard, replica_id).fault_hook = None
    latency = gateway.latency_info()
    detail["spike"] = {
        "latency_count": latency["count"],
        "latency_max_ms": latency["max_ms"],
        "latency_visible": latency["max_ms"] > 0.0,
    }

    matched = (
        mismatches == 0
        and detail["storm"]["coalesced"] > 0
        and detail["storm"]["quota_shed"] > 0
        and detail["storm"]["shed_typed"]
        and detail["storm"]["paid_unaffected"]
        and detail["flap"]["victim_tripped"]
        and detail["flap"]["victim_rejoined"]
        and detail["hedge"]["hedge_wins"] >= 1
        and detail["spike"]["latency_visible"]
    )
    detail["mismatches"] = mismatches
    # Recovery counts the route as the hedge phase left it.
    return rig.report(matched, detail, _moved(route, (
        "failovers", "hedges", "hedge_wins", "breaker_opened",
        "breaker_closed", "breaker_skipped",
    )))


def run_net_scenario(
    seed: int,
    theta: float = 0.6,
    func: SimilarityFunction = SimilarityFunction.JACCARD,
    tracer: Optional[Tracer] = None,
) -> ScenarioReport:
    """Abuse the TCP front door with seeded socket faults; answers must
    stay exact and the server must keep serving.

    A real :class:`~repro.net.server.GatewayServer` listens on an
    ephemeral localhost port; a healthy pooled client runs a seeded
    probe plan against it while :meth:`FaultSchedule.net_fault` picks
    which request indices are subjected to which wire fault:

    * *torn-frame* — the search frame is written in three separate
      chunks: the server must reassemble it and answer bit-identically;
    * *stalled-connection* — a connection sends half a header and goes
      quiet: the server must drop it after ``frame_timeout`` (counted),
      while the same probe completes on the healthy connection;
    * *connection-kill* — a connection sends a full request and hangs up
      before reading the response: the server must absorb the dead peer
      and keep serving everyone else.

    The healthy client is the blocking
    :class:`~repro.net.client.GatewayClient`, each call handed to a
    worker thread while the server keeps the drill's event loop.

    A garbage header is also thrown at a fresh connection and must be
    rejected with a typed ``ProtocolError`` frame before the connection
    is dropped.  The drill ends with a client-triggered drain; every
    probe's answer is compared against the single-node index.  The
    report's results, counters and fault log are pure functions of the
    seed (timing-dependent byte/response counts are deliberately left
    out).
    """
    import asyncio

    from repro.gateway import GatewayConfig, SimilarityGateway
    from repro.net.client import GatewayClient
    from repro.net.protocol import (
        ERROR,
        FrameDecoder,
        encode_frame,
        hello_frame,
        hits_from_wire,
        search_frame,
    )
    from repro.net.server import GatewayServer, ServerConfig

    rig = _Rig("net", seed, theta, func, tracer,
               ChaosConfig(net_fault_rate=0.4))
    records, func = rig.records, rig.func
    injector, tracer = rig.injector, rig.tracer
    n_requests = 20
    stall_timeout = 0.2

    async def drill() -> Dict[str, Any]:
        router = build_cluster(rig.index, n_shards=2, replication=2,
                               tracer=tracer)
        gateway = SimilarityGateway(router, GatewayConfig(max_batch=8))
        server = GatewayServer(
            gateway,
            ServerConfig(frame_timeout=stall_timeout, drain_grace=0.5),
            tracer=tracer,
        )
        host, port = await server.start()

        async def read_frame(reader, decoder):
            """One response frame off a raw connection (None on EOF)."""
            while True:
                data = await asyncio.wait_for(reader.read(65536), 10.0)
                if not data:
                    return None
                frames = decoder.feed(data)
                if frames:
                    return frames[0]

        async def raw_conn():
            reader, writer = await asyncio.open_connection(host, port)
            decoder = FrameDecoder()
            writer.write(encode_frame(hello_frame(0, "chaos")))
            await writer.drain()
            await read_frame(reader, decoder)
            return reader, writer, decoder

        client = GatewayClient(host, port, tenant="chaos", pool_size=1)
        stalled_writers = []
        answered = 0
        mismatches = 0
        for i in range(n_requests):
            pick = stable_mod(seed + i, len(records))
            tokens = list(records[pick].tokens)
            frame = encode_frame(search_frame(1, tokens, theta, func.value))
            fault = rig.schedule.net_fault(i)
            if fault is not None:
                injector.record(fault, f"request-{i}", NET_FAULTS[fault])
                reader, writer, decoder = await raw_conn()
            if fault == "torn-frame":
                for chunk in (frame[:5], frame[5:13], frame[13:]):
                    writer.write(chunk)
                    await writer.drain()
                    await asyncio.sleep(0.01)
                response = await read_frame(reader, decoder)
                hits = hits_from_wire(response.payload["hits"])
                writer.close()
            else:
                if fault == "stalled-connection":
                    writer.write(frame[:5])
                    await writer.drain()
                    stalled_writers.append(writer)
                elif fault == "connection-kill":
                    writer.write(frame)
                    await writer.drain()
                    writer.close()
                # A faulted probe must still complete on the healthy pool.
                hits = await asyncio.to_thread(
                    client.search, tokens, theta, func=func
                )
            answered += 1
            if hits != rig.expect(tokens):
                mismatches += 1

        # Garbage header: typed rejection, then the connection drops.
        injector.record("garbage-header", "raw-connection",
                        "junk bytes instead of a frame header")
        reader, writer, decoder = await raw_conn()
        writer.write(b"XXjunk-not-a-frame")
        await writer.drain()
        response = await read_frame(reader, decoder)
        garbage_typed = (
            response is not None
            and response.kind == ERROR
            and response.payload.get("error") == "ProtocolError"
        )
        garbage_dropped = (await read_frame(reader, decoder)) is None
        writer.close()

        # The stalled peers must be timed out and dropped (real time:
        # the read timeout is a wall-clock one).
        n_stalls = sum(
            1 for event in injector.events
            if event.kind == "stalled-connection"
        )
        for _ in range(100):
            if server.metrics.get("net",
                                  "stalled_connections") >= n_stalls:
                break
            await asyncio.sleep(0.05)
        stalls_dropped = server.metrics.get("net", "stalled_connections")

        await asyncio.to_thread(client.drain)
        await server.wait_drained()
        client.close()
        for writer in stalled_writers:
            writer.close()
        return {
            "answered": answered,
            "mismatches": mismatches,
            "garbage_typed": garbage_typed,
            "garbage_dropped": garbage_dropped,
            "stalls_dropped": stalls_dropped,
            "stalls_injected": n_stalls,
            # Only seed-deterministic counters (no byte/response counts,
            # which depend on how TCP slices the stream).
            "counters": {
                "requests": server.metrics.get("net", "requests"),
                "connections": server.metrics.get("net", "connections"),
                "protocol_errors": server.metrics.get(
                    "net", "protocol_errors"
                ),
                "stalled_connections": stalls_dropped,
            },
        }

    detail = asyncio.run(drill())
    matched = (
        detail["mismatches"] == 0
        and detail["answered"] == n_requests
        and detail["garbage_typed"]
        and detail["garbage_dropped"]
        and detail["stalls_dropped"] == detail["stalls_injected"]
    )
    return rig.report(matched, detail)


def run_heal_scenario(
    seed: int,
    theta: float = 0.6,
    func: SimilarityFunction = SimilarityFunction.JACCARD,
    tracer: Optional[Tracer] = None,
) -> ScenarioReport:
    """Kill one replica and silently rot another mid-load; the control
    plane must heal both with zero wrong answers and no operator action.

    The cluster runs with *independent* replicas (each its own deep copy,
    so corruption is per-replica, as on real machines) and an attached
    :class:`~repro.cluster.health.ControlPlane`.  Traffic is a seeded
    Zipf-skewed replay: each of 12 waves draws 3 records with probability
    mass cubed toward the head.  Every wave, the plane ticks *before* the
    wave's probes (heartbeats beat traffic — the real-world analogue is a
    detector period shorter than the time between repeat queries).

    Timeline (all waves/targets from the seed):

    * wave 3 — replica 0 of the shard the head query routes to is
      hard-killed (:meth:`~repro.chaos.schedule.FaultInjector.kill_replica`);
      the detector must escalate suspect → dead and the repair path must
      rebuild it from its healthy peer, readmitting only after the
      bit-identical verification.
    * wave 6 — a replica of a *different* shard gets one fragment's
      postings silently wiped
      (:meth:`~repro.chaos.schedule.FaultInjector.corrupt_replica`); no
      probe can notice, only the scrubber's digest sweep can, and it must
      quarantine the replica before the wave's probes reach it.

    Every served answer (during failover, rebuild and after) is compared
    bit-for-bit against the single-node index.  The run matches iff there
    were zero mismatches, the cluster ends at full replication with the
    plane reporting all-healthy, at least two rebuilds happened (kill +
    rot), and at least one quarantine was issued.  The health event log
    and fault log ride in ``detail`` keyed by tick number, never wall
    time — two runs with one seed must produce identical logs
    (``tests/test_chaos.py`` diffs them).
    """
    from repro.cluster.health import ControlPlane, HealthConfig

    rig = _Rig("heal", seed, theta, func, tracer)
    records = rig.records
    injector, clock = rig.injector, rig.clock
    router = rig.cluster(n_shards=3, independent_replicas=True)
    plane = ControlPlane(
        router,
        HealthConfig(miss_budget=2, scrub_interval=1, verify_probes=3),
        tracer=rig.tracer,
    )

    # Zipf-skewed seeded replay: cube the unit draw so most probes hit
    # the head of the corpus (the hot keys a serving cluster really sees).
    def zipf_record(wave: int, slot: int):
        unit = rig.schedule._unit("zipf", wave, slot)
        return records[int(unit ** 3 * len(records)) % len(records)]

    # Fault targets: the kill victim is a shard the head query provably
    # routes to (so failover is actually exercised); the rot victim is a
    # replica of a *different* shard, so the two repairs don't mask each
    # other.
    kill_shard = rig.victim_shard(router, zipf_record(0, 0).tokens)
    rot_shard = (kill_shard + 1) % router.n_shards
    kill_wave, rot_wave = 3, 6

    mismatches = 0
    probes = 0
    for wave in range(12):
        if wave == kill_wave:
            injector.kill_replica(router.replica(kill_shard, 0))
        if wave == rot_wave:
            injector.corrupt_replica(router.replica(rot_shard, 1))
        plane.tick()
        clock.advance(0.25)
        for slot in range(3):
            record = zipf_record(wave, slot)
            probes += 1
            mismatches += rig.wrong(router, record.tokens)

    # Drain: keep ticking (time advancing) until the plane reports full
    # replication again — bounded, so a repair bug fails the scenario
    # instead of hanging it.
    extra_ticks = 0
    while not plane.all_healthy() and extra_ticks < 10:
        clock.advance(0.5)
        plane.tick()
        extra_ticks += 1

    counters = router.metrics.group("cluster.health")
    detail: Dict[str, Any] = {
        "kill_victim": f"shard{kill_shard}/r0",
        "rot_victim": f"shard{rot_shard}/r1",
        "probes": probes,
        "mismatches": mismatches,
        "ticks": plane.ticks,
        "extra_ticks": extra_ticks,
        "full_replication": plane.all_healthy(),
        "replica_states": plane.replica_states(),
        "rebuilds": counters.get("rebuilds", 0),
        "quarantines": counters.get("quarantines", 0),
        # The replay-diff payload: tick-keyed, wall-time-free logs.
        "health_events": [list(event) for event in plane.event_log()],
        "fault_log": [event.as_dict() for event in injector.events],
    }
    matched = (
        mismatches == 0
        and plane.all_healthy()
        and counters.get("rebuilds", 0) >= 2
        and counters.get("quarantines", 0) >= 1
    )
    return rig.report(matched, detail)


SCENARIOS = {
    "join": run_join_scenario,
    "cluster": run_cluster_scenario,
    "search": run_search_scenario,
    "ingest": run_ingest_scenario,
    "gateway": run_gateway_scenario,
    "net": run_net_scenario,
    "heal": run_heal_scenario,
}


def run_recovery_report(
    seed: int,
    scenario: str = "all",
    theta: float = 0.7,
    func: SimilarityFunction = SimilarityFunction.JACCARD,
    executor: str = "serial",
    tracer: Optional[Tracer] = None,
) -> RecoveryReport:
    """Run the selected scenario(s) for one seed and collect the report.

    ``executor`` is the backend the join scenario's MapReduce jobs run
    on; no other scenario runs one."""
    func = SimilarityFunction(func)
    names = list(SCENARIOS) if scenario == "all" else [scenario]
    for name in names:
        if name not in SCENARIOS:
            raise ConfigError(
                f"unknown chaos scenario {name!r} "
                f"(choose from: {', '.join(SCENARIOS)}, all)"
            )
    runs = dict(SCENARIOS,
                join=functools.partial(run_join_scenario, executor=executor))
    report = RecoveryReport(seed=seed)
    for name in names:
        report.scenarios.append(
            runs[name](seed, theta=theta, func=func, tracer=tracer)
        )
    return report


def stable_mod(seed: int, modulus: int) -> int:
    """A small seeded pick (shared by scenarios; never the global RNG)."""
    from repro.mapreduce.shuffle import stable_hash

    return stable_hash(("chaos-pick", seed)) % max(1, modulus)
