"""Scatter-gather routing, admission control, failover and rebalancing.

:class:`ClusterRouter` is the cluster's front door.  Every request —
``search``, ``search_partial``, ``search_rid``, ``search_batch`` — takes
one route, ``_serve`` → ``_batch_scatter`` → ``_probe_shard_batch`` →
:meth:`ShardNode.probe_batch <repro.cluster.node.ShardNode.probe_batch>`;
a single search is a batch of one.  One request is:

1. **Admission** — a bounded in-flight semaphore with a queue timeout;
   when the cluster is saturated the request is shed with a typed
   :class:`~repro.errors.ClusterOverloadError` instead of queueing
   unboundedly (fail fast, the caller can retry elsewhere).  A batch
   occupies one slot.
2. **Routing** — identical queries of a batch are computed once; each
   distinct probe prefix is split at the shared pivots and only
   shards owning at least one fragment the prefix touches are contacted
   (V-SMART-Join's scatter discipline: never fan out to nodes that cannot
   contribute a candidate).
3. **Scatter** — each target shard serves every query routed to it in
   one ``probe_batch`` call on one healthy replica
   (round-robin across replicas, gated by a per-replica
   :class:`~repro.cluster.failover.CircuitBreaker`).  A replica that
   fails mid-probe feeds its breaker and the next replica is tried; when
   a whole sweep fails the leg retries under the router's
   :class:`~repro.cluster.failover.RetryPolicy` (exponential backoff,
   deterministic jitter) before declaring the shard unavailable.
   Breakers replace the old permanent-death failover: a crashed replica
   is skipped without contact while its breaker is OPEN, but once the
   reset timeout elapses a single half-open trial probe decides whether
   it rejoins rotation — so flapping replicas come back on their own.
   With a :class:`~repro.cluster.failover.HedgeConfig`, a slow leg
   races a backup replica and the first answer wins.  An attached
   ingest tier is one more leg, also batched: one
   :meth:`IngestNode.probe_batch <repro.cluster.node.IngestNode>` call
   (one ``ingest-probe`` span) per request.
4. **Gather** — per-shard hit lists are concatenated and sorted.  No
   dedup pass is needed: the shard slices' claim rule (see
   :mod:`repro.cluster.node`) assigns every (query, candidate) pair to
   exactly one shard, the distributed form of the paper's Theorem 1, so
   the merge is exact by construction.  :meth:`ClusterRouter.search`
   demands every leg succeed; :meth:`ClusterRouter.search_partial` is
   the opt-in degraded mode that returns whatever the live shards
   produced, flagged ``complete=False`` with the missing shards and
   fragments named — never silently partial.

Requests may carry a **deadline** (seconds of budget); a request that
exceeds it fails with a typed
:class:`~repro.errors.DeadlineExceededError` instead of hanging on a
slow cluster.  Failover and recovery emit ``phase="recovery"`` spans
(``failover`` / ``breaker-close``) alongside the existing counters, so a
trace shows *how* a degraded request was answered.

The router also keeps per-fragment *heat* counters (how many probes
touched each fragment).  :meth:`rebalance` turns observed heat into
placement: while the hottest shard exceeds :data:`SKEW_THRESHOLD` times
the mean, its hottest fragment migrates to the lightest shard — its
postings ship peer-to-peer (:meth:`~repro.cluster.node.ShardSlice.
install_fragment`; every slice already shares the record table) — and the
plan is updated in place.  Search results are bit-identical before and after a
migration (McCauley & Silvestri's adaptive-load argument, realised on the
serving path).

Every hop emits ``phase="cluster"`` spans (``cluster-batch`` →
``route``/``shard-probe``/``merge``), with the slices' own
``phase="service"`` spans nested under each ``shard-probe``, so
``repro trace`` renders the full cross-shard request tree.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.loadbalance import LoadBalanceReport, summarize_loads
from repro.core.ordering import GlobalOrder
from repro.core.partitioning import VerticalPartitioner
from repro.errors import (
    ClusterError,
    ClusterOverloadError,
    ConfigError,
    DataError,
    DeadlineExceededError,
    ShardDownError,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.shuffle import stable_hash
from repro.observability.histogram import LatencyHistogram
from repro.observability.tracer import NOOP_TRACER, Tracer
from repro.service.index import (
    EncodedQuery,
    SearchHit,
    checked_probe_args,
    differing_fragments,
    merge_hits,
    view_hits,
)
from repro.service.vocab import TokenVocab
from repro.similarity.functions import SimilarityFunction
from repro.similarity.thresholds import prefix_length

from repro.cluster.failover import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    HedgeConfig,
    RetryPolicy,
)
from repro.cluster.node import IngestNode, ShardNode
from repro.cluster.plan import ShardPlan

ROUTE_GROUP = "cluster.route"
#: Requests a router admits at once.
MAX_IN_FLIGHT = 64
#: Seconds a request may wait for admission before it is shed.
QUEUE_TIMEOUT = 0.25
#: :meth:`ClusterRouter.rebalance` migrates while the hottest shard's
#: load is above this multiple of the mean ...
SKEW_THRESHOLD = 1.0
#: ... and makes at most this many migrations per call.
MAX_MOVES = 8

#: One distinct query's gathered answer:
#: ``(merged hits, missing shard ids, missing fragment ids)``.
_Answer = Tuple[List[SearchHit], Tuple[int, ...], Tuple[int, ...]]


@dataclass(frozen=True)
class PartialSearchResult:
    """What a degraded (:meth:`ClusterRouter.search_partial`) gather found.

    ``complete=True`` means every targeted shard answered and ``hits``
    equals what :meth:`ClusterRouter.search` would have returned.
    Otherwise ``hits`` covers only the shards that answered, and the
    missing coverage is named explicitly — a caller can re-probe just
    ``missing_fragments`` later, and can never mistake a partial answer
    for a full one.
    """

    hits: Tuple[SearchHit, ...]
    complete: bool
    missing_shards: Tuple[int, ...] = ()
    missing_fragments: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Migration:
    """One rebalance move: fragment ``fragment`` went ``src`` → ``dst``."""

    fragment: int
    src: int
    dst: int
    heat: int
    """Observed probe count that made the fragment migrate."""


class ClusterRouter:
    """Route exact similarity probes across a sharded, replicated cluster."""

    def __init__(
        self,
        order: GlobalOrder,
        partitioner: VerticalPartitioner,
        plan: ShardPlan,
        groups: Sequence[Sequence[ShardNode]],
        tracer: Optional[Tracer] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerConfig] = None,
        hedge: Optional[HedgeConfig] = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        """``groups[s]`` is shard ``s``'s replica list (all non-empty, same
        length = the replication factor).  :data:`MAX_IN_FLIGHT` bounds
        concurrently admitted requests; one that cannot be admitted within
        :data:`QUEUE_TIMEOUT` seconds is shed with
        :class:`ClusterOverloadError`.  ``retry`` is the per-leg retry
        budget, ``breaker`` shapes the per-replica circuit breakers;
        ``hedge`` (default off) enables deadline-aware hedged scatter — see
        :class:`~repro.cluster.failover.HedgeConfig`; ``clock``/``sleep``
        are injectable so breaker timeouts, deadlines and backoff waits
        are testable (and chaos-replayable) without real time passing.
        Latency histograms record on the same ``clock`` the deadlines
        use — one clock per router, so injected (chaos) latency shows up
        in the percentiles that deadline decisions are made against."""
        if len(groups) != plan.n_shards:
            raise ConfigError(
                f"plan expects {plan.n_shards} shards, got {len(groups)} groups"
            )
        if any(not group for group in groups):
            raise ConfigError("every shard needs at least one replica")
        self.order = order
        self.vocab = TokenVocab(order)
        self.partitioner = partitioner
        self.plan = plan
        #: Harness-pinned: benchmarks/perf/layers.py:266,280 pass
        #: ``router.filters`` into ``ShardNode.probe``'s fourth slot.
        self.filters = None
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.metrics = Counters()
        self.latency = LatencyHistogram()
        #: per-scatter-leg latencies (router clock) — the rolling p95 the
        #: hedging decision reads.
        self.leg_latency = LatencyHistogram()
        self._groups: List[List[ShardNode]] = [list(g) for g in groups]
        self.retry = retry if retry is not None else RetryPolicy()
        self.hedge = hedge
        self._hedge_pool: Optional[ThreadPoolExecutor] = None
        self._breaker_config = breaker if breaker is not None else BreakerConfig()
        self._clock = clock
        self._sleep = sleep
        self._breakers: List[List[CircuitBreaker]] = [
            [self._breaker_config.build(clock) for _ in group]
            for group in self._groups
        ]
        self._admission = threading.BoundedSemaphore(MAX_IN_FLIGHT)
        self._lock = threading.Lock()
        #: fragment id → probes that touched it (the rebalancer's heat map).
        self._heat: Dict[int, int] = {}
        #: per-shard round-robin cursors for replica selection.
        self._cursor = [0] * plan.n_shards
        #: optional streaming write tier (see :meth:`attach_ingest`).
        self._ingest: Optional[IngestNode] = None
        self._base_rids: frozenset = frozenset()
        #: local component of :attr:`index_epoch` (bumped per write batch).
        self._epoch = 0
        #: the self-healing control plane, once one attaches (see
        #: :class:`repro.cluster.health.ControlPlane`); ``None`` means the
        #: cluster is fail-over-only, exactly as before.
        self.control = None

    # -- introspection -------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    @property
    def replication(self) -> int:
        return len(self._groups[0])

    def replica(self, shard: int, replica: int) -> ShardNode:
        """Direct handle on one replica (failure injection, inspection)."""
        return self._groups[shard][replica]

    def health_check(self) -> List[List[bool]]:
        """Ping every replica; ``result[shard][replica]`` is liveness."""
        return [[node.ping() for node in group] for group in self._groups]

    def breaker(self, shard: int, replica: int) -> CircuitBreaker:
        """Direct handle on one replica's circuit breaker."""
        return self._breakers[shard][replica]

    def breaker_states(self) -> List[List[str]]:
        """``result[shard][replica]`` is the breaker state (string form)."""
        return [
            [breaker.state.value for breaker in group]
            for group in self._breakers
        ]

    # -- verified readmission -------------------------------------------
    def _healthy_peer(self, shard: int, exclude_replica: int
                      ) -> Optional[ShardNode]:
        """A serving replica of ``shard`` other than ``exclude_replica``."""
        for rep, node in enumerate(self._groups[shard]):
            if rep != exclude_replica and node.ping():
                return node
        return None

    def verify_replica(self, shard: int, replica: int,
                       probes: int = 4) -> Dict[str, object]:
        """Compare a replica's content against a healthy peer, bit for bit.

        Two checks, both exact: (1) per-fragment content digests (skipped
        when the replicas share one slice object — nothing to diverge);
        (2) ``probes`` seeded probe queries per theta in (0.5, 0.8) under
        jaccard, answered by both slices and compared as full hit lists.
        Returns ``{"ok": bool, "detail": str}``; with no healthy peer the
        check degrades to a self-probe smoke test and says so in the
        detail — a replication=1 cluster can still restore manually.
        """
        node = self._groups[shard][replica]
        peer = self._healthy_peer(shard, replica)
        if peer is None:
            try:
                rids = sorted(node.slice.rids())
                if rids:
                    rid = rids[stable_hash(("verify", shard, replica))
                               % len(rids)]
                    query = EncodedQuery(tuple(node.slice._ranks[rid]), 0)
                    node.slice.probe_batch(
                        [query], 0.5, SimilarityFunction.JACCARD
                    )
            except Exception as exc:  # pragma: no cover - defensive
                return {"ok": False, "detail": f"self-check failed: {exc}"}
            return {"ok": True, "detail": "no healthy peer; self-check only"}
        if peer.slice is not node.slice:
            bad = differing_fragments(
                node.slice.content_digests(), peer.slice.content_digests()
            )
            if bad:
                return {
                    "ok": False,
                    "detail": f"fragment digests diverge: {bad}",
                }
        rids = sorted(peer.slice.rids())
        for i in range(probes):
            if not rids:
                break
            rid = rids[stable_hash(("verify", shard, replica, i)) % len(rids)]
            query = EncodedQuery(tuple(peer.slice._ranks[rid]), 0)
            for theta in (0.5, 0.8):
                (expected,) = peer.slice.probe_batch(
                    [query], theta, SimilarityFunction.JACCARD
                )
                (got,) = node.slice.probe_batch(
                    [query], theta, SimilarityFunction.JACCARD
                )
                if got != expected:
                    return {
                        "ok": False,
                        "detail": (
                            f"probe rid={rid} theta={theta} diverges "
                            f"({len(got)} vs {len(expected)} hits)"
                        ),
                    }
        return {"ok": True, "detail": f"digests + {probes} probes match"}

    def readmit_replica(self, shard: int, replica: int,
                        probes: int = 4) -> Dict[str, object]:
        """Unfence a replica iff verification passes; close its breaker.

        The only door back into rotation: on a verification failure the
        replica is re-fenced and a :class:`ClusterError` raised, so a
        divergent rebuild can never serve.  On success the breaker is
        force-closed (the verification *is* the trial probe) and a
        ``phase="recovery"`` span (``action="readmit"``) is emitted.
        """
        node = self._groups[shard][replica]
        was_fenced = node.fenced
        node.unfence()
        verdict = self.verify_replica(shard, replica, probes=probes)
        if not verdict["ok"]:
            node.fence()
            raise ClusterError(
                f"readmission refused for {node.name}: {verdict['detail']}"
            )
        self._breakers[shard][replica].reset()
        self.metrics.increment(ROUTE_GROUP, "readmissions")
        self.tracer.add(
            f"readmit:{node.name}", "recovery",
            start=time.perf_counter(), duration=0.0,
            action="readmit", shard=shard, replica=replica,
            was_fenced=was_fenced, detail=str(verdict["detail"]),
        )
        return verdict

    def health_summary(self) -> Dict[str, object]:
        """Per-replica health/breaker/fencing plus control-plane state.

        JSON-safe; the ``replicas`` matrix rows are shards, and each cell
        reports what the router *and* (when one is attached) the control
        plane believe about that replica.
        """
        plane = self.control
        states = plane.replica_states() if plane is not None else None
        replicas: List[List[Dict[str, object]]] = []
        for shard, group in enumerate(self._groups):
            row = []
            for rep, node in enumerate(group):
                cell: Dict[str, object] = {
                    "alive": node.alive,
                    "fenced": node.fenced,
                    "serving": node.ping(),
                    "breaker": self._breakers[shard][rep].state.value,
                }
                if states is not None:
                    cell["state"] = states[shard][rep]
                row.append(cell)
            replicas.append(row)
        summary: Dict[str, object] = {"replicas": replicas}
        if self._ingest is not None:
            summary["ingest"] = {
                "alive": self._ingest.alive,
                "fenced": self._ingest.fenced,
                "serving": self._ingest.ping(),
            }
            if plane is not None:
                summary["ingest"]["state"] = plane.ingest_state()
        if plane is not None:
            summary.update(plane.summary())
        return summary

    def fragment_heat(self) -> Dict[int, int]:
        """Observed per-fragment probe counts since start."""
        with self._lock:
            return dict(self._heat)

    def shard_heat(self) -> List[int]:
        """Observed per-shard probe load under the current assignment."""
        heat = self.fragment_heat()
        totals = [0] * self.n_shards
        for fragment, count in heat.items():
            totals[self.plan.shard_of(fragment)] += count
        return totals

    def heat_report(self) -> LoadBalanceReport:
        """Skew summary of observed shard load (CV, max-over-mean)."""
        return summarize_loads(self.shard_heat())

    def storage_stats(self) -> Dict[str, int]:
        """The columnar storage the cluster holds, in actual array-buffer
        bytes (:meth:`~repro.service.index.SegmentIndex.posting_stats`):
        every distinct slice's posting columns, and each distinct record id
        column once — slices carved from one index share them, so only
        ``independent_replicas`` clones add copies."""
        slices = [s for group in self._groups for s in _distinct_slices(group)]
        stats = [slice_.posting_stats() for slice_ in slices]
        columns = {id(c): c for slice_ in slices for c in slice_._ranks.values()}
        return {
            "postings": sum(s["postings"] for s in stats),
            "posting_bytes": sum(s["posting_bytes"] for s in stats),
            "record_bytes": sum(
                c.buffer_info()[1] * c.itemsize for c in columns.values()
            ),
        }

    # -- the streaming write tier ---------------------------------------
    @property
    def ingest(self) -> Optional[IngestNode]:
        return self._ingest

    def attach_ingest(self, streaming) -> IngestNode:
        """Grow a write tier: a :class:`IngestNode` over ``streaming``.

        The streaming index must share this router's order and partitioner
        (build it with :meth:`repro.ingest.streaming.StreamingIndex.attach`)
        so queries encode identically everywhere.  From here on
        :meth:`apply_batch` routes writes into it and every search gains
        one extra scatter leg over the freshly ingested records — results
        stay exact because ingested rids are disjoint from the shards'.
        """
        if self._ingest is not None:
            raise ClusterError("an ingest tier is already attached")
        if streaming.order is not self.order:
            raise ClusterError(
                "the ingest tier must share the router's global order "
                "(use StreamingIndex.attach)"
            )
        self._base_rids = frozenset(self.rids())
        self._ingest = IngestNode(streaming)
        return self._ingest

    def apply_batch(self, new_records) -> int:
        """Route a write batch into the attached streaming tier.

        Rids already served by the base shards are rejected with
        :class:`DataError` before anything is logged — the disjointness
        the dedup-free gather depends on.
        """
        if self._ingest is None:
            raise ClusterError(
                "no ingest tier attached; call attach_ingest first"
            )
        batch = list(new_records)
        for record in batch:
            if record.rid in self._base_rids:
                raise DataError(
                    f"record id {record.rid} already indexed by the cluster"
                )
        added = self._ingest.streaming.apply_batch(batch)
        self._epoch += 1
        self.metrics.increment(ROUTE_GROUP, "ingested_records", added)
        return added

    @property
    def index_epoch(self) -> int:
        """A counter that changes whenever served content may have:
        bumped per :meth:`apply_batch` and per ingest generation swap
        (flush/compaction manifest commits, which can also happen
        out-of-band through the streaming index).  Result caches above
        the router — the gateway's coalescing LRU — tag entries with
        this epoch so a post-ingest probe never serves a stale result.
        """
        epoch = self._epoch
        if self._ingest is not None:
            epoch += self._ingest.streaming.manifest_version
        return epoch

    def status(self) -> Dict:
        """One JSON-safe snapshot: plan, health, heat, balance, storage."""
        report = self.heat_report()
        return {
            "shards": self.n_shards,
            "replication": self.replication,
            "fragments": self.plan.n_fragments,
            "assignment": {str(f): s for f, s in
                           sorted(self.plan.assignment.items())},
            "planned_loads": self.plan.shard_loads(),
            "observed_heat": self.shard_heat(),
            "heat_cv": round(report.cv, 4),
            "heat_max_over_mean": round(report.max_over_mean, 4),
            "health": self.health_check(),
            "breakers": self.breaker_states(),
            "self_heal": self.health_summary(),
            "route": self.metrics.group(ROUTE_GROUP),
            "storage": self.storage_stats(),
            "ingest": (
                None if self._ingest is None
                else {"alive": self._ingest.ping(),
                      **self._ingest.streaming.status()}
            ),
        }

    # -- query planning ------------------------------------------------
    def encode_query(self, tokens: Iterable[str]) -> EncodedQuery:
        """Canonicalize probe tokens exactly like the single-node index.

        Both delegate to the shared :class:`TokenVocab` over the same
        :class:`GlobalOrder`, so router and slices agree on the interning
        by construction.
        """
        ids, unknown = self.vocab.encode_known(tokens)
        return EncodedQuery(tuple(ids), unknown)

    def target_fragments(
        self, query: EncodedQuery, theta: float, func: SimilarityFunction
    ) -> Tuple[int, ...]:
        """Fragments the probe prefix touches — the scatter set's support.

        Only these fragments can produce a prefix collision, so shards
        owning none of them are provably unable to contribute a candidate
        and are never contacted.
        """
        if not query.ranks:
            return ()
        limit = min(prefix_length(func, theta, query.size), len(query.ranks))
        prefix = query.ranks[:limit]
        return tuple(
            v for v, _start, _end in self.partitioner.split_bounds(prefix)
        )

    def _target_shards(
        self, fragments: Sequence[int]
    ) -> Dict[int, List[int]]:
        """Group target fragments by owning shard (ascending shard id)."""
        targets: Dict[int, List[int]] = {}
        for fragment in fragments:
            targets.setdefault(self.plan.shard_of(fragment), []).append(fragment)
        return dict(sorted(targets.items()))

    # -- serving -------------------------------------------------------
    def search(
        self,
        tokens: Iterable[str],
        theta: float,
        k: Optional[int] = None,
        func: SimilarityFunction = SimilarityFunction.JACCARD,
        exclude: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> List[SearchHit]:
        """Exact cluster-wide search: every indexed record with
        ``sim(query, record) ≥ θ``, best first, bit-identical to
        :meth:`SegmentIndex.probe` over the unsharded index.  ``k``
        truncates the list; ``exclude`` drops one record id.

        ``deadline`` (seconds of budget for the whole request, measured on
        the router's clock) turns a slow request into a typed
        :class:`DeadlineExceededError` instead of an unbounded wait.  Any
        unreachable shard fails the request (:class:`ClusterError`) — use
        :meth:`search_partial` to accept degraded answers instead."""
        result = self._search(
            tokens, theta, k, func, exclude, deadline, allow_partial=False
        )
        return list(result.hits)

    def search_partial(
        self,
        tokens: Iterable[str],
        theta: float,
        k: Optional[int] = None,
        func: SimilarityFunction = SimilarityFunction.JACCARD,
        exclude: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> PartialSearchResult:
        """Degraded-mode search: answer with whatever shards are live.

        A shard whose every replica is down (after breakers and the retry
        budget) does not fail the request; its absence is reported on the
        returned :class:`PartialSearchResult` (``complete=False`` plus the
        missing shard and fragment ids).  Admission shedding and deadline
        overruns still raise — degraded means *partial coverage*, never
        silent failure."""
        return self._search(
            tokens, theta, k, func, exclude, deadline, allow_partial=True
        )

    def _search(
        self,
        tokens: Iterable[str],
        theta: float,
        k: Optional[int],
        func: SimilarityFunction,
        exclude: Optional[int],
        deadline: Optional[float],
        allow_partial: bool,
    ) -> PartialSearchResult:
        """A search is a batch of one through :meth:`_serve`."""
        answers, _slots = self._serve(
            [tokens], theta, func, k, deadline, allow_partial=allow_partial,
        )
        hits, missing_shards, missing_fragments = answers[0]
        if missing_shards:
            self.metrics.increment(ROUTE_GROUP, "partial_results")
        return PartialSearchResult(
            hits=tuple(view_hits(hits, k, exclude)),
            complete=not missing_shards,
            missing_shards=missing_shards,
            missing_fragments=missing_fragments,
        )

    def _serve(
        self,
        queries: Sequence[Iterable[str]],
        theta: float,
        func: SimilarityFunction,
        k: Optional[int],
        deadline: Optional[float],
        allow_partial: bool = False,
    ) -> Tuple[List[_Answer], List[int]]:
        """Admit once, scatter, enforce the deadline — every entry point's
        one way into the cluster.  Returns :meth:`_batch_scatter`'s
        per-distinct-query answers and input → answer slots.  θ/func/k are
        checked here: a batch that routes to no shard must not skip it."""
        func = checked_probe_args(theta, func, k)
        # One clock for everything: deadlines, breakers and the latency
        # histogram all read ``self._clock``, so injected (chaos) latency
        # is visible in ``latency`` — and shed or deadline-exceeded
        # requests are recorded too, not just successes.
        started = self._clock()
        deadline_at = None if deadline is None else started + deadline
        try:
            if not self._admission.acquire(timeout=QUEUE_TIMEOUT):
                self.metrics.increment(ROUTE_GROUP, "shed")
                raise ClusterOverloadError(
                    f"cluster at max in-flight capacity; request shed after "
                    f"{QUEUE_TIMEOUT:.3f}s in queue"
                )
            try:
                self._check_deadline(deadline_at)
                served = self._batch_scatter(
                    queries, theta, func, deadline_at, allow_partial,
                )
            finally:
                self._admission.release()
        finally:
            self.latency.record(self._clock() - started)
        self._check_deadline(deadline_at)
        return served

    def _ingest_leg(
        self,
        queries: Sequence[EncodedQuery],
        theta: float,
        func: SimilarityFunction,
        allow_partial: bool,
    ) -> Optional[List[List[SearchHit]]]:
        """The write tier's scatter leg for one batch (shard id ``-1``).

        A down ingest node behaves like a down shard: fail the request,
        or — in partial mode — return ``None`` so the caller marks shard
        ``-1`` missing for every query.
        """
        node = self._ingest
        with self.tracer.span(
            "ingest-probe", phase="cluster",
            records=len(node.streaming), queries=len(queries),
        ) as span:
            try:
                hits = node.probe_batch(queries, theta, func, self.tracer)
            except ShardDownError as exc:
                span.attrs["status"] = "unavailable"
                self.metrics.increment(ROUTE_GROUP, "ingest_unavailable")
                if not allow_partial:
                    raise ClusterError(f"ingest tier down: {exc}") from exc
                return None
            span.attrs["hits"] = sum(len(h) for h in hits)
        return hits

    def _check_deadline(self, deadline_at: Optional[float]) -> None:
        if deadline_at is not None and self._clock() >= deadline_at:
            self.metrics.increment(ROUTE_GROUP, "deadline_exceeded")
            raise DeadlineExceededError(
                "request deadline exceeded before the cluster could answer"
            )

    def search_rid(
        self,
        rid: int,
        theta: float,
        k: Optional[int] = None,
        func: SimilarityFunction = SimilarityFunction.JACCARD,
    ) -> List[SearchHit]:
        """Partners of an indexed record (itself excluded): ``repro search
        --rid`` and ``repro cluster search --rid``."""
        return self.search(self.tokens_of(rid), theta, k=k, func=func,
                           exclude=rid)

    def search_batch(
        self,
        queries: Sequence[Iterable[str]],
        theta: float,
        k: Optional[int] = None,
        func: SimilarityFunction = SimilarityFunction.JACCARD,
        deadline: Optional[float] = None,
    ) -> List[List[SearchHit]]:
        """Batched exact search: dedupe, admit once, scatter per shard.

        The whole batch occupies one admission slot (a saturated cluster
        sheds it with a single typed :class:`ClusterOverloadError` instead
        of paying the queue timeout query by query), duplicate queries are
        computed once, and each target shard serves every query routed to
        it in one :meth:`~repro.cluster.node.ShardNode.probe_batch` call —
        fragment-grouped posting scans, claim rule preserved.
        Results align with ``queries`` and are bit-identical to per-query
        :meth:`search` calls.

        ``deadline`` bounds the whole batch in seconds on the router
        clock.  With a :class:`~repro.cluster.failover.HedgeConfig`
        configured, slow shard legs are hedged onto a backup replica (the
        first answer wins; replicas serve the same slice, so the result
        is bit-identical either way).
        """
        answers, slots = self._serve(queries, theta, func, k, deadline)
        self.metrics.increment(ROUTE_GROUP, "batches")
        self.metrics.increment(ROUTE_GROUP, "batch_deduped",
                               len(queries) - len(answers))
        return [view_hits(answers[di][0], k, None) for di in slots]

    def _batch_scatter(
        self,
        queries: Sequence[Iterable[str]],
        theta: float,
        func: SimilarityFunction,
        deadline_at: Optional[float],
        allow_partial: bool,
    ) -> Tuple[List[_Answer], List[int]]:
        """Dedupe, route, scatter shard-batched, gather.

        Returns one ``(hits, missing_shards, missing_fragments)`` answer
        per *distinct* query (excludes/k not yet applied) plus, per input
        query, the slot of its answer.  An unavailable shard fails the
        request unless ``allow_partial``, where it is named in the
        answers of the queries routed to it instead."""
        encoded = [self.encode_query(tokens) for tokens in queries]
        # Dedup key must include n_unknown: unknown tokens change |q| and
        # with it prefix lengths and similarity denominators.
        distinct: Dict[Tuple[Tuple[int, ...], int], int] = {}
        slots: List[int] = []
        uniques: List[EncodedQuery] = []
        for query in encoded:
            key = (query.ranks, query.n_unknown)
            di = distinct.get(key)
            if di is None:
                di = distinct[key] = len(uniques)
                uniques.append(query)
            slots.append(di)
        self.metrics.increment(ROUTE_GROUP, "searches", len(queries))
        with self.tracer.span(
            "cluster-batch", phase="cluster", theta=theta, func=func.value,
            queries=len(queries), distinct=len(uniques),
        ) as span:
            with self.tracer.span("route", phase="cluster") as route_span:
                per_query_targets = [
                    self._target_shards(
                        self.target_fragments(query, theta, func)
                    )
                    for query in uniques
                ]
                shard_queries: Dict[int, List[int]] = {}
                for di, targets in enumerate(per_query_targets):
                    for shard in targets:
                        shard_queries.setdefault(shard, []).append(di)
                route_span.attrs["shards"] = sorted(shard_queries)
            self.metrics.increment(
                ROUTE_GROUP, "shards_probed",
                sum(len(t) for t in per_query_targets),
            )
            legs_by_query: List[List[List[SearchHit]]] = [
                [] for _ in uniques
            ]
            missing: List[List[int]] = [[] for _ in uniques]
            for shard in sorted(shard_queries):
                dis = shard_queries[shard]
                try:
                    shard_hits = self._probe_shard_batch(
                        shard, [uniques[di] for di in dis], theta, func,
                        self.tracer, deadline_at,
                    )
                except ClusterError:
                    # Deadline overruns are not ClusterErrors and always
                    # propagate: a partial answer must still be timely.
                    if not allow_partial:
                        raise
                    for di in dis:
                        missing[di].append(shard)
                    continue
                for di, hits in zip(dis, shard_hits):
                    legs_by_query[di].append(hits)
            if self._ingest is not None and len(self._ingest.streaming):
                ingest_hits = self._ingest_leg(uniques, theta, func,
                                               allow_partial)
                for di, legs in enumerate(legs_by_query):
                    if ingest_hits is None:
                        missing[di].append(IngestNode.shard_id)
                    else:
                        legs.append(ingest_hits[di])
            # Heat is charged only now — after the scatter came back — and
            # only for shards that answered, once per distinct query, so
            # shed, deadline-exceeded and all-replicas-down requests never
            # skew the rebalancer toward fragments that served nothing.
            with self._lock:
                for targets, lost in zip(per_query_targets, missing):
                    for shard, shard_fragments in targets.items():
                        if shard in lost:
                            continue
                        for fragment in shard_fragments:
                            self._heat[fragment] = (
                                self._heat.get(fragment, 0) + 1
                            )
            with self.tracer.span("merge", phase="cluster") as merge_span:
                merged = [merge_hits(legs) for legs in legs_by_query]
                merge_span.attrs["hits"] = sum(len(m) for m in merged)
            span.attrs["hits"] = sum(len(m) for m in merged)
            if any(missing):
                span.attrs["missing_shards"] = sorted(
                    {shard for lost in missing for shard in lost}
                )
        answers = [
            (hits, tuple(lost), tuple(sorted(
                fragment for shard in lost
                for fragment in targets.get(shard, ())
            )))
            for hits, lost, targets in zip(merged, missing,
                                           per_query_targets)
        ]
        return answers, slots

    def rids(self) -> List[int]:
        """All record ids indexed anywhere in the cluster, ascending."""
        seen: set = set()
        for group in self._groups:
            for node in group:
                seen.update(node.slice.rids())
                break  # replicas of one shard hold the same records
        if self._ingest is not None:
            seen.update(self._ingest.streaming.rids())
        return sorted(seen)

    def tokens_of(self, rid: int) -> Tuple[str, ...]:
        """Decode an indexed record's tokens from whichever shard holds it
        (the probe of :meth:`search_rid`, and the ``query`` the ``--rid``
        verbs print)."""
        for group in self._groups:
            for node in group:
                if node.ping() and rid in node:
                    return node.tokens_of(rid)
        if (self._ingest is not None and self._ingest.ping()
                and rid in self._ingest):
            return self._ingest.tokens_of(rid)
        raise DataError(f"no record with id {rid} in the cluster")

    # -- scatter internals ---------------------------------------------
    def _probe_shard_batch(
        self,
        shard: int,
        queries: Sequence[EncodedQuery],
        theta: float,
        func: SimilarityFunction,
        tracer: Tracer,
        deadline_at: Optional[float] = None,
    ) -> List[List[SearchHit]]:
        """Serve all of ``queries`` on one available replica of ``shard``.

        Replica order is round-robin from a per-shard cursor; a replica
        whose breaker is OPEN is skipped without contact.  A failed ping or
        mid-probe :class:`ShardDownError` feeds the replica's breaker and
        moves on to the next replica.  When one full sweep finds no
        answer, the sweep retries under :attr:`retry` (deterministic
        backoff) before the shard is declared unavailable — one
        ``unavailable`` count and one :class:`ClusterError` per request,
        however many attempts were burned.  The whole query group rides
        one :meth:`~repro.cluster.node.ShardNode.probe_batch` call.  With
        :attr:`hedge` configured and a second healthy replica available,
        a leg still unanswered after the rolling leg-latency p95 races a
        backup probe on that replica and the first answer wins; replicas
        serve the same slice, so the winner's answer is bit-identical
        either way and the claim rule keeps the gather dedup-free.
        """
        group = self._groups[shard]
        breakers = self._breakers[shard]
        with self._lock:
            start = self._cursor[shard] % len(group)
            self._cursor[shard] += 1
        traced = tracer.enabled

        def attempt(node: ShardNode):
            """One leg: probe ``node``, tracing into a leg-local tracer
            (attempts may race on threads) and feeding the leg histogram."""
            leg_tracer = Tracer() if traced else NOOP_TRACER
            leg_started = self._clock()
            try:
                with leg_tracer.span(
                    "shard-probe", phase="cluster", shard=shard,
                    replica=node.replica_id, queries=len(queries),
                ) as span:
                    try:
                        hits = node.probe_batch(queries, theta, func,
                                                leg_tracer)
                    except ShardDownError as exc:
                        span.attrs["status"] = "failed-over"
                        return None, leg_tracer.spans(), exc
                    span.attrs["hits"] = sum(len(h) for h in hits)
                return hits, leg_tracer.spans(), None
            finally:
                self.leg_latency.record(self._clock() - leg_started)

        last_error: Optional[ShardDownError] = None
        for sweep in range(self.retry.max_retries + 1):
            if sweep:
                self._check_deadline(deadline_at)
                self.metrics.increment(ROUTE_GROUP, "retries")
                self._sleep(self.retry.backoff((shard, len(queries)),
                                               sweep - 1))
            for offset in range(len(group)):
                index = (start + offset) % len(group)
                node = group[index]
                breaker = breakers[index]
                self._check_deadline(deadline_at)
                if not breaker.allow():
                    self.metrics.increment(ROUTE_GROUP, "breaker_skipped")
                    continue
                if not node.ping():
                    self._note_failure(breaker, shard, node, tracer)
                    continue
                backup = self._hedge_backup(shard, index)
                if backup is not None:
                    outcomes = self._race_legs(attempt, node, backup)
                else:
                    outcomes = [(node, *attempt(node))]
                result: Optional[List[List[SearchHit]]] = None
                for attempted, hits, spans, exc in outcomes:
                    tracer.adopt(spans)
                    attempted_breaker = breakers[group.index(attempted)]
                    if hits is None:
                        self.metrics.increment(ROUTE_GROUP, "failovers")
                        if traced:
                            tracer.add(
                                f"failover:{attempted.name}", "recovery",
                                start=time.perf_counter(), duration=0.0,
                                action="failover", shard=shard,
                                replica=attempted.replica_id,
                            )
                        self._note_failure(attempted_breaker, shard,
                                           attempted, tracer)
                        last_error = exc
                        continue
                    if attempted is not node:
                        self.metrics.increment(ROUTE_GROUP, "hedge_wins")
                        if traced:
                            tracer.add(
                                f"hedge-win:{attempted.name}", "recovery",
                                start=time.perf_counter(), duration=0.0,
                                action="hedge-win", shard=shard,
                                replica=attempted.replica_id,
                            )
                    if attempted_breaker.record_success():
                        self.metrics.increment(ROUTE_GROUP, "breaker_closed")
                        if traced:
                            tracer.add(
                                f"breaker-close:{attempted.name}", "recovery",
                                start=time.perf_counter(), duration=0.0,
                                action="breaker-close", shard=shard,
                                replica=attempted.replica_id,
                            )
                    result = hits
                if result is not None:
                    return result
        self.metrics.increment(ROUTE_GROUP, "unavailable")
        raise ClusterError(
            f"shard {shard}: all {len(group)} replicas down"
            + (f" ({last_error})" if last_error else "")
        )

    def _hedge_backup(self, shard: int, primary_index: int
                      ) -> Optional[ShardNode]:
        """The replica a hedged leg would race, or ``None`` (hedging off,
        no second replica, or none healthy).  Only CLOSED-breaker replicas
        qualify — a half-open trial slot must not be burned on a hedge."""
        if self.hedge is None:
            return None
        group = self._groups[shard]
        breakers = self._breakers[shard]
        for offset in range(1, len(group)):
            index = (primary_index + offset) % len(group)
            if (breakers[index].state is BreakerState.CLOSED
                    and group[index].ping()):
                return group[index]
        return None

    def _hedge_delay(self) -> float:
        """Seconds to wait on the primary leg before firing the backup:
        the rolling leg p95 clamped to the config's bounds (min_delay
        until enough legs are on record)."""
        hedge = self.hedge
        if len(self.leg_latency) < hedge.min_observations:
            return hedge.min_delay
        return min(hedge.max_delay,
                   max(hedge.min_delay, self.leg_latency.percentile(0.95)))

    def _race_legs(self, attempt, primary: ShardNode, backup: ShardNode):
        """Run ``attempt(primary)``; if it is still unanswered after the
        hedge delay, race
        ``attempt(backup)`` and take the first success.

        Returns ``(node, hits, spans, error)`` outcomes in arrival order,
        stopping at the first success — a still-running loser is
        abandoned (its result is discarded; both replicas would have
        produced identical hits).  Failed outcomes are all reported so
        the caller can feed every failure to its breaker.
        """
        pool = self._hedge_pool
        if pool is None:
            pool = self._hedge_pool = ThreadPoolExecutor(max_workers=4)
        f1 = pool.submit(attempt, primary)
        done, _pending = wait([f1], timeout=self._hedge_delay())
        if f1 in done:
            return [(primary, *f1.result())]
        self.metrics.increment(ROUTE_GROUP, "hedges")
        f2 = pool.submit(attempt, backup)
        owner = {f1: primary, f2: backup}
        pending = {f1, f2}
        outcomes = []
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            # When both land in one wake-up, prefer the primary — keeps
            # the common case (primary merely slow, not dead) stable.
            for future in sorted(done, key=lambda f: f is not f1):
                outcome = (owner[future], *future.result())
                outcomes.append(outcome)
                if outcome[1] is not None:
                    return outcomes
        return outcomes

    def _note_failure(
        self, breaker: CircuitBreaker, shard: int, node: ShardNode,
        tracer: Tracer,
    ) -> None:
        """Feed one replica failure to its breaker; count/trace a trip."""
        if breaker.record_failure():
            self.metrics.increment(ROUTE_GROUP, "breaker_opened")
            if tracer.enabled:
                tracer.add(
                    f"breaker-open:{node.name}", "fault",
                    start=time.perf_counter(), duration=0.0,
                    kind="breaker-open", shard=shard,
                    replica=node.replica_id,
                )

    # -- skew-aware rebalancing ----------------------------------------
    def rebalance(self) -> List[Migration]:
        """Migrate hot fragments until observed shard load is balanced.

        While the hottest shard's observed probe load exceeds
        :data:`SKEW_THRESHOLD` × the mean, its hottest fragment moves to
        the currently coldest shard — but only when the move strictly
        lowers the maximum (otherwise greedy migration would oscillate),
        and at most :data:`MAX_MOVES` times.  Returns the migrations
        performed; search results are identical before and after (the
        claim rule only depends on *which* shard owns a fragment, not on
        history).
        """
        moves: List[Migration] = []
        for _ in range(MAX_MOVES):
            heat = self.fragment_heat()
            loads = [0] * self.n_shards
            for fragment, count in heat.items():
                loads[self.plan.shard_of(fragment)] += count
            report = summarize_loads(loads)
            if report.mean_bytes == 0 or report.max_over_mean <= SKEW_THRESHOLD:
                break
            src = max(range(self.n_shards), key=lambda s: (loads[s], -s))
            dst = min(range(self.n_shards), key=lambda s: (loads[s], s))
            candidates = [
                (heat.get(f, 0), -f, f)
                for f in self.plan.fragments_of(src)
            ]
            move = None
            for fragment_heat, _neg, fragment in sorted(candidates,
                                                        reverse=True):
                # The move must strictly improve the makespan: the donor
                # sheds real load and the receiver stays below the old max.
                if (fragment_heat > 0
                        and loads[dst] + fragment_heat < loads[src]):
                    move = (fragment, fragment_heat)
                    break
            if move is None:
                break
            fragment, fragment_heat = move
            self._migrate(fragment, src, dst)
            moves.append(Migration(fragment, src, dst, fragment_heat))
            self.metrics.increment(ROUTE_GROUP, "migrations")
        return moves

    def _migrate(self, fragment: int, src: int, dst: int) -> None:
        """Ship one fragment's postings between shards.

        Replicas of a shard share one slice object unless the cluster was
        assembled with ``independent_replicas``; migration therefore
        applies to each *distinct* slice exactly once, each target taking
        its own copy of the donor's sealed postings.
        """
        donor_slices = _distinct_slices(self._groups[src])
        postings = donor_slices[0]._postings[fragment]
        for slice_ in _distinct_slices(self._groups[dst]):
            slice_.install_fragment(fragment, postings)
        for slice_ in donor_slices:
            slice_.drop_fragment(fragment)
        self.plan.move(fragment, dst)


def _distinct_slices(group: Sequence[ShardNode]):
    """A shard group's unique slice objects (replicas may share one)."""
    seen: Dict[int, object] = {}
    for node in group:
        seen.setdefault(id(node.slice), node.slice)
    return list(seen.values())
