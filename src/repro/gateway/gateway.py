"""The async multi-tenant gateway in front of the cluster router.

:class:`SimilarityGateway` is the front door the ROADMAP's
"millions of users" serving story needs: instead of paying one admission
slot, one scatter and one merge per probe, concurrent requests are pooled
in an asyncio request loop and served through the router's batched
fast path.  Four mechanisms, layered:

1. **Request coalescing** — identical in-flight ``(tokens, θ, func)``
   probes await one shared computation (an :class:`asyncio.Future` per
   distinct key) on top of a result LRU cache.  A hot-key storm of N
   identical probes costs one index probe, not N.
2. **Micro-batching** — queued probes are drained in bounded batches and
   dispatched through :meth:`ClusterRouter.search_batch`, which dedupes,
   admits once, and scatters each target shard one fragment-grouped
   columnar ``probe_batch`` call (claim rule preserved, results
   bit-identical to direct :meth:`ClusterRouter.search` calls).
3. **Per-tenant quotas and weighted fairness** — each tenant has a
   bounded number of outstanding requests (excess is shed with a typed
   :class:`~repro.errors.QuotaExceededError` before any cluster work)
   and a weight that sets how many of its queued probes each dispatch
   round takes, so a storming tenant cannot starve the others.
4. **Deadline-aware hedged scatter** — configured on the router
   (:class:`~repro.cluster.failover.HedgeConfig`): a shard leg still
   unanswered after the rolling leg-latency p95 races a backup replica
   probe and the first answer wins.  Replicas serve the same slice, so
   hedged answers are bit-identical and need no dedup.

Everything reports on the **router's injectable clock** (the one-clock
contract): per-tenant latency histograms, the gateway's own percentiles
and every deadline check read the same clock the chaos harness advances,
so injected latency is visible in exactly the numbers ``stats()`` and
``latency_info()`` report.  Deadlines are enforced per request at the gateway —
a batch is never failed wholesale because one member ran out of budget.

The event loop is single-threaded and the dispatch order is a pure
function of the submission order (per-tenant FIFO queues, weighted
round-robin drain), so a seeded replay coalesces, batches and sheds
identically every run — the property ``run_gateway_scenario`` checks.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    QuotaExceededError,
    ReproError,
)
from repro.mapreduce.counters import Counters
from repro.observability.histogram import LatencyHistogram
from repro.observability.tracer import Tracer
from repro.service.cache import LRUCache
from repro.service.index import (
    QueryKey,
    SearchHit,
    checked_probe_args,
    query_key,
    view_hits,
)
from repro.similarity.functions import SimilarityFunction

GATEWAY_GROUP = "gateway"
QUOTA_GROUP = "gateway.quota"


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's fairness weight and admission quota.

    ``weight`` is how many queued probes a dispatch round drains from
    this tenant per round-robin pass; ``max_outstanding`` bounds the
    tenant's concurrently outstanding requests — the excess is shed with
    :class:`~repro.errors.QuotaExceededError` before touching the
    cluster.
    """

    weight: int = 1
    max_outstanding: int = 64

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise ConfigError("tenant weight must be >= 1")
        if self.max_outstanding < 1:
            raise ConfigError("max_outstanding must be >= 1")


#: The policy of every tenant :attr:`GatewayConfig.tenants` does not list.
DEFAULT_TENANT = TenantConfig()


@dataclass(frozen=True)
class GatewayConfig:
    """Shape of one gateway: batching bounds, cache, tenant policies."""

    max_batch: int = 32
    """Most probes one dispatch round hands to the router batch path."""
    cache_size: int = 1024
    """Capacity of the gateway result LRU (0 disables caching).  Entries
    are tagged with the router's :attr:`~ClusterRouter.index_epoch` at
    dispatch time; a hit tagged with an older epoch (the index mutated
    via ``apply_batch`` or an ingest generation swap since) is treated
    as a miss and recomputed, so post-ingest probes never serve stale
    coalesced results."""
    tenants: Mapping[str, TenantConfig] = field(default_factory=dict)
    """Per-tenant overrides; unlisted tenants get :data:`DEFAULT_TENANT`."""

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigError("max_batch must be >= 1")
        if self.cache_size < 0:
            raise ConfigError("cache_size must be >= 0")

    def tenant(self, name: str) -> TenantConfig:
        return self.tenants.get(name, DEFAULT_TENANT)


@dataclass(frozen=True)
class GatewayRequest:
    """One probe in a replayable request schedule (see
    :meth:`SimilarityGateway.serve`)."""

    tokens: Tuple[str, ...]
    theta: float
    func: SimilarityFunction = SimilarityFunction.JACCARD
    tenant: str = "default"
    k: Optional[int] = None
    exclude: Optional[int] = None
    deadline: Optional[float] = None


@dataclass(frozen=True)
class GatewayResponse:
    """One request's outcome: hits, or the typed error that shed it."""

    hits: Optional[Tuple[SearchHit, ...]]
    error: Optional[str]
    tenant: str

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class _Pending:
    """One queued probe awaiting dispatch."""

    key: QueryKey
    theta: float
    func: SimilarityFunction
    tenant: str = "default"


class SimilarityGateway:
    """Async multi-tenant front door over a :class:`ClusterRouter`."""

    def __init__(
        self,
        router,
        config: Optional[GatewayConfig] = None,
        tracer: Optional[Tracer] = None,
        clock=None,
    ) -> None:
        """``tracer`` defaults to the router's (one request tree across
        both layers); ``clock`` defaults to the router's clock — the
        one-clock contract that makes injected latency visible in every
        histogram a deadline decision reads."""
        self.router = router
        self.config = config if config is not None else GatewayConfig()
        self.tracer = tracer if tracer is not None else router.tracer
        self._clock = clock if clock is not None else router._clock
        self.metrics = Counters()
        self.latency = LatencyHistogram()
        self._tenant_latency: Dict[str, LatencyHistogram] = {}
        #: result LRU; values are ``(index_epoch, hits)`` — see
        #: :attr:`GatewayConfig.cache_size` for the invalidation rule.
        self._cache: LRUCache[Tuple[int, List[SearchHit]]] = LRUCache(
            self.config.cache_size
        )
        self._inflight: Dict[QueryKey, asyncio.Future] = {}
        self._queues: Dict[str, Deque[_Pending]] = {}
        self._outstanding: Dict[str, int] = {}
        self._dispatcher: Optional[asyncio.Task] = None

    # -- the request path ----------------------------------------------
    async def search(
        self,
        tokens: Iterable[str],
        theta: float,
        k: Optional[int] = None,
        func: SimilarityFunction = SimilarityFunction.JACCARD,
        tenant: str = "default",
        exclude: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> List[SearchHit]:
        """One exact probe through the gateway; same result contract as
        :meth:`ClusterRouter.search`.

        The shared computation is keyed by ``(canonical tokens, θ,
        func)`` — ``k``/``exclude`` are per-caller views applied after
        it, so requests differing only in those still coalesce.
        ``deadline`` (seconds on the gateway clock) is enforced *per
        request*: an overrun raises a typed
        :class:`~repro.errors.DeadlineExceededError` for this caller
        only, never for the batch it rode in.  θ, ``func`` and ``k`` are
        checked before the request is admitted (a typed
        :class:`~repro.errors.ConfigError`).
        """
        func = checked_probe_args(theta, func, k)
        started = self._clock()
        deadline_at = None if deadline is None else started + deadline
        self.metrics.increment(GATEWAY_GROUP, "requests")
        quota = self.config.tenant(tenant)
        if self._outstanding.get(tenant, 0) >= quota.max_outstanding:
            self.metrics.increment(GATEWAY_GROUP, "quota_shed")
            self.metrics.increment(QUOTA_GROUP, tenant)
            # Shed requests are load too: they hit the same histograms
            # the served ones do, so overload is visible in the numbers.
            elapsed = self._clock() - started
            self.latency.record(elapsed)
            self._tenant_histogram(tenant).record(elapsed)
            self._trace_request(tenant, "quota-shed")
            raise QuotaExceededError(
                f"tenant {tenant!r} at max outstanding "
                f"({quota.max_outstanding}); request shed"
            )
        self._outstanding[tenant] = self._outstanding.get(tenant, 0) + 1
        status = "ok"
        try:
            self._check_deadline(deadline_at)
            key = query_key(tokens, theta, func)
            hits = self._cache_get(key)
            if hits is not None:
                self.metrics.increment(GATEWAY_GROUP, "cache_hits")
                status = "cache-hit"
            else:
                future = self._inflight.get(key)
                if future is not None:
                    self.metrics.increment(GATEWAY_GROUP, "coalesced")
                    status = "coalesced"
                else:
                    future = asyncio.get_running_loop().create_future()
                    self._inflight[key] = future
                    self._enqueue(tenant, _Pending(key, float(theta), func,
                                                   tenant))
                hits = await future
            self._check_deadline(deadline_at)
            return view_hits(hits, k, exclude)
        except ReproError as exc:
            status = type(exc).__name__
            raise
        finally:
            self._outstanding[tenant] -= 1
            if not self._outstanding[tenant]:
                del self._outstanding[tenant]
            elapsed = self._clock() - started
            self.latency.record(elapsed)
            self._tenant_histogram(tenant).record(elapsed)
            self._trace_request(tenant, status)

    def serve(
        self, requests: Sequence[GatewayRequest]
    ) -> List[GatewayResponse]:
        """Replay a request schedule through one event loop, concurrently.

        All requests are submitted as one scheduling wave (the asyncio
        twin of a traffic burst): they coalesce, batch, and shed against
        each other exactly as concurrent clients would, and the outcomes
        — hits or the typed error that shed a request — come back aligned
        with ``requests``.  Submission order is the only scheduling
        input, so a seeded schedule replays bit-identically.
        """

        async def one(request: GatewayRequest) -> GatewayResponse:
            try:
                hits = await self.search(
                    request.tokens, request.theta, k=request.k,
                    func=request.func, tenant=request.tenant,
                    exclude=request.exclude, deadline=request.deadline,
                )
                return GatewayResponse(tuple(hits), None, request.tenant)
            except ReproError as exc:
                return GatewayResponse(None, type(exc).__name__,
                                       request.tenant)

        async def run() -> List[GatewayResponse]:
            return list(await asyncio.gather(*(one(r) for r in requests)))

        return asyncio.run(run())

    # -- the dispatch loop ---------------------------------------------
    def _enqueue(self, tenant: str, pending: _Pending) -> None:
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
        queue.append(pending)
        if self._dispatcher is None or self._dispatcher.done():
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )

    async def _dispatch_loop(self) -> None:
        """Drain queued probes in weighted-fair batches until idle."""
        while True:
            # Yield so every request of the current scheduling wave gets
            # to enqueue before the batch is cut.
            await asyncio.sleep(0)
            batch = self._drain()
            if not batch:
                self._dispatcher = None
                return
            self._dispatch(batch)

    def _drain(self) -> List[_Pending]:
        """Take up to ``max_batch`` probes, weighted round-robin across
        tenants (tenant order = first-seen order, so replays are exact)."""
        batch: List[_Pending] = []
        limit = self.config.max_batch
        progressed = True
        while progressed and len(batch) < limit:
            progressed = False
            for tenant, queue in self._queues.items():
                for _ in range(self.config.tenant(tenant).weight):
                    if not queue or len(batch) >= limit:
                        break
                    batch.append(queue.popleft())
                    progressed = True
        return batch

    def _dispatch(self, batch: List[_Pending]) -> None:
        """Send one drained batch through the router's batched scatter.

        Probes are grouped by ``(θ, func)`` (the router batch signature);
        within a group the router dedupes, admits once and
        fragment-groups the scatter.  Full, unviewed results resolve the
        shared futures and feed the gateway cache.
        """
        self.metrics.increment(GATEWAY_GROUP, "batches")
        self.metrics.increment(GATEWAY_GROUP, "dispatched", len(batch))
        with self.tracer.span(
            "gateway-dispatch", phase="gateway", batch=len(batch),
        ) as span:
            groups: Dict[Tuple[float, str], List[_Pending]] = {}
            for pending in batch:
                groups.setdefault(
                    (pending.theta, pending.func.value), []
                ).append(pending)
            span.attrs["groups"] = len(groups)
            for (theta, func_value), members in groups.items():
                queries = [list(pending.key[0]) for pending in members]
                # Epoch before the probe: a write landing mid-probe may
                # or may not be visible in these results, so tag them
                # with the older epoch and let the next get recompute.
                epoch = self.router.index_epoch
                try:
                    results = self.router.search_batch(
                        queries, theta, func=SimilarityFunction(func_value),
                    )
                except ReproError as exc:
                    for pending in members:
                        future = self._inflight.pop(pending.key, None)
                        if future is not None and not future.done():
                            future.set_exception(exc)
                    continue
                for pending, hits in zip(members, results):
                    self._cache.put(pending.key, (epoch, hits))
                    future = self._inflight.pop(pending.key, None)
                    if future is not None and not future.done():
                        future.set_result(hits)

    # -- introspection ---------------------------------------------------
    def latency_info(self) -> Dict:
        """Gateway request-latency percentiles (shared-clock histogram)."""
        return self.latency.snapshot()

    def tenant_latency_info(self) -> Dict[str, Dict]:
        """Per-tenant latency snapshots, tenant-name ordered."""
        return {
            tenant: histogram.snapshot()
            for tenant, histogram in sorted(self._tenant_latency.items())
        }

    def stats(self) -> Dict:
        """One JSON-safe snapshot: gateway counters, quota sheds by
        tenant, latency percentiles, and the router's route/hedge
        counters underneath."""
        return {
            "gateway": self.metrics.group(GATEWAY_GROUP),
            "quota_shed_by_tenant": self.metrics.group(QUOTA_GROUP),
            "latency": self.latency_info(),
            "tenants": self.tenant_latency_info(),
            "route": self.router.metrics.group("cluster.route"),
            "leg_latency": self.router.leg_latency.snapshot(),
        }

    # -- internals -------------------------------------------------------
    def _check_deadline(self, deadline_at: Optional[float]) -> None:
        if deadline_at is not None and self._clock() >= deadline_at:
            self.metrics.increment(GATEWAY_GROUP, "deadline_exceeded")
            raise DeadlineExceededError(
                "gateway request ran past its deadline; result abandoned"
            )

    def _cache_get(self, key: QueryKey) -> Optional[List[SearchHit]]:
        """A cached result, unless the index mutated since it was put —
        an epoch-stale entry counts as ``cache_invalidated`` and misses,
        so the probe recomputes against the current index."""
        entry = self._cache.get(key)
        if entry is None:
            return None
        epoch, hits = entry
        if epoch != self.router.index_epoch:
            self.metrics.increment(GATEWAY_GROUP, "cache_invalidated")
            return None
        return hits

    def _tenant_histogram(self, tenant: str) -> LatencyHistogram:
        histogram = self._tenant_latency.get(tenant)
        if histogram is None:
            histogram = self._tenant_latency[tenant] = LatencyHistogram()
        return histogram

    def _trace_request(self, tenant: str, status: str) -> None:
        if self.tracer.enabled:
            self.tracer.add(
                f"gateway-request:{tenant}", "gateway",
                start=time.perf_counter(), duration=0.0,
                tenant=tenant, status=status,
            )
