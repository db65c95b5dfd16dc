"""Gateway tests: bit-identity, coalescing, quotas, hedging, one clock.

The load-bearing property is the same as the router's: every answer the
gateway returns — coalesced, cached, micro-batched, hedged, it doesn't
matter which path — must be bit-identical to a direct
:meth:`ClusterRouter.search` over the same cluster.  On top of that the
gateway's own contracts: identical in-flight probes share one
computation, quota sheds are typed and deterministic on a seeded
schedule, hedged wins never duplicate hits, and every latency number is
recorded on the same injectable clock the deadline checks read.
"""

from __future__ import annotations

import time
from collections import deque

import pytest

from repro.chaos import ChaosClock
from repro.cluster import HedgeConfig, build_cluster
from repro.errors import ConfigError, QuotaExceededError
from repro.gateway import (
    GatewayConfig,
    GatewayRequest,
    GatewayResponse,
    SimilarityGateway,
    TenantConfig,
)
from repro.observability.tracer import Tracer
from repro.service.index import SegmentIndex
from repro.similarity.functions import SimilarityFunction
from tests.conftest import random_collection

THETAS = (0.5, 0.8)
FUNCS = (SimilarityFunction.JACCARD, SimilarityFunction.COSINE)


@pytest.fixture(scope="module")
def corpus():
    return random_collection(120, vocab=60, max_len=18, seed=2311)


@pytest.fixture(scope="module")
def index(corpus):
    return SegmentIndex.build(corpus, n_vertical=8)


def make_gateway(index, config=None, hedge=None, clock=None, tracer=None):
    router = build_cluster(
        index,
        n_shards=3,
        replication=2,
        hedge=hedge,
        tracer=tracer if tracer is not None else Tracer(),
        **({"clock": clock, "sleep": clock.sleep} if clock is not None else {}),
    )
    return SimilarityGateway(router, config)


class TestExactness:
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("func", FUNCS)
    def test_bit_identical_to_direct_router(self, corpus, index, theta, func):
        gateway = make_gateway(index)
        direct = build_cluster(index, n_shards=3, replication=2)
        requests = [
            GatewayRequest(tuple(record.tokens), theta, func=func,
                           tenant=f"t{record.rid % 3}")
            for record in corpus[::4]
        ]
        responses = gateway.serve(requests)
        assert all(response.ok for response in responses)
        for request, response in zip(requests, responses):
            assert list(response.hits) == direct.search(
                list(request.tokens), theta, func=func
            )

    def test_views_do_not_break_coalescing(self, corpus, index):
        """Requests differing only in k/exclude share one computation
        but still get their own view of the shared result."""
        gateway = make_gateway(index)
        tokens = tuple(corpus[0].tokens)
        base = GatewayRequest(tokens, 0.5)
        requests = [
            base,
            GatewayRequest(tokens, 0.5, k=1),
            GatewayRequest(tokens, 0.5, exclude=corpus[0].rid),
        ]
        full, top1, excluded = gateway.serve(requests)
        assert gateway.metrics.get("gateway", "coalesced") == 2
        assert list(top1.hits) == list(full.hits)[:1]
        assert list(excluded.hits) == [
            hit for hit in full.hits if hit.rid != corpus[0].rid
        ]

    def test_cache_serves_repeat_waves(self, corpus, index):
        gateway = make_gateway(index)
        request = [GatewayRequest(tuple(corpus[1].tokens), 0.5)]
        first = gateway.serve(request)
        again = gateway.serve(request)
        assert first[0].hits == again[0].hits
        assert gateway.metrics.get("gateway", "cache_hits") == 1
        assert gateway.metrics.get("gateway", "batches") == 1


class TestCoalescing:
    def test_storm_costs_one_dispatch(self, corpus, index):
        gateway = make_gateway(index)
        storm = [GatewayRequest(tuple(corpus[2].tokens), 0.5)] * 10
        responses = gateway.serve(storm)
        assert len({response.hits for response in responses}) == 1
        stats = gateway.metrics.group("gateway")
        assert stats["coalesced"] == 9
        assert stats["dispatched"] == 1
        # The router computed the answer exactly once.
        assert gateway.router.metrics.get("cluster.route", "searches") == 1


class TestQuotas:
    def config(self):
        return GatewayConfig(tenants={
            "free": TenantConfig(weight=1, max_outstanding=3),
            "paid": TenantConfig(weight=3, max_outstanding=64),
        })

    def schedule(self, corpus):
        return (
            [GatewayRequest(tuple(corpus[i].tokens), 0.5, tenant="free")
             for i in range(8)]
            + [GatewayRequest(tuple(corpus[i].tokens), 0.5, tenant="paid")
               for i in range(4)]
        )

    def test_shed_is_typed_deterministic_and_scoped(self, corpus, index):
        requests = self.schedule(corpus)

        def run():
            gateway = make_gateway(index, self.config())
            return gateway.serve(requests), gateway

        responses, gateway = run()
        free = responses[:8]
        paid = responses[8:]
        # Exactly the over-quota tail of the free tenant sheds, typed;
        # the paid tenant never notices.
        assert [r.error for r in free] == [None] * 3 + \
            ["QuotaExceededError"] * 5
        assert all(r.ok for r in paid)
        assert gateway.metrics.get("gateway.quota", "free") == 5
        assert gateway.metrics.get("gateway.quota", "paid") == 0
        # Same seeded schedule, same sheds, same answers — every run.
        replay, _ = run()
        assert replay == responses

    def test_quota_exceeded_raises_in_async_api(self, corpus, index):
        import asyncio

        gateway = make_gateway(
            index,
            GatewayConfig(tenants={"free": TenantConfig(max_outstanding=1)}),
        )

        async def overrun():
            first = asyncio.ensure_future(gateway.search(
                list(corpus[0].tokens), 0.5, tenant="free"
            ))
            await asyncio.sleep(0)
            with pytest.raises(QuotaExceededError):
                await gateway.search(list(corpus[1].tokens), 0.5,
                                     tenant="free")
            return await first

        asyncio.run(overrun())


class TestFairness:
    def test_weighted_drain_interleaves_tenants(self, corpus, index):
        """A weight-3 tenant gets 3 slots per round-robin pass, but a
        weight-1 tenant is never starved out of a batch."""
        gateway = make_gateway(index, GatewayConfig(
            max_batch=4,
            tenants={"big": TenantConfig(weight=3, max_outstanding=64),
                     "small": TenantConfig(weight=1, max_outstanding=64)},
        ))
        from repro.gateway.gateway import _Pending

        for i in range(6):
            key = (("q", str(i)), 0.5, "jaccard")
            tenant = "big" if i < 4 else "small"
            gateway._queues.setdefault(tenant, deque()).append(
                _Pending(key, 0.5, SimilarityFunction.JACCARD))
        batch = gateway._drain()
        assert len(batch) == 4
        # 3 from "big", then 1 from "small" — not 4 straight from "big".
        assert [pending.key[0][1] for pending in batch] == \
            ["0", "1", "2", "4"]


class TestHedging:
    def test_hedge_wins_are_bit_identical_and_dedup_free(self, corpus,
                                                         index):
        """A stalled primary leg loses the race to its backup replica;
        the answer must be exactly the direct router's — no duplicate
        hits, no missing hits, no reordering."""
        gateway = make_gateway(index, hedge=HedgeConfig(
            min_delay=0.002, max_delay=0.01, min_observations=10_000,
        ))
        direct = build_cluster(index, n_shards=3, replication=2)
        stalled = gateway.router.replica(0, 0)
        stalled.fault_hook = lambda target: time.sleep(0.05)
        requests = [GatewayRequest(tuple(corpus[3].tokens), 0.5)]
        for _ in range(2 * gateway.router.replication):
            (response,) = gateway.serve(requests)
            hits = list(response.hits)
            assert hits == direct.search(list(corpus[3].tokens), 0.5)
            assert len({hit.rid for hit in hits}) == len(hits)
        route = gateway.router.metrics.group("cluster.route")
        assert route.get("hedges", 0) >= 1
        assert route.get("hedge_wins", 0) >= 1


class TestOneClock:
    def test_injected_latency_visible_in_histograms(self, corpus, index):
        """A chaos-clock stall inside a probe shows up in the gateway's
        and the router's latency percentiles — the histograms record on
        the same injectable clock the deadline checks read."""
        clock = ChaosClock()
        gateway = make_gateway(index, clock=clock)
        for node in (gateway.router.replica(shard, replica)
                     for shard in range(gateway.router.n_shards)
                     for replica in range(gateway.router.replication)):
            node.fault_hook = lambda target: clock.advance(0.2)
        (response,) = gateway.serve(
            [GatewayRequest(tuple(corpus[4].tokens), 0.5, tenant="acme")]
        )
        assert response.ok
        assert gateway.latency_info()["max_ms"] >= 200.0
        assert gateway.tenant_latency_info()["acme"]["max_ms"] >= 200.0
        assert gateway.router.latency.snapshot()["max_ms"] >= 200.0

    def test_shed_requests_are_recorded_too(self, corpus, index):
        gateway = make_gateway(
            index,
            GatewayConfig(tenants={"t": TenantConfig(max_outstanding=1)}),
        )
        requests = [GatewayRequest(tuple(corpus[i].tokens), 0.5, tenant="t")
                    for i in range(3)]
        responses = gateway.serve(requests)
        assert [r.error for r in responses] == \
            [None, "QuotaExceededError", "QuotaExceededError"]
        # All three requests — served and shed alike — hit the histogram.
        assert gateway.latency_info()["count"] == 3


class TestTracing:
    def test_dispatch_spans_carry_gateway_phase(self, corpus, index):
        tracer = Tracer()
        gateway = make_gateway(index, tracer=tracer)
        gateway.serve([GatewayRequest(tuple(corpus[5].tokens), 0.5)])
        dispatch = [span for span in tracer.spans()
                    if span.name == "gateway-dispatch"]
        assert len(dispatch) == 1
        assert dispatch[0].phase == "gateway"
        assert dispatch[0].attrs["batch"] == 1
        # The router's batched scatter nests under the dispatch span.
        children = [span for span in tracer.spans()
                    if span.parent_id == dispatch[0].span_id]
        assert any(span.name == "cluster-batch" for span in children)
        events = [span for span in tracer.spans()
                  if span.phase == "gateway"
                  and span.name.startswith("gateway-request")]
        assert events and all(span.attrs["status"] == "ok"
                              for span in events)


class TestConfig:
    def test_invalid_configs_are_typed(self):
        with pytest.raises(ConfigError):
            TenantConfig(weight=0)
        with pytest.raises(ConfigError):
            TenantConfig(max_outstanding=0)
        with pytest.raises(ConfigError):
            GatewayConfig(max_batch=0)
        with pytest.raises(ConfigError):
            GatewayConfig(cache_size=-1)

    def test_response_ok_property(self):
        assert GatewayResponse((), None, "t").ok
        assert not GatewayResponse(None, "QuotaExceededError", "t").ok


class TestCacheInvalidation:
    def test_ingest_invalidates_cached_results(self, corpus, index):
        """A cached answer must not outlive the index it was computed
        on: after an ingest batch lands, the same probe recomputes and
        sees the fresh record — never a stale cache hit."""
        from repro.data.records import Record
        from repro.ingest import StreamingIndex
        from repro.mapreduce.hdfs import InMemoryDFS

        gateway = make_gateway(index)
        router = gateway.router
        router.attach_ingest(StreamingIndex.attach(
            InMemoryDFS(), "gw-epoch", router.order, router.partitioner,
        ))
        probe = tuple(corpus[0].tokens)
        request = [GatewayRequest(probe, 0.5)]

        before = list(gateway.serve(request)[0].hits)
        assert list(gateway.serve(request)[0].hits) == before
        assert gateway.metrics.get("gateway", "cache_hits") == 1

        epoch_before = router.index_epoch
        fresh_rid = max(record.rid for record in corpus) + 500
        router.apply_batch([Record.make(fresh_rid, list(probe))])
        assert router.index_epoch > epoch_before

        after = list(gateway.serve(request)[0].hits)
        # The stale entry was detected, not served.
        assert gateway.metrics.get("gateway", "cache_invalidated") == 1
        assert gateway.metrics.get("gateway", "cache_hits") == 1
        assert fresh_rid in {hit.rid for hit in after}
        assert fresh_rid not in {hit.rid for hit in before}

        # The recomputed answer is cached under the new epoch and valid.
        assert list(gateway.serve(request)[0].hits) == after
        assert gateway.metrics.get("gateway", "cache_hits") == 2

    def test_epoch_is_stable_without_writes(self, index):
        gateway = make_gateway(index)
        assert gateway.router.index_epoch == gateway.router.index_epoch

