"""Server/client integration tests over real localhost sockets.

The load-bearing contract: a hit list that crossed the wire is
**bit-identical** to the one ``SimilarityGateway.serve()`` produces
in-process over the same cluster — same rids, same float scores, same
order.  Around it, the transport's own promises: a batch is one frame
each way, typed errors (deadline, quota, bad frames) arrive as their
local exception twins, appends land in the ingest tier and invalidate
the result cache through the index epoch, torn frames reassemble,
stalled and killed peers are contained, and a drain finishes every
accepted request before the sockets close.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

from repro.cluster import build_cluster
from repro.data.records import Record
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    ProtocolError,
    QuotaExceededError,
    TransportError,
)
from repro.gateway import GatewayConfig, GatewayRequest, SimilarityGateway, TenantConfig
from repro.ingest import StreamingIndex
from repro.mapreduce.hdfs import InMemoryDFS
from repro.net import GatewayClient, GatewayServer, ServerConfig
from repro.net.protocol import (
    ERROR,
    RESULT,
    SEARCH,
    SEARCH_BATCH,
    Frame,
    FrameDecoder,
    encode_frame,
    hello_frame,
    hits_from_wire,
    search_frame,
    status_frame,
)
from repro.observability.tracer import Tracer
from repro.service.index import SegmentIndex
from repro.similarity.functions import SimilarityFunction
from tests.conftest import random_collection

THETA = 0.5


@pytest.fixture(scope="module")
def corpus():
    return random_collection(100, vocab=50, max_len=16, seed=4177)


@pytest.fixture(scope="module")
def index(corpus):
    return SegmentIndex.build(corpus, n_vertical=8)


class ServerHarness:
    """A live :class:`GatewayServer` on a background thread's loop."""

    def __init__(self, index, with_ingest=False, gateway_config=None,
                 server_config=None):
        self.tracer = Tracer()
        self.router = build_cluster(index, n_shards=3, replication=2,
                                    tracer=self.tracer)
        if with_ingest:
            self.router.attach_ingest(StreamingIndex.attach(
                InMemoryDFS(), "net-test",
                self.router.order, self.router.partitioner,
            ))
        self.gateway = SimilarityGateway(
            self.router,
            gateway_config if gateway_config is not None
            else GatewayConfig(max_batch=8),
        )
        self.server = GatewayServer(
            self.gateway,
            server_config if server_config is not None else ServerConfig(),
            tracer=self.tracer,
        )
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._stop = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait(5.0)

    def _run(self):
        asyncio.set_event_loop(self.loop)

        async def main():
            self.address = await self.server.start()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()

        self.loop.run_until_complete(main())
        self.loop.close()

    def submit(self, coroutine):
        """Run a coroutine on the server's loop from the test thread."""
        return asyncio.run_coroutine_threadsafe(
            coroutine, self.loop
        ).result(10.0)

    def stop(self):
        if self._stop is not None:
            self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(5.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


@pytest.fixture(scope="module")
def harness(index):
    with ServerHarness(index) as live:
        yield live


def expected_inprocess(index, requests):
    """The in-process twin: a fresh gateway over a fresh cluster."""
    gateway = SimilarityGateway(
        build_cluster(index, n_shards=3, replication=2),
        GatewayConfig(max_batch=8),
    )
    return [list(r.hits) for r in gateway.serve(requests)]


class TestWireBitIdentity:
    def test_search_matches_inprocess_gateway(self, corpus, index, harness):
        probes = [list(record.tokens) for record in corpus[::5]]
        requests = [GatewayRequest(tuple(tokens), THETA) for tokens in probes]
        expected = expected_inprocess(index, requests)
        host, port = harness.address
        with GatewayClient(host, port) as client:
            got = [client.search(tokens, THETA) for tokens in probes]
        assert got == expected

    def test_search_batch_is_one_frame_and_identical(self, corpus, index,
                                                     harness):
        probes = [list(record.tokens) for record in corpus[:10]]
        requests = [GatewayRequest(tuple(tokens), THETA) for tokens in probes]
        expected = expected_inprocess(index, requests)
        host, port = harness.address
        before = harness.server.metrics.get("net", "requests")
        with GatewayClient(host, port) as client:
            got = client.search_batch(probes, THETA)
        after = harness.server.metrics.get("net", "requests")
        assert got == expected
        assert after - before == 1, "a batch must ride in one frame"

    def test_cosine_and_k_cross_the_wire(self, corpus, index, harness):
        tokens = list(corpus[3].tokens)
        func = SimilarityFunction.COSINE
        direct = build_cluster(index, n_shards=3, replication=2)
        host, port = harness.address
        with GatewayClient(host, port) as client:
            assert (client.search(tokens, 0.4, k=2, func=func)
                    == direct.search(tokens, 0.4, k=2, func=func))


class TestTypedErrorsOverTheWire:
    def test_deadline_overrun_is_typed(self, corpus, harness):
        host, port = harness.address
        with GatewayClient(host, port) as client:
            with pytest.raises(DeadlineExceededError):
                client.search(list(corpus[0].tokens), THETA, deadline=0.0)
        # The connection survives a request-level error.
        with GatewayClient(host, port) as client:
            assert client.search(list(corpus[0].tokens), THETA) is not None

    def test_quota_shed_is_typed(self, index):
        config = GatewayConfig(max_batch=8, tenants={
            "free": TenantConfig(weight=1, max_outstanding=1),
        })
        with ServerHarness(index, gateway_config=config) as live:
            host, port = live.address
            # Pipeline three search frames in one write: the server
            # dispatches them concurrently, so a 1-outstanding quota
            # deterministically sheds the two that arrive while the
            # first is still in flight.
            with socket.create_connection((host, port), timeout=5.0) as raw:
                raw.sendall(encode_frame(hello_frame(0, "free")))
                decoder = FrameDecoder()
                while not decoder.feed(raw.recv(65536)):
                    pass
                raw.sendall(b"".join(
                    encode_frame(search_frame(i, [f"w{i}", "x"], THETA))
                    for i in (1, 2, 3)
                ))
                frames = []
                while len(frames) < 3:
                    frames.extend(decoder.feed(raw.recv(65536)))
            by_kind = {}
            for frame in frames:
                by_kind.setdefault(frame.kind, []).append(frame)
            assert len(by_kind.get("result", [])) == 1
            sheds = by_kind.get(ERROR, [])
            assert len(sheds) == 2
            assert all(f.payload["error"] == "QuotaExceededError"
                       for f in sheds)
            # The quota releases: a lone request is admitted afterwards.
            with GatewayClient(host, port, tenant="free") as client:
                assert client.search(["w1", "x"], THETA) is not None

    def test_large_batch_queues_instead_of_shedding_itself(self, corpus,
                                                           index):
        """One batch frame bigger than the tenant's outstanding quota
        must queue behind itself, not shed itself."""
        config = GatewayConfig(max_batch=8, tenants={
            "free": TenantConfig(weight=1, max_outstanding=2),
        })
        with ServerHarness(index, gateway_config=config) as live:
            host, port = live.address
            probes = [list(record.tokens) for record in corpus[:10]]
            direct = build_cluster(index, n_shards=3, replication=2)
            with GatewayClient(host, port, tenant="free") as client:
                got = client.search_batch(probes, THETA)
            assert got == direct.search_batch(probes, THETA)

    def test_handshake_is_mandatory(self, harness):
        host, port = harness.address
        with socket.create_connection((host, port), timeout=5.0) as raw:
            raw.sendall(encode_frame(search_frame(1, ["a"], THETA)))
            decoder = FrameDecoder()
            frames = []
            while not frames:
                data = raw.recv(65536)
                if not data:
                    break
                frames = decoder.feed(data)
            assert frames and frames[0].kind == ERROR
            assert frames[0].payload["error"] == "ProtocolError"
            assert raw.recv(65536) == b"", "connection must drop"

    def test_garbage_header_is_rejected_typed(self, harness):
        host, port = harness.address
        before = harness.server.metrics.get("net", "protocol_errors")
        with socket.create_connection((host, port), timeout=5.0) as raw:
            raw.sendall(encode_frame(hello_frame(0, "t")))
            decoder = FrameDecoder()
            while not decoder.feed(raw.recv(65536)):
                pass
            raw.sendall(b"\x00\x00garbage-after-handshake")
            frames = []
            while not frames:
                data = raw.recv(65536)
                if not data:
                    break
                frames = decoder.feed(data)
            assert frames and frames[0].payload["error"] == "ProtocolError"
        assert harness.server.metrics.get(
            "net", "protocol_errors") == before + 1


#: Well-framed requests whose payloads used to kill the request task with
#: an untyped exception — the peer got no response at all.
MALFORMED_PAYLOADS = {
    "unknown-func": Frame(SEARCH, 1, {"tokens": ["a"], "theta": THETA,
                                      "func": "bogus"}),
    "no-theta": Frame(SEARCH, 1, {"tokens": ["a"]}),
    "theta-not-a-number": Frame(SEARCH, 1, {"tokens": ["a"], "theta": "x"}),
    "mixed-token-types": Frame(SEARCH, 1, {"tokens": [1, "a"],
                                           "theta": THETA}),
    "batch-without-queries": Frame(SEARCH_BATCH, 1, {"theta": THETA}),
}


class TestMalformedPayloads:
    @pytest.mark.parametrize("name", sorted(MALFORMED_PAYLOADS))
    def test_answers_typed_and_keeps_the_connection(self, harness, name):
        host, port = harness.address
        with socket.create_connection((host, port), timeout=2.0) as raw:
            decoder = FrameDecoder()

            def exchange(frame):
                raw.sendall(encode_frame(frame))
                frames = []
                while not frames:
                    # socket.timeout after 2 s: the server never answered.
                    frames = decoder.feed(raw.recv(65536))
                return frames[0]

            exchange(hello_frame(0, "t"))
            answer = exchange(MALFORMED_PAYLOADS[name])
            assert answer.kind == ERROR and answer.request_id == 1
            assert answer.payload["error"] == "ProtocolError"
            # Framing is intact: the same connection keeps serving.
            status = exchange(status_frame(2))
            assert status.kind == RESULT and "status" in status.payload

    def test_out_of_range_theta_is_the_local_typed_error(self, harness):
        """Right type, wrong value: not the wire's business — the same
        ConfigError an in-process caller gets, even for an empty query."""
        host, port = harness.address
        with GatewayClient(host, port, tenant="t") as client:
            with pytest.raises(ConfigError):
                client.search([], 1.5)
            assert client.search([], THETA) == []

    def test_k_below_one_is_the_local_typed_error(self, harness):
        """``k`` is judged like θ: by the gateway, even for an empty query."""
        host, port = harness.address
        with GatewayClient(host, port, tenant="t") as client:
            with pytest.raises(ConfigError, match="k must be >= 1, got 0"):
                client.search([], THETA, k=0)
            assert client.search([], THETA, k=1) == []

    def test_empty_batch_is_judged_like_a_query(self, harness):
        """An empty ``search_batch`` fans out to no search, yet its θ and
        ``k`` get the typed error an in-process router batch raises."""
        host, port = harness.address
        with GatewayClient(host, port, tenant="t") as client:
            with pytest.raises(ConfigError):
                client.search_batch([], theta=1.5)
            with pytest.raises(ConfigError, match="k must be >= 1, got 0"):
                client.search_batch([], 0.5, k=0)
            assert client.search_batch([], THETA) == []


class TestTornFramesAndRetry:
    def test_torn_frame_reassembles(self, corpus, index, harness):
        host, port = harness.address
        direct = build_cluster(index, n_shards=3, replication=2)
        tokens = list(corpus[11].tokens)
        expected = direct.search(tokens, THETA)
        with socket.create_connection((host, port), timeout=5.0) as raw:
            raw.sendall(encode_frame(hello_frame(0, "t")))
            decoder = FrameDecoder()
            while not decoder.feed(raw.recv(65536)):
                pass
            data = encode_frame(search_frame(1, tokens, THETA))
            for i in range(0, len(data), 4):  # 4-byte shreds
                raw.sendall(data[i:i + 4])
            frames = []
            while not frames:
                frames = decoder.feed(raw.recv(65536))
            assert hits_from_wire(frames[0].payload["hits"]) == expected

    def test_search_retries_across_reconnect(self, corpus, index):
        """A search whose pooled connection died is retried on a fresh
        one — idempotent frames only, so the answer is just late."""
        with ServerHarness(index) as live:
            host, port = live.address
            direct = build_cluster(index, n_shards=3, replication=2)
            tokens = list(corpus[1].tokens)
            with GatewayClient(host, port, pool_size=1) as client:
                assert client.search(tokens, THETA) == direct.search(
                    tokens, THETA
                )

                # Kill the pooled connection server-side: the next call's
                # first attempt fails mid-flight and must transparently
                # reconnect and retry.
                async def hang_up():
                    for connection in list(live.server._connections):
                        connection.writer.close()

                live.submit(hang_up())
                assert client.search(tokens, THETA) == direct.search(
                    tokens, THETA
                )
            assert live.server.metrics.get("net", "connections") >= 2


class TestAppendAndEpoch:
    def test_append_lands_and_invalidates_cache(self, corpus, index):
        with ServerHarness(index, with_ingest=True) as live:
            host, port = live.address
            fresh_rid = max(record.rid for record in corpus) + 1000
            probe = list(corpus[2].tokens)
            with GatewayClient(host, port) as client:
                before = client.search(probe, THETA)
                again = client.search(probe, THETA)
                assert again == before
                assert live.gateway.metrics.get(
                    "gateway", "cache_hits") == 1
                added = client.append([Record.make(fresh_rid, probe)])
                assert added == 1
                after = client.search(probe, THETA)
            assert live.gateway.metrics.get(
                "gateway", "cache_invalidated") >= 1
            assert fresh_rid in {hit.rid for hit in after}
            assert fresh_rid not in {hit.rid for hit in before}


class TestDrain:
    def test_drain_finishes_accepted_work_and_refuses_new(self, corpus,
                                                          index):
        with ServerHarness(index) as live:
            host, port = live.address
            probes = [list(record.tokens) for record in corpus[:6]]
            with GatewayClient(host, port) as client:
                answers = [client.search(tokens, THETA)
                           for tokens in probes]
                assert len(answers) == len(probes)
                client.drain()
            live.submit(live.server.wait_drained())
            metrics = live.server.metrics.group("net")
            # Every accepted request got exactly one response.
            assert metrics["responses"] == metrics["requests"]
            assert metrics.get("dropped_responses", 0) == 0
            # Late connections are refused, not hung.
            with pytest.raises(TransportError):
                with GatewayClient(host, port) as late:
                    late.search(["a"], THETA)

    def test_established_connections_are_served_mid_drain(self, corpus,
                                                          index):
        # The drain contract: peers that were connected before the drain
        # started get everything they ask for until they hang up.
        with ServerHarness(index) as live:
            host, port = live.address
            probes = [list(record.tokens) for record in corpus[:4]]
            with GatewayClient(host, port, pool_size=1) as client:
                expected = expected_inprocess(
                    index,
                    [GatewayRequest(tuple(tokens), THETA)
                     for tokens in probes],
                )
                client.status()  # the pooled connection is established

                async def kick():
                    live.server.request_drain()

                live.submit(kick())
                deadline = time.perf_counter() + 5.0
                while not live.server.status()["draining"]:
                    assert time.perf_counter() < deadline
                    time.sleep(0.01)
                answers = [client.search(tokens, THETA)
                           for tokens in probes]
            assert answers == expected
            live.submit(live.server.wait_drained())
            metrics = live.server.metrics.group("net")
            assert metrics["responses"] == metrics["requests"]
            assert metrics.get("dropped_responses", 0) == 0

    def test_status_over_the_wire(self, harness):
        host, port = harness.address
        with GatewayClient(host, port) as client:
            status = client.status()
        assert "net" in status and "gateway" in status
        assert status["draining"] is False


class TestServerConfig:
    @pytest.mark.parametrize("field", ["frame_timeout", "drain_grace"])
    def test_nan_duration_is_refused(self, field):
        """NaN fails every comparison, so a ``<= 0`` guard would let it
        through to the event loop; the guards are written so it fails."""
        with pytest.raises(ConfigError, match=f"{field} must be"):
            ServerConfig(**{field: float("nan")})


class TestStall:
    def test_half_sent_frame_times_out(self, index):
        config = ServerConfig(frame_timeout=0.15)
        with ServerHarness(index, server_config=config) as live:
            host, port = live.address
            with socket.create_connection((host, port), timeout=5.0) as raw:
                raw.sendall(encode_frame(hello_frame(0, "t")))
                decoder = FrameDecoder()
                while not decoder.feed(raw.recv(65536)):
                    pass
                raw.sendall(b"RN")  # half a header, then silence
                assert raw.recv(65536) == b"", "server must hang up"
            assert live.server.metrics.get(
                "net", "stalled_connections") == 1
