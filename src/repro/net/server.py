"""The asyncio TCP front door: one long-lived gateway behind real sockets.

:class:`GatewayServer` is what turns the repo from a library into a
service.  It owns one :class:`~repro.gateway.gateway.SimilarityGateway`
over a loaded cluster and keeps a persistent event loop, so requests
from *different connections* land in the same scheduling waves and get
the gateway's coalescing, micro-batching and per-tenant quotas for free
— exactly the machinery ``SimilarityGateway.serve()`` exercises
in-process, now fed from the wire.

Per connection:

* the first frame must be the ``hello`` handshake; its tenant name is
  attached to every later request on the connection (quotas and
  per-tenant latency follow from it);
* a reader task decodes frames (reassembling torn ones) and dispatches
  request tasks, holding a bounded per-connection inflight semaphore —
  when a client has ``max_inflight`` requests outstanding the reader
  stops reading, so backpressure propagates to the peer as TCP flow
  control instead of unbounded buffering;
* wire ``deadline`` fields are handed to the gateway unchanged, so a
  deadline overrun raises the same typed
  :class:`~repro.errors.DeadlineExceededError` a local caller sees;
* a connection that leaves a frame half-sent for ``frame_timeout``
  seconds is a stalled peer and is dropped (counted, so the chaos drill
  can assert it);
* request latency records into a per-connection
  :class:`~repro.observability.histogram.LatencyHistogram` and every
  served frame emits a ``phase="net"`` span.

**Drain protocol** (SIGTERM, a ``drain`` frame, or :meth:`drain`): the
listener closes so no new connection is accepted (late arrivals get a
typed :class:`~repro.errors.DrainingError` and are disconnected), but
established connections keep being served — every request already on
the wire gets exactly one response, finished and flushed — until the
peers close or ``drain_grace`` expires, at which point in-flight work
is completed, responses are flushed, and the sockets are closed.  Zero
losses, zero duplicates.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.data.records import Record
from repro.errors import ConfigError, DrainingError, ProtocolError, ReproError
from repro.mapreduce.counters import Counters
from repro.observability.histogram import LatencyHistogram
from repro.observability.tracer import Tracer
from repro.service.index import checked_probe_args
from repro.similarity.functions import SimilarityFunction

from .protocol import (
    APPEND,
    DRAIN,
    HELLO,
    SEARCH,
    SEARCH_BATCH,
    STATUS,
    Frame,
    FrameDecoder,
    encode_frame,
    error_frame,
    hits_to_wire,
    result_frame,
)

NET_GROUP = "net"

_FUNC_NAMES = tuple(func.value for func in SimilarityFunction)

#: Closed-connection histograms retained for ``stats()`` (oldest dropped).
_RETAINED_HISTOGRAMS = 64


@dataclass(frozen=True)
class ServerConfig:
    """Shape of one server: bind address, inflight and time budgets.

    Every frame is held to :data:`~repro.net.protocol.DEFAULT_MAX_FRAME`.
    """

    host: str = "127.0.0.1"
    port: int = 0
    """``0`` binds an ephemeral port; :meth:`GatewayServer.start` returns
    the actual address either way."""
    max_inflight: int = 32
    """Per-connection outstanding-request bound — the reader stops
    reading past it, so overload turns into TCP backpressure."""
    frame_timeout: Optional[float] = 30.0
    """Seconds a partial frame may sit unfinished before the connection
    is declared stalled and dropped (``None`` disables)."""
    drain_grace: float = 5.0
    """Seconds :meth:`GatewayServer.drain` waits for peers to close
    before force-closing their connections (in-flight work still
    finishes and flushes first)."""

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        # Written so that NaN fails them: every comparison with NaN is False.
        if self.frame_timeout is not None and not self.frame_timeout > 0:
            raise ConfigError(
                f"frame_timeout must be positive (or None), got "
                f"{self.frame_timeout}"
            )
        if not self.drain_grace >= 0:
            raise ConfigError(
                f"drain_grace must be >= 0, got {self.drain_grace}"
            )


class _Connection:
    """Server-side state of one accepted socket."""

    def __init__(self, name: str, reader, writer, config: ServerConfig) -> None:
        self.name = name
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder()
        self.tenant: Optional[str] = None
        self.inflight = asyncio.Semaphore(config.max_inflight)
        self.write_lock = asyncio.Lock()
        self.tasks: Set[asyncio.Task] = set()
        self.histogram = LatencyHistogram()
        self.frames = 0


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number a float can hold (an integer past 1e308 cannot)."""
    if not isinstance(value, float) and not _is_int(value):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _is_tokens(value) -> bool:
    return isinstance(value, list) and all(isinstance(t, str) for t in value)


def _is_record(value) -> bool:
    return (isinstance(value, list) and len(value) == 2
            and _is_int(value[0]) and _is_tokens(value[1]))


def _list_of(check):
    return lambda value: isinstance(value, list) and all(map(check, value))


def _optional(check):
    return lambda value: value is None or check(value)


_SEARCH_OPTIONS = {
    "theta": _is_number,
    "func": _optional(lambda value: value in _FUNC_NAMES),
    "k": _optional(_is_int),
    "exclude": _optional(_is_int),
    "deadline": _optional(_is_number),
}
#: Request kind → payload field → what a well-formed value looks like.
_PAYLOAD_SHAPES = {
    SEARCH: {"tokens": _is_tokens, **_SEARCH_OPTIONS},
    SEARCH_BATCH: {"queries": _list_of(_is_tokens), **_SEARCH_OPTIONS},
    APPEND: {"records": _list_of(_is_record)},
}


def _checked_payload(frame: Frame) -> Dict:
    """A request frame's payload, once every field
    :meth:`GatewayServer._dispatch` reads has the right shape — or a typed
    :class:`ProtocolError`.  Framing is intact, so the request gets an
    error frame and the connection stays open.  Values of the right type
    but out of range (θ = 1.5, an oversized rid) are not judged here: they
    get the same typed error a local caller sees."""
    payload = frame.payload
    for name, well_formed in _PAYLOAD_SHAPES[frame.kind].items():
        if not well_formed(payload.get(name)):
            raise ProtocolError(
                f"malformed {frame.kind} payload: field {name!r} is "
                f"{'not well-formed' if name in payload else 'missing'}"
            )
    return payload


class GatewayServer:
    """An asyncio TCP server over one long-lived ``SimilarityGateway``."""

    def __init__(
        self,
        gateway,
        config: Optional[ServerConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.gateway = gateway
        self.config = config if config is not None else ServerConfig()
        self.tracer = tracer if tracer is not None else gateway.tracer
        self.metrics = Counters()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        self._handler_tasks: Set[asyncio.Task] = set()
        self._histograms: Dict[str, LatencyHistogram] = {}
        self._conn_seq = 0
        self._draining = False
        self._drained: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the actual ``(host, port)``."""
        self._drained = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def request_drain(self) -> None:
        """Signal-handler-safe drain trigger: schedules :meth:`drain` on
        the running loop (idempotent)."""
        if not self._draining:
            asyncio.get_running_loop().create_task(self.drain())

    async def drain(self) -> None:
        """Stop accepting, serve out what is established, flush, close."""
        if self._draining:
            await self.wait_drained()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Established peers get everything they ask for until they hang
        # up — or until the grace runs out, after which in-flight work is
        # finished, flushed, and the sockets are closed from this side.
        assert self._idle is not None
        try:
            await asyncio.wait_for(self._idle.wait(), self.config.drain_grace)
        except asyncio.TimeoutError:
            for connection in list(self._connections):
                await self._flush_and_close(connection)
        # Let every connection handler run to completion so nothing is
        # left mid-write when the caller tears the loop down.
        current = asyncio.current_task()
        pending = [
            task for task in self._handler_tasks
            if task is not current and not task.done()
        ]
        if pending:
            await asyncio.wait(pending, timeout=self.config.drain_grace or 1.0)
        assert self._drained is not None
        self._drained.set()

    async def wait_drained(self) -> None:
        """Block until a drain (signal, frame, or direct call) completes."""
        assert self._drained is not None
        await self._drained.wait()

    async def _flush_and_close(self, connection: _Connection) -> None:
        if connection.tasks:
            await asyncio.gather(*connection.tasks, return_exceptions=True)
        try:
            await connection.writer.drain()
            connection.writer.close()
        except (ConnectionError, OSError):
            pass

    # -- the connection loop -------------------------------------------
    async def _handle(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        name = f"conn-{self._conn_seq}"
        self._conn_seq += 1
        connection = _Connection(name, reader, writer, self.config)
        if self._draining:
            # A connection that slipped in around the listener close.
            self.metrics.increment(NET_GROUP, "refused")
            await self._send(
                connection,
                error_frame(0, DrainingError("server is draining")),
            )
            writer.close()
            return
        self.metrics.increment(NET_GROUP, "connections")
        self._connections.add(connection)
        assert self._idle is not None
        self._idle.clear()
        started = time.perf_counter()
        status = "closed"
        try:
            status = await self._read_loop(connection)
        except (ConnectionError, OSError):
            status = "reset"
        finally:
            if connection.tasks:
                await asyncio.gather(*connection.tasks,
                                     return_exceptions=True)
            try:
                await connection.writer.drain()
                connection.writer.close()
            except (ConnectionError, OSError):
                pass
            self._connections.discard(connection)
            if not self._connections:
                self._idle.set()
            self._retain_histogram(connection)
            if self.tracer.enabled:
                self.tracer.add(
                    f"net-connection:{name}", "net",
                    start=started,
                    duration=time.perf_counter() - started,
                    kind="connection", connection=name,
                    tenant=connection.tenant or "", frames=connection.frames,
                    status=status,
                )

    async def _read_loop(self, connection: _Connection) -> str:
        config = self.config
        while True:
            timeout = (
                config.frame_timeout if connection.decoder.pending else None
            )
            try:
                data = await asyncio.wait_for(
                    connection.reader.read(65536), timeout
                )
            except asyncio.TimeoutError:
                # A peer that started a frame and went quiet: stalled.
                self.metrics.increment(NET_GROUP, "stalled_connections")
                return "stalled"
            if not data:
                return "closed"
            try:
                frames = connection.decoder.feed(data)
            except ProtocolError as exc:
                # Framing is lost; answer typed and hang up.
                self.metrics.increment(NET_GROUP, "protocol_errors")
                await self._send(connection, error_frame(0, exc))
                return "protocol-error"
            for frame in frames:
                connection.frames += 1
                if not await self._accept_frame(connection, frame):
                    return "protocol-error"

    async def _accept_frame(self, connection: _Connection,
                            frame: Frame) -> bool:
        """Route one decoded frame; ``False`` drops the connection."""
        if connection.tenant is None:
            if frame.kind != HELLO:
                self.metrics.increment(NET_GROUP, "protocol_errors")
                await self._send(connection, error_frame(
                    frame.request_id,
                    ProtocolError("expected a hello handshake frame first"),
                ))
                return False
            connection.tenant = str(frame.payload.get("tenant", "default"))
            await self._send(connection, result_frame(
                frame.request_id,
                {"ok": True, "tenant": connection.tenant},
            ))
            return True
        if frame.kind == DRAIN:
            await self._send(connection, result_frame(
                frame.request_id, {"ok": True, "draining": True}
            ))
            self.request_drain()
            return True
        if frame.kind == STATUS:
            await self._send(connection, result_frame(
                frame.request_id, {"status": self.status()}
            ))
            return True
        if frame.kind in (SEARCH, SEARCH_BATCH, APPEND):
            self.metrics.increment(NET_GROUP, "requests")
            # Backpressure: the reader blocks here once the connection
            # has max_inflight requests outstanding.
            await connection.inflight.acquire()
            task = asyncio.get_running_loop().create_task(
                self._serve_frame(connection, frame)
            )
            connection.tasks.add(task)

            def _done(finished: asyncio.Task,
                      connection: _Connection = connection) -> None:
                connection.tasks.discard(finished)
                connection.inflight.release()

            task.add_done_callback(_done)
            return True
        # A syntactically valid frame the server has no business getting
        # (a stray result/error from a confused peer): answer typed and
        # keep the connection — framing is still intact.
        self.metrics.increment(NET_GROUP, "protocol_errors")
        await self._send(connection, error_frame(
            frame.request_id,
            ProtocolError(f"unexpected frame kind {frame.kind!r}"),
        ))
        return True

    async def _serve_frame(self, connection: _Connection,
                           frame: Frame) -> None:
        started = time.perf_counter()
        status = "ok"
        try:
            payload = await self._dispatch(connection, frame)
            response = result_frame(frame.request_id, payload)
        except ReproError as exc:
            status = type(exc).__name__
            self.metrics.increment(NET_GROUP, "request_errors")
            response = error_frame(frame.request_id, exc)
        delivered = await self._send(connection, response)
        elapsed = time.perf_counter() - started
        connection.histogram.record(elapsed)
        self.metrics.increment(
            NET_GROUP, "responses" if delivered else "dropped_responses"
        )
        if self.tracer.enabled:
            self.tracer.add(
                f"net-request:{frame.kind}", "net",
                start=started, duration=elapsed,
                kind=frame.kind, connection=connection.name,
                tenant=connection.tenant or "", status=status,
            )

    async def _dispatch(self, connection: _Connection, frame: Frame) -> Dict:
        payload = _checked_payload(frame)
        if frame.kind == SEARCH:
            hits = await self.gateway.search(
                payload["tokens"], payload["theta"],
                k=payload.get("k"),
                func=SimilarityFunction(payload.get("func") or "jaccard"),
                tenant=connection.tenant,
                exclude=payload.get("exclude"),
                deadline=payload.get("deadline"),
            )
            return {"hits": hits_to_wire(hits)}
        if frame.kind == SEARCH_BATCH:
            # θ, func and k are judged once here: an empty batch fans
            # out to no gateway.search that would judge them.
            func = checked_probe_args(payload["theta"],
                                      payload.get("func") or "jaccard",
                                      payload.get("k"))
            # One wire frame, many gateway requests submitted together:
            # they coalesce and micro-batch against each other (and
            # against other connections) like any scheduling wave.  The
            # fan-out is capped at the tenant's own outstanding quota so
            # a large batch queues behind itself instead of shedding
            # itself — the quota still bites across frames.
            quota = self.gateway.config.tenant(connection.tenant)
            gate = asyncio.Semaphore(max(1, quota.max_outstanding))

            async def one(tokens):
                async with gate:
                    return await self.gateway.search(
                        tokens, payload["theta"],
                        k=payload.get("k"), func=func,
                        tenant=connection.tenant,
                        deadline=payload.get("deadline"),
                    )

            results = await asyncio.gather(
                *(one(tokens) for tokens in payload["queries"])
            )
            return {"results": [hits_to_wire(hits) for hits in results]}
        # APPEND: routed straight to the cluster's ingest tier.
        records = [
            Record.make(rid, tokens) for rid, tokens in payload["records"]
        ]
        added = self.gateway.router.apply_batch(records)
        self.metrics.increment(NET_GROUP, "appended_records", added)
        return {"added": added}

    async def _send(self, connection: _Connection, frame: Frame) -> bool:
        """Write one frame (serialized with the write lock so concurrent
        request tasks never interleave bytes); ``False`` if the peer is
        gone — the request was still served, only the response is lost,
        which is the peer's choice."""
        data = encode_frame(frame)
        async with connection.write_lock:
            try:
                connection.writer.write(data)
                await connection.writer.drain()
                return True
            except (ConnectionError, OSError):
                return False

    # -- introspection -------------------------------------------------
    def _retain_histogram(self, connection: _Connection) -> None:
        self._histograms[connection.name] = connection.histogram
        while len(self._histograms) > _RETAINED_HISTOGRAMS:
            self._histograms.pop(next(iter(self._histograms)))

    def connection_latency_info(self) -> Dict[str, Dict]:
        """Per-connection request-latency snapshots (live + recent)."""
        info = dict(self._histograms)
        for connection in self._connections:
            info[connection.name] = connection.histogram
        return {
            name: histogram.snapshot()
            for name, histogram in sorted(info.items())
        }

    def status(self) -> Dict:
        """One JSON-safe snapshot: net counters, per-connection latency,
        the gateway's own stats, and — so a remote ``status`` frame shows
        cluster health without shell access to the server — the router's
        per-replica health/breaker/fencing summary (control-plane state
        included when one is attached)."""
        status = {
            "net": self.metrics.group(NET_GROUP),
            "draining": self._draining,
            "connections": self.connection_latency_info(),
            "gateway": self.gateway.stats(),
        }
        router = getattr(self.gateway, "router", None)
        if router is not None and hasattr(router, "health_summary"):
            status["self_heal"] = router.health_summary()
        return status
