"""The client for the gateway's TCP front door.

:class:`GatewayClient` speaks the wire protocol over blocking sockets.
The CLI (``repro query --connect``), the perf harness and scripts use it
directly; a caller inside an event loop hands each call to a worker
thread (``await asyncio.to_thread(client.search, ...)``), which is how
the chaos drill's ``net`` scenario drives it against a server on its own
loop.

It pools connections (a bounded stack of idle sockets reused across
calls), handshakes the tenant once per connection, times out reads with a
configurable budget, and retries *idempotent* frames — search,
search_batch, status — on connection-level failures by reconnecting and
re-sending, with :data:`CLIENT_RETRY` (the cluster's deterministic-jitter
:class:`~repro.cluster.failover.RetryPolicy`) pacing the attempts.
``ingest-append`` and ``drain`` are never retried: a torn connection
leaves their outcome unknown, and re-sending could double-apply.

Typed errors cross the wire by class name: a server-side
:class:`~repro.errors.QuotaExceededError` raises as exactly that here
(see :func:`~repro.net.protocol.raise_wire_error`), and is never
retried — the server already answered authoritatively.  Connection-level
failures (refused, reset, timeout) surface as
:class:`~repro.errors.TransportError` once the retry budget is spent.

``search_batch`` rides one frame each way, whatever the batch size —
the batching the paper's communication-cost argument asks the transport
to preserve.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.cluster.failover import RetryPolicy
from repro.errors import ProtocolError, TransportError
from repro.service.index import SearchHit
from repro.similarity.functions import SimilarityFunction

from .protocol import (
    ERROR,
    IDEMPOTENT_KINDS,
    RESULT,
    Frame,
    FrameDecoder,
    append_frame,
    drain_frame,
    encode_frame,
    hello_frame,
    hits_from_wire,
    raise_wire_error,
    search_batch_frame,
    search_frame,
    status_frame,
)

#: Reconnect/retry pacing: a couple of quick, jittered attempts.
CLIENT_RETRY = RetryPolicy(max_retries=2, base_delay=0.02, max_delay=0.2)


def _check_response(frame: Frame, request_id: int) -> Dict[str, Any]:
    """Validate a response frame's correlation and type; unwrap or raise."""
    if frame.request_id != request_id:
        raise ProtocolError(
            f"response id {frame.request_id} does not match "
            f"request id {request_id}"
        )
    if frame.kind == ERROR:
        raise_wire_error(frame.payload)
    if frame.kind != RESULT:
        raise ProtocolError(f"unexpected response kind {frame.kind!r}")
    return frame.payload


class _SyncConnection:
    """One handshaken blocking socket plus its decode buffer."""

    def __init__(self, host: str, port: int, tenant: str,
                 timeout: float) -> None:
        self.decoder = FrameDecoder()
        try:
            self.sock = socket.create_connection((host, port),
                                                 timeout=timeout)
        except OSError as exc:
            raise TransportError(
                f"cannot connect to {host}:{port}: {exc}"
            ) from None
        try:
            payload = self.call(hello_frame(0, tenant))
        except Exception:
            self.close()
            raise
        if not payload.get("ok"):
            self.close()
            raise TransportError("handshake rejected by server")

    def call(self, frame: Frame) -> Dict[str, Any]:
        try:
            self.sock.sendall(encode_frame(frame))
            while True:
                data = self.sock.recv(65536)
                if not data:
                    raise TransportError(
                        "connection closed by server mid-response"
                    )
                frames = self.decoder.feed(data)
                if frames:
                    return _check_response(frames[0], frame.request_id)
        except socket.timeout:
            raise TransportError(
                "timed out waiting for a response"
            ) from None
        except OSError as exc:
            raise TransportError(f"connection failed: {exc}") from None

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class GatewayClient:
    """Synchronous pooled client; also a context manager."""

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str = "default",
        pool_size: int = 2,
        timeout: float = 5.0,
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout
        self._idle: List[_SyncConnection] = []
        self._lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(max(1, pool_size))
        self._next_id = 1
        self._closed = False

    # -- the request path ----------------------------------------------
    def search(
        self,
        tokens: Iterable[str],
        theta: float,
        k: Optional[int] = None,
        func: SimilarityFunction = SimilarityFunction.JACCARD,
        exclude: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> List[SearchHit]:
        """One exact probe over the wire; same result contract as
        :meth:`SimilarityGateway.search` on the server."""
        frame = search_frame(
            self._request_id(), tokens, theta,
            func=SimilarityFunction(func).value,
            k=k, exclude=exclude, deadline=deadline,
        )
        return hits_from_wire(self._call(frame)["hits"])

    def search_batch(
        self,
        queries: Sequence[Iterable[str]],
        theta: float,
        k: Optional[int] = None,
        func: SimilarityFunction = SimilarityFunction.JACCARD,
        deadline: Optional[float] = None,
    ) -> List[List[SearchHit]]:
        """Batched probes in **one frame** each way, results aligned with
        ``queries``."""
        frame = search_batch_frame(
            self._request_id(), queries, theta,
            func=SimilarityFunction(func).value, k=k, deadline=deadline,
        )
        return [hits_from_wire(rows)
                for rows in self._call(frame)["results"]]

    def append(self, records) -> int:
        """Route a write batch to the server's ingest tier (not retried:
        a torn connection leaves the append's fate unknown)."""
        frame = append_frame(self._request_id(), records)
        return int(self._call(frame)["added"])

    def status(self) -> Dict[str, Any]:
        return self._call(status_frame(self._request_id()))["status"]

    def drain(self) -> Dict[str, Any]:
        """Ask the server to drain gracefully (acknowledged, not retried)."""
        return self._call(drain_frame(self._request_id()))

    # -- plumbing ------------------------------------------------------
    def _request_id(self) -> int:
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
            return request_id

    def _call(self, frame: Frame) -> Dict[str, Any]:
        if self._closed:
            raise TransportError("client is closed")
        retries = (
            CLIENT_RETRY.max_retries if frame.kind in IDEMPOTENT_KINDS else 0
        )
        with self._slots:
            for attempt in range(retries + 1):
                if attempt:
                    time.sleep(CLIENT_RETRY.backoff(
                        ("net", frame.kind, frame.request_id), attempt - 1
                    ))
                connection = None
                try:
                    connection = self._checkout()
                    payload = connection.call(frame)
                except TransportError:
                    # Connection-level failure (including a failed
                    # connect): drop the socket and — for idempotent
                    # frames — reconnect and re-send.
                    if connection is not None:
                        connection.close()
                    if attempt >= retries:
                        raise
                    continue
                except Exception:
                    if connection is not None:
                        connection.close()
                    raise
                self._checkin(connection)
                return payload
        raise TransportError("retry budget exhausted")  # pragma: no cover

    def _checkout(self) -> _SyncConnection:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return _SyncConnection(self.host, self.port, self.tenant,
                               self.timeout)

    def _checkin(self, connection: _SyncConnection) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(connection)
                return
        connection.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
