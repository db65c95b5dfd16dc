"""The length-prefixed JSON wire protocol the net subsystem speaks.

One frame is one request or one response::

    +-------+---------+-------+-----------------+----------------------+
    | magic | version | flags | body length     | body (UTF-8 JSON)    |
    | 2 B   | 1 B     | 1 B   | 4 B big-endian  | ``length`` bytes     |
    +-------+---------+-------+-----------------+----------------------+

The body is a JSON object ``{"kind": str, "id": int, "payload": object}``.
Request kinds are ``hello`` (the handshake that names the tenant),
``search``, ``search_batch``, ``ingest-append``, ``status`` and
``drain``; responses are ``result`` or ``error``.  The header is
versioned: a peer speaking a different :data:`VERSION` is rejected with
a typed :class:`~repro.errors.ProtocolError` instead of being
mis-parsed, and so is any frame whose body exceeds the
:data:`DEFAULT_MAX_FRAME` budget or fails to parse — malformed bytes can
desync the length-prefixed stream, so both sides drop the connection after a
protocol error.

:class:`FrameDecoder` is the incremental half: feed it whatever byte
chunks the socket produces (a frame torn across many reads, or many
frames coalesced into one read) and it yields complete frames in order.

Scores ride the wire as JSON numbers serialized with ``repr(float)``,
which round-trips IEEE doubles exactly — the bit-identical contract
between over-the-wire and in-process results costs nothing here.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro import errors
from repro.errors import ProtocolError, ReproError, TransportError
from repro.service.index import SearchHit

MAGIC = b"RN"
VERSION = 1
_HEADER = struct.Struct(">2sBBI")
HEADER_SIZE = _HEADER.size

#: The one body encoder, shared by every frame (``encode`` keeps no state
#: between calls): ``json.dumps`` given any keyword builds a fresh
#: :class:`json.JSONEncoder` per call.  Output is ``json.dumps(body,
#: separators=(",", ":"))``, byte for byte.
_ENCODER = json.JSONEncoder(separators=(",", ":"))

#: Largest body (bytes) either side encodes or accepts.
DEFAULT_MAX_FRAME = 4 * 1024 * 1024

# Request kinds.
HELLO = "hello"
SEARCH = "search"
SEARCH_BATCH = "search_batch"
APPEND = "ingest-append"
STATUS = "status"
DRAIN = "drain"
# Response kinds.
RESULT = "result"
ERROR = "error"

FRAME_KINDS = frozenset(
    (HELLO, SEARCH, SEARCH_BATCH, APPEND, STATUS, DRAIN, RESULT, ERROR)
)
#: Request kinds safe to retry on a fresh connection: re-sending cannot
#: change state, so the client's reconnect/retry path is limited to them.
IDEMPOTENT_KINDS = frozenset((HELLO, SEARCH, SEARCH_BATCH, STATUS))


@dataclass(frozen=True)
class Frame:
    """One wire message: a kind, a correlation id, and a JSON payload."""

    kind: str
    request_id: int
    payload: Dict[str, Any] = field(default_factory=dict)


def encode_frame(frame: Frame) -> bytes:
    """Serialize ``frame`` to header + JSON body bytes."""
    if frame.kind not in FRAME_KINDS:
        raise ProtocolError(f"unknown frame kind {frame.kind!r}")
    body = _ENCODER.encode(
        {"kind": frame.kind, "id": frame.request_id, "payload": frame.payload}
    ).encode("utf-8")
    if len(body) > DEFAULT_MAX_FRAME:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{DEFAULT_MAX_FRAME}-byte frame budget"
        )
    return _HEADER.pack(MAGIC, VERSION, 0, len(body)) + body


class FrameDecoder:
    """Reassemble frames from an arbitrary chunking of the byte stream.

    ``feed`` buffers whatever arrives and returns every frame completed
    so far; a frame torn across reads completes on a later ``feed``.
    Garbage headers, version mismatches, oversized or unparseable bodies
    raise :class:`~repro.errors.ProtocolError` — after which the stream
    offset is unreliable and the connection should be dropped.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending(self) -> bool:
        """Is a partial frame sitting in the buffer?"""
        return bool(self._buffer)

    def feed(self, data: bytes) -> List[Frame]:
        self._buffer.extend(data)
        frames: List[Frame] = []
        while True:
            if len(self._buffer) < HEADER_SIZE:
                break
            magic, version, _flags, length = _HEADER.unpack_from(self._buffer)
            if magic != MAGIC:
                raise ProtocolError(
                    f"bad frame magic {bytes(magic)!r} (expected {MAGIC!r})"
                )
            if version != VERSION:
                raise ProtocolError(
                    f"unsupported protocol version {version} "
                    f"(this side speaks {VERSION})"
                )
            if length > DEFAULT_MAX_FRAME:
                raise ProtocolError(
                    f"announced frame body of {length} bytes exceeds the "
                    f"{DEFAULT_MAX_FRAME}-byte frame budget"
                )
            if len(self._buffer) < HEADER_SIZE + length:
                break
            body = bytes(self._buffer[HEADER_SIZE:HEADER_SIZE + length])
            del self._buffer[:HEADER_SIZE + length]
            frames.append(self._parse_body(body))
        return frames

    def _parse_body(self, body: bytes) -> Frame:
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(f"frame body is not valid JSON: {exc}") from None
        if not isinstance(document, dict):
            raise ProtocolError("frame body must be a JSON object")
        kind = document.get("kind")
        request_id = document.get("id")
        payload = document.get("payload", {})
        if kind not in FRAME_KINDS:
            raise ProtocolError(f"unknown frame kind {kind!r}")
        if not isinstance(request_id, int) or isinstance(request_id, bool):
            raise ProtocolError("frame id must be an integer")
        if not isinstance(payload, dict):
            raise ProtocolError("frame payload must be a JSON object")
        return Frame(kind, request_id, payload)


# -- frame constructors -------------------------------------------------
def hello_frame(request_id: int, tenant: str) -> Frame:
    """The handshake: first frame on every connection, names the tenant
    every later request on the connection is accounted to."""
    return Frame(HELLO, request_id, {"tenant": tenant, "version": VERSION})


def search_frame(
    request_id: int,
    tokens: Iterable[str],
    theta: float,
    func: str = "jaccard",
    k: Optional[int] = None,
    exclude: Optional[int] = None,
    deadline: Optional[float] = None,
) -> Frame:
    payload: Dict[str, Any] = {
        "tokens": list(tokens), "theta": float(theta), "func": func,
    }
    if k is not None:
        payload["k"] = int(k)
    if exclude is not None:
        payload["exclude"] = int(exclude)
    if deadline is not None:
        payload["deadline"] = float(deadline)
    return Frame(SEARCH, request_id, payload)


def search_batch_frame(
    request_id: int,
    queries: Sequence[Iterable[str]],
    theta: float,
    func: str = "jaccard",
    k: Optional[int] = None,
    deadline: Optional[float] = None,
) -> Frame:
    payload: Dict[str, Any] = {
        "queries": [list(tokens) for tokens in queries],
        "theta": float(theta), "func": func,
    }
    if k is not None:
        payload["k"] = int(k)
    if deadline is not None:
        payload["deadline"] = float(deadline)
    return Frame(SEARCH_BATCH, request_id, payload)


def append_frame(request_id: int, records) -> Frame:
    """``records`` are ``Record``-like objects routed to the ingest tier."""
    return Frame(APPEND, request_id, {
        "records": [[record.rid, list(record.tokens)] for record in records],
    })


def status_frame(request_id: int) -> Frame:
    return Frame(STATUS, request_id)


def drain_frame(request_id: int) -> Frame:
    return Frame(DRAIN, request_id)


def result_frame(request_id: int, payload: Dict[str, Any]) -> Frame:
    return Frame(RESULT, request_id, payload)


def error_frame(request_id: int, exc: BaseException) -> Frame:
    """Carry a typed error across the wire by exception-class name."""
    return Frame(ERROR, request_id,
                 {"error": type(exc).__name__, "message": str(exc)})


# -- payload helpers ----------------------------------------------------
def hits_to_wire(hits: Iterable[SearchHit]) -> List[List[Any]]:
    return [[hit.rid, hit.score] for hit in hits]


def hits_from_wire(rows: Iterable[Sequence[Any]]) -> List[SearchHit]:
    return [SearchHit(int(rid), float(score)) for rid, score in rows]


def _error_registry() -> Dict[str, type]:
    return {
        name: value
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, ReproError)
    }


_REGISTRY = _error_registry()


def raise_wire_error(payload: Dict[str, Any]) -> None:
    """Re-raise a server-side error frame as its typed local twin.

    Unknown class names (a newer server, a non-Repro error) degrade to
    :class:`~repro.errors.TransportError` so callers still get a typed
    failure.
    """
    name = str(payload.get("error", "TransportError"))
    message = str(payload.get("message", ""))
    raise _REGISTRY.get(name, TransportError)(message)
