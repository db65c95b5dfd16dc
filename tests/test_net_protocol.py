"""Wire-codec tests: round-trip fidelity, torn-read reassembly, and the
typed rejection of every way a byte stream can lie.

The contracts under test:

* ``decode(encode(frame)) == frame`` for every frame kind and any
  JSON-safe payload — including floats, whose ``repr`` serialization
  must round-trip IEEE doubles exactly (the bit-identical wire
  contract);
* :class:`~repro.net.protocol.FrameDecoder` reassembles frames from
  *any* chunking of the stream — byte-by-byte, mid-header tears,
  several frames coalesced into one read;
* garbage headers, version mismatches, oversized bodies (announced or
  real) and malformed JSON raise :class:`~repro.errors.ProtocolError`,
  never a parse crash;
* error frames carry typed :class:`~repro.errors.ReproError` subclasses
  across the wire by name, and unknown names degrade to
  :class:`~repro.errors.TransportError`.
"""

from __future__ import annotations

import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DeadlineExceededError,
    ProtocolError,
    QuotaExceededError,
    TransportError,
)
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    FRAME_KINDS,
    HEADER_SIZE,
    IDEMPOTENT_KINDS,
    MAGIC,
    VERSION,
    Frame,
    FrameDecoder,
    append_frame,
    drain_frame,
    encode_frame,
    error_frame,
    hello_frame,
    hits_from_wire,
    hits_to_wire,
    raise_wire_error,
    result_frame,
    search_batch_frame,
    search_frame,
    status_frame,
)
from repro.service.index import SearchHit

# JSON-safe payload values (finite floats only: JSON has no NaN/inf).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
_payloads = st.dictionaries(
    st.text(max_size=10),
    st.recursive(
        _scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=6), children, max_size=4),
        ),
        max_leaves=10,
    ),
    max_size=6,
)
_frames = st.builds(
    Frame,
    kind=st.sampled_from(sorted(FRAME_KINDS)),
    request_id=st.integers(min_value=0, max_value=2 ** 31),
    payload=_payloads,
)


class _FakeRecord:
    """Minimal Record-like object for append_frame."""

    def __init__(self, rid, tokens):
        self.rid = rid
        self.tokens = tokens


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(frame=_frames)
    def test_any_frame_round_trips(self, frame):
        decoded = FrameDecoder().feed(encode_frame(frame))
        assert len(decoded) == 1
        twin = decoded[0]
        assert twin.kind == frame.kind
        assert twin.request_id == frame.request_id
        # json.loads/dumps twin-ness, not identity: -0.0 == 0.0 etc. is
        # exactly the equality the wire promises.
        assert twin.payload == frame.payload

    @settings(max_examples=50, deadline=None)
    @given(frames=st.lists(_frames, min_size=1, max_size=5),
           chunk=st.integers(min_value=1, max_value=7))
    def test_any_chunking_reassembles_in_order(self, frames, chunk):
        stream = b"".join(encode_frame(frame) for frame in frames)
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(stream), chunk):
            out.extend(decoder.feed(stream[i:i + chunk]))
        assert [f.kind for f in out] == [f.kind for f in frames]
        assert [f.request_id for f in out] == [f.request_id for f in frames]
        assert not decoder.pending

    def test_float_scores_round_trip_exactly(self):
        scores = [1 / 3, 0.7, math.nextafter(0.5, 1.0), 1e-17, 2 / 7]
        hits = [SearchHit(i, s) for i, s in enumerate(scores)]
        frame = result_frame(1, {"hits": hits_to_wire(hits)})
        (twin,) = FrameDecoder().feed(encode_frame(frame))
        assert hits_from_wire(twin.payload["hits"]) == hits

    def test_every_constructor_round_trips(self):
        frames = [
            hello_frame(1, "tenant-a"),
            search_frame(2, ["a", "b"], 0.7, func="cosine", k=5,
                         exclude=3, deadline=1.5),
            search_batch_frame(3, [["a"], ["b", "c"]], 0.6, k=2),
            append_frame(4, [_FakeRecord(10, ("x", "y"))]),
            status_frame(5),
            drain_frame(6),
            result_frame(7, {"hits": []}),
            error_frame(8, DeadlineExceededError("too slow")),
        ]
        stream = b"".join(encode_frame(frame) for frame in frames)
        assert [f.payload for f in FrameDecoder().feed(stream)] == [
            f.payload for f in frames
        ]

    def test_frames_are_the_json_dumps_bytes(self):
        """The shared encoder writes what ``json.dumps`` with the same
        separators writes: non-ASCII tokens escaped, floats as ``repr``,
        ids near 2**62 exact."""
        frames = [
            search_frame(2 ** 62 - 1, ["naïve", "東京", "emoji-😀", "a\"b\\"],
                         0.1 + 0.2, func="dice", k=3, exclude=2 ** 62 - 7),
            search_batch_frame(2 ** 62, [["café"], ["ß", "ü"]], 0.6),
            result_frame(2 ** 62 + 1, {"hits": hits_to_wire([
                SearchHit(2 ** 62 - 3, 0.1 + 0.2),
                SearchHit(2 ** 62 - 2, 1 / 3),
                SearchHit(5, math.nextafter(0.5, 1.0)),
            ])}),
            append_frame(9, [_FakeRecord(2 ** 62 - 11, ("ĳ", "ω", "x"))]),
            error_frame(3, QuotaExceededError("quota – exceeded")),
        ]
        for frame in frames:
            body = json.dumps(
                {"kind": frame.kind, "id": frame.request_id,
                 "payload": frame.payload},
                separators=(",", ":"),
            ).encode("utf-8")
            data = encode_frame(frame)
            assert data[HEADER_SIZE:] == body
            assert data[:HEADER_SIZE] == struct.pack(
                ">2sBBI", MAGIC, VERSION, 0, len(body))
        first = encode_frame(frames[0])
        for literal in (b"0.30000000000000004", b"na\\u00efve",
                        b"\\ud83d\\ude00", b"4611686018427387903"):
            assert literal in first

    def test_torn_mid_header_and_mid_body(self):
        frame = search_frame(9, ["q"], 0.5)
        data = encode_frame(frame)
        decoder = FrameDecoder()
        assert decoder.feed(data[:3]) == []          # torn inside the header
        assert decoder.pending
        assert decoder.feed(data[3:HEADER_SIZE + 2]) == []   # torn in body
        (twin,) = decoder.feed(data[HEADER_SIZE + 2:])
        assert twin == frame
        assert not decoder.pending


class TestRejection:
    def test_garbage_magic_is_typed(self):
        with pytest.raises(ProtocolError, match="magic"):
            FrameDecoder().feed(b"XXjunkjunkjunk")

    def test_version_mismatch_is_typed(self):
        header = struct.Struct(">2sBBI").pack(MAGIC, VERSION + 1, 0, 2)
        with pytest.raises(ProtocolError, match="version"):
            FrameDecoder().feed(header + b"{}")

    def test_oversized_announcement_rejected_before_body(self):
        # The length field alone must trip the budget — no buffering of
        # a body one byte past it.
        header = struct.Struct(">2sBBI").pack(
            MAGIC, VERSION, 0, DEFAULT_MAX_FRAME + 1
        )
        with pytest.raises(ProtocolError, match="budget"):
            FrameDecoder().feed(header)

    def test_oversized_encode_rejected(self):
        frame = result_frame(1, {"blob": "x" * DEFAULT_MAX_FRAME})
        with pytest.raises(ProtocolError, match="budget"):
            encode_frame(frame)

    def test_unparseable_body_is_typed(self):
        body = b"not json at all"
        header = struct.Struct(">2sBBI").pack(MAGIC, VERSION, 0, len(body))
        with pytest.raises(ProtocolError, match="JSON"):
            FrameDecoder().feed(header + body)

    @pytest.mark.parametrize("document", [
        ["a", "list"],
        {"kind": "no-such-kind", "id": 1, "payload": {}},
        {"kind": "search", "id": "one", "payload": {}},
        {"kind": "search", "id": True, "payload": {}},
        {"kind": "search", "id": 1, "payload": [1, 2]},
    ])
    def test_malformed_documents_are_typed(self, document):
        body = json.dumps(document).encode()
        header = struct.Struct(">2sBBI").pack(MAGIC, VERSION, 0, len(body))
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(header + body)

    def test_unknown_kind_refused_at_encode(self):
        with pytest.raises(ProtocolError, match="kind"):
            encode_frame(Frame("telepathy", 1))


class TestWireErrors:
    def test_typed_errors_survive_the_wire(self):
        frame = error_frame(3, QuotaExceededError("tenant over quota"))
        (twin,) = FrameDecoder().feed(encode_frame(frame))
        with pytest.raises(QuotaExceededError, match="over quota"):
            raise_wire_error(twin.payload)

    def test_unknown_error_degrades_to_transport(self):
        with pytest.raises(TransportError, match="mystery"):
            raise_wire_error({"error": "FutureError", "message": "mystery"})

    def test_idempotent_kinds_exclude_writes(self):
        assert "ingest-append" not in IDEMPOTENT_KINDS
        assert "drain" not in IDEMPOTENT_KINDS
        assert {"hello", "search", "search_batch",
                "status"} <= IDEMPOTENT_KINDS

    def test_default_budget_is_sane(self):
        assert DEFAULT_MAX_FRAME >= 1 << 20
