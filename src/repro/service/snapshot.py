"""Index persistence: versioned, integrity-checked snapshots.

A snapshot is a pickle of ``{"format", "version", "stats", "digest",
"index_bytes"}``: the index itself is pickled separately into
``index_bytes`` and its sha256 digest stored alongside, so a bit-flipped or
otherwise corrupted payload fails the digest check with a clear
:class:`~repro.errors.SnapshotError` *before* the payload is unpickled —
never a pickle crash deep inside ``loads`` and never a silently wrong
index.  A truncated file fails the outer header parse the same way.
The outer envelope holds only builtins, so it is parsed by an unpickler
that resolves no classes: no object a file names is ever constructed
before its bytes pass the digest check.

Only version 5 — the columnar index whose posting entry is a record id,
every run in record-length order, and whose record is its id column, flat
``array`` columns serialized as machine bytes — is read.  Files of any
other version are refused with one typed error naming both versions and
the command that rebuilds them, ``repro index``: one format, one reader.
4 held the same columns with runs in insertion order, which the probe's
length window would read as answers silently missing; 3 also stored a
position per posting entry and segment bounds per record; 1 and 2 were
dict-of-objects layouts.

Writes go to a temporary sibling file first and are atomically swapped
into place with :func:`os.replace` — the same write-then-swap convention
:meth:`repro.mapreduce.hdfs.InMemoryDFS.write` follows for overwrites — so
a crash mid-save can never leave a truncated snapshot under the target
name.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import BinaryIO, Tuple, Union

from repro.errors import SnapshotError
from repro.service.index import SegmentIndex

SNAPSHOT_FORMAT = "repro-segment-index"
#: v5: three posting columns (a posting is a record id, each run in
#: record-length order) and one id column per record.
SNAPSHOT_VERSION = 5

_PICKLE_ERRORS = (
    pickle.UnpicklingError, EOFError, AttributeError, ImportError, IndexError,
    KeyError, TypeError, ValueError,
)


def pack_payload(payload) -> Tuple[bytes, str]:
    """``payload`` pickled, and the sha256 of those bytes — how a snapshot
    file stores its index and an ingest generation its columns."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return body, hashlib.sha256(body).hexdigest()


def unpack_payload(body, recorded: str, kind: type):
    """The ``kind`` instance in ``body``, unpickled only once the bytes
    hash to ``recorded``; else a :class:`SnapshotError` whose message is a
    bare predicate for the caller to prefix with what and where."""
    if not isinstance(body, bytes):
        raise SnapshotError("carries no index payload")
    digest = hashlib.sha256(body).hexdigest()
    if digest != recorded:
        raise SnapshotError(
            f"failed its integrity check (sha256 {digest[:12]}… != recorded "
            f"{str(recorded)[:12]}…)"
        )
    try:
        payload = pickle.loads(body)
    except _PICKLE_ERRORS as exc:
        raise SnapshotError(
            "is unreadable despite a valid digest (written by an "
            f"incompatible build?): {exc}"
        ) from None
    if not isinstance(payload, kind):
        raise SnapshotError("carries no index payload")
    return payload


def save_index(index: SegmentIndex, path: Union[str, Path]) -> int:
    """Persist ``index`` at ``path`` atomically; returns the byte size."""
    path = Path(path)
    body, digest = pack_payload(index)
    payload = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "stats": index.posting_stats(),
        "digest": digest,
        "index_bytes": body,
    }
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(data)
    os.replace(tmp, path)
    return len(data)


class _EnvelopeUnpickler(pickle.Unpickler):
    """Parses the snapshot envelope — builtins only, no class lookups.

    A version-1 file embeds the index object in the envelope itself; it
    (and any hostile header) is refused here instead of being constructed.
    """

    def find_class(self, module, name):
        raise SnapshotError(
            f"snapshot header references {module}.{name}; this build reads "
            f"version {SNAPSHOT_VERSION} envelopes only — rebuild the index "
            "with 'repro index'"
        )


def load_index(path: Union[str, Path]) -> SegmentIndex:
    """Load a snapshot, validating format, version and integrity digest."""
    path = Path(path)
    try:
        stream = path.open("rb")
    except FileNotFoundError:
        raise SnapshotError(f"no snapshot at {path}") from None
    return read_index(stream, path)


def read_index(stream: BinaryIO, path: Path) -> SegmentIndex:
    """:func:`load_index` over the open snapshot ``stream`` (``path`` only
    names it in errors) — for a caller that already holds the file's bytes,
    as :func:`repro.cluster.build.load_saved_index` does to hash them.  The
    stream is closed once the envelope is parsed, before the payload is
    unpickled: an in-memory file is released, not held beside its copy."""
    try:
        with stream:
            payload = _EnvelopeUnpickler(stream).load()
    except SnapshotError as exc:
        raise SnapshotError(f"{path}: {exc}") from None
    except _PICKLE_ERRORS as exc:
        raise SnapshotError(
            f"{path} is not a readable index snapshot: {exc}"
        ) from None
    if not isinstance(payload, dict) or payload.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"{path} is not a {SNAPSHOT_FORMAT!r} snapshot"
        )
    version = payload.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version mismatch at {path}: file has {version!r}, "
            f"this build reads {SNAPSHOT_VERSION} — "
            "rebuild the index with 'repro index'"
        )
    try:
        return unpack_payload(
            payload.get("index_bytes"), payload.get("digest"), SegmentIndex
        )
    except SnapshotError as exc:
        raise SnapshotError(
            f"snapshot at {path} {exc} — rebuild the index with 'repro index'"
        ) from None
