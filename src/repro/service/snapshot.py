"""Index persistence: versioned, integrity-checked snapshots.

A snapshot file is a header pickle and then a body:

* the **header**, ``{"format", "version", "stats", "length", "sha256"}`` —
  builtins only, parsed by an unpickler that resolves no classes, so no
  object a file names is constructed before its bytes pass the checks;
* the **body**, ``length`` bytes with digest ``sha256``: the index's
  state without its posting lists, then one pickle per fragment's
  :class:`~repro.service.columnar.FragmentPostings`, every ``array``
  column written item by item (:class:`_ColumnPickler`).

Loading never holds the file's bytes.  :func:`read_index` parses the
header, then reads the body twice:

1. the **check pass** hashes the body in fixed-size chunks and counts it —
   a truncated, extended or bit-flipped file fails here with a typed
   :class:`~repro.errors.SnapshotError`, before anything is unpickled;
2. the **load pass** unpickles the index straight from the file through a
   reader that hashes the bytes again as it hands them over, with an
   unpickler whose ``find_class`` admits only the classes an index is made
   of.  The index is returned only when that second digest matches too and
   the file ends where the body does: a file rewritten between the passes
   is refused, never returned half old, half new.

An unpickler's memo keeps every object it built alive until its pickle
ends.  So a column pickled as machine bytes would be rebuilt from a
``bytes`` object held to the end — a second copy of every column at the
load's peak; written item by item, it is extended from the stream in
batches that nothing keeps.  And a fragment is its own pickle, so a load
that keeps only some fragments (a repair carving one shard) drops each of
the others as soon as it is read.  Item by item is also smaller: most
ids fit two bytes of pickle.

Only version 6 is read.  Files of any other version are refused with one
typed error naming both versions and the command that rebuilds them,
``repro index``: one format, one reader.  5 held the same index, its
columns as machine bytes, inside the header pickle, so a load held the
whole file beside the index; 4 kept posting runs in insertion order,
which the probe's length window would read as answers silently missing;
3 also stored a position per posting entry and segment bounds per record;
1 and 2 were dict-of-objects layouts.

Writes go to a temporary sibling file first and are atomically swapped
into place with :func:`os.replace` — the same write-then-swap convention
:meth:`repro.mapreduce.hdfs.InMemoryDFS.write` follows for overwrites — so
a crash mid-save can never leave a truncated snapshot under the target
name.
"""

from __future__ import annotations

import copyreg
import hashlib
import io
import os
import pickle
from array import array, typecodes
from pathlib import Path
from typing import BinaryIO, Collection, Iterator, Optional, Tuple, Union

from repro.core.ordering import GlobalOrder
from repro.core.partitioning import VerticalPartitioner
from repro.core.pivots import PivotMethod
from repro.errors import SnapshotError
from repro.service.columnar import FragmentPostings
from repro.service.index import SegmentIndex

SNAPSHOT_FORMAT = "repro-segment-index"
#: v6: a builtins-only header, then the index's state and one pickle per
#: fragment — three posting columns (a posting is a record id, each run in
#: record-length order) — with one id column per record, item by item.
SNAPSHOT_VERSION = 6

#: Bytes per read of the check pass, and all it holds at once.
CHUNK_BYTES = 1 << 16

#: What a snapshot body may name: the classes an index is made of.
_INDEX_CLASSES = {
    (cls.__module__, cls.__qualname__): cls
    for cls in (array, GlobalOrder, VerticalPartitioner, PivotMethod,
                FragmentPostings)
}
#: The keys of the index state a body opens with: ``SegmentIndex``'s
#: pickled state without its posting lists.
_STATE_KEYS = {"order", "partitioner", "pivot_method", "_ranks"}

_PICKLE_ERRORS = (
    pickle.UnpicklingError, EOFError, AttributeError, ImportError, IndexError,
    KeyError, TypeError, ValueError, OverflowError,
)

_REBUILD = "rebuild the index with 'repro index'"


#: ``(typecode,)`` per typecode: one tuple, so a pickle writes it once and
#: refers to it after (a tuple per column would be one more object per
#: column in the unpickler's memo).
_EMPTY_COLUMN = {code: (code,) for code in typecodes}


def _column_items(column: array):
    """An ``array`` as an empty one of its typecode and then its items."""
    return array, _EMPTY_COLUMN[column.typecode], None, iter(column)


class _ColumnPickler(pickle.Pickler):
    """Pickles ``array`` columns item by item (see the module docstring)."""

    dispatch_table = {**copyreg.dispatch_table, array: _column_items}


def pack_payload(payload) -> Tuple[bytes, str]:
    """``payload`` pickled, its columns item by item as a snapshot body's
    are, and the sha256 of those bytes — how an ingest generation stores
    its columns."""
    buffer = io.BytesIO()
    _ColumnPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(payload)
    body = buffer.getvalue()
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
    stats = index.posting_stats()
    state = index.__getstate__()
    postings = state.pop("_postings")
    buffer = io.BytesIO()
    for part in (state, *postings):
        _ColumnPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(part)
    body = buffer.getbuffer()
    header = pickle.dumps({
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "stats": stats,
        "length": len(body),
        "sha256": hashlib.sha256(body).hexdigest(),
    }, protocol=pickle.HIGHEST_PROTOCOL)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(header)
        handle.write(body)
    os.replace(tmp, path)
    return len(header) + len(body)


def _chunks(handle: BinaryIO) -> Iterator[memoryview]:
    """The rest of ``handle`` in reads of :data:`CHUNK_BYTES`; each chunk
    is valid until the next one is read."""
    buffer = bytearray(CHUNK_BYTES)
    view = memoryview(buffer)
    while True:
        n = handle.readinto(buffer)
        if not n:
            return
        yield view[:n]


def sha256_rest(handle: BinaryIO) -> Tuple[str, int]:
    """The sha256 and byte count of the rest of ``handle``, read in
    :data:`CHUNK_BYTES` chunks."""
    hasher = hashlib.sha256()
    size = 0
    for chunk in _chunks(handle):
        hasher.update(chunk)
        size += len(chunk)
    return hasher.hexdigest(), size


class _HeaderUnpickler(pickle.Unpickler):
    """Parses the snapshot header — builtins only, no class lookups.

    A version-1 file embeds the index object in its header; it (and any
    hostile header) is refused here instead of being constructed.
    """

    def find_class(self, module, name):
        raise SnapshotError(
            f"snapshot header references {module}.{name}; this build reads "
            f"version {SNAPSHOT_VERSION} headers only — {_REBUILD}"
        )


class _Dropped:
    """Stands in for each column of a fragment a load drops: it is handed
    the column's items batch by batch and keeps none of them."""

    def __init__(self, typecode: str) -> None:
        pass

    def extend(self, items) -> None:
        pass


class _IndexUnpickler(pickle.Unpickler):
    """Unpickles a snapshot body: the index's own classes, nothing else —
    with every ``array`` a :class:`_Dropped` when ``drop`` is set."""

    def __init__(self, reader: "_BodyReader", drop: bool = False) -> None:
        super().__init__(reader)
        self._drop = drop

    def find_class(self, module, name):
        try:
            cls = _INDEX_CLASSES[module, name]
        except KeyError:
            raise SnapshotError(
                f"names {module}.{name}, which no index is made of"
            ) from None
        return _Dropped if self._drop and cls is array else cls


class _BodyReader:
    """The body, handed to the unpickler and hashed on the way; never
    reads past the length the header records."""

    def __init__(self, handle: BinaryIO, length: int) -> None:
        self._handle = handle
        self.remaining = length
        self.hasher = hashlib.sha256()

    def read(self, size: int = -1) -> bytes:
        if size < 0 or size > self.remaining:
            size = self.remaining
        data = self._handle.read(size)
        self.hasher.update(data)
        self.remaining -= len(data)
        return data

    def readline(self) -> bytes:
        """For text opcodes, which no body this module writes uses."""
        line = b""
        while not line.endswith(b"\n"):
            byte = self.read(1)
            if not byte:
                break
            line += byte
        return line


def _load_body(reader: _BodyReader, fragments) -> SegmentIndex:
    """The index a body holds — the fragments outside ``fragments`` (all
    kept when ``None``) read and dropped, their postings left empty — or
    a :class:`SnapshotError` predicate."""
    state = _IndexUnpickler(reader).load()
    if (not isinstance(state, dict) or state.keys() != _STATE_KEYS
            or not isinstance(state["order"], GlobalOrder)
            or not isinstance(state["partitioner"], VerticalPartitioner)):
        raise SnapshotError("carries no index payload")
    postings = []
    for v in range(state["partitioner"].n_partitions):
        drop = fragments is not None and v not in fragments
        fragment = _IndexUnpickler(reader, drop).load()
        if not isinstance(fragment, FragmentPostings):
            raise SnapshotError(f"carries no postings for fragment {v}")
        postings.append(FragmentPostings() if drop else fragment)
    index = SegmentIndex.__new__(SegmentIndex)
    index.__setstate__({**state, "_postings": postings})
    return index


def load_index(path: Union[str, Path]) -> SegmentIndex:
    """Load a snapshot, validating format, version and integrity digest."""
    path = Path(path)
    try:
        handle = path.open("rb", buffering=0)
    except FileNotFoundError:
        raise SnapshotError(f"no snapshot at {path}") from None
    with handle:
        return read_index(handle, path)


def read_index(
    handle: BinaryIO, path: Path, fragments: Optional[Collection[int]] = None
) -> SegmentIndex:
    """:func:`load_index` over ``handle``, the snapshot open for unbuffered
    binary reads at its first byte (``path`` only names it in errors) —
    for a caller that has checked the file already, as
    :func:`repro.cluster.build.load_saved_index` does against its
    manifest.  The caller closes ``handle``.

    ``fragments``, when given, are the fragments whose postings the index
    keeps; every other fragment is read, checked and dropped — what a
    repair carving one shard needs of the file."""
    try:
        header = _HeaderUnpickler(handle).load()
    except SnapshotError as exc:
        raise SnapshotError(f"{path}: {exc}") from None
    except _PICKLE_ERRORS as exc:
        raise SnapshotError(
            f"{path} is not a readable index snapshot: {exc}"
        ) from None
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{path} is not a {SNAPSHOT_FORMAT!r} snapshot")
    version = header.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version mismatch at {path}: file has {version!r}, "
            f"this build reads {SNAPSHOT_VERSION} — {_REBUILD}"
        )
    length, recorded = header.get("length"), header.get("sha256")
    if type(length) is not int or not isinstance(recorded, str):
        raise SnapshotError(
            f"snapshot at {path} carries no index payload (its header "
            f"records no body length and digest) — {_REBUILD}"
        )
    start = handle.tell()
    digest, size = sha256_rest(handle)
    if size != length:
        raise SnapshotError(
            f"snapshot at {path} is truncated or extended ({size} body "
            f"bytes, header records {length}) — {_REBUILD}"
        )
    if digest != recorded:
        raise SnapshotError(
            f"snapshot at {path} failed its integrity check (sha256 "
            f"{digest[:12]}… != recorded {recorded[:12]}…) — {_REBUILD}"
        )
    handle.seek(start)
    reader = _BodyReader(handle, length)
    try:
        index = _load_body(reader, fragments)
    except SnapshotError as exc:
        raise SnapshotError(f"snapshot at {path} {exc} — {_REBUILD}") from None
    except _PICKLE_ERRORS as exc:
        raise SnapshotError(
            f"snapshot at {path} is unreadable despite a valid digest "
            f"(written by an incompatible build, or changed while it was "
            f"read?): {exc}"
        ) from None
    if reader.remaining or handle.read(1) or reader.hasher.hexdigest() != digest:
        raise SnapshotError(
            f"snapshot at {path}: the bytes unpickled are not the bytes "
            "checked (changed while it was read?) — load it again"
        )
    return index
