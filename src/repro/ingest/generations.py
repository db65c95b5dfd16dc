"""Immutable segment generations, the order log, and the digest-checked MANIFEST.

A **generation** is a sealed :class:`~repro.service.index.SegmentIndex`
persisted to the DFS as a digest-checked payload: the pickle of its record
columns, posting columns and partitioner (cuts) — everything the index
holds *except* the shared :class:`~repro.core.ordering.GlobalOrder` —
plus a sha256 over those bytes, verified before unpickling (the digest
discipline of :mod:`repro.service.snapshot`, whose item-by-item column
pickling it shares).  The payload's cost is its records': a 64-record
flush writes the ~35 KB it owns whatever the size of the vocabulary, and
:meth:`GenerationStore.load` re-attaches the order it is handed.  A payload of another :data:`SEGMENT_VERSION` is refused:
ingest state lives on the build's own in-memory DFS and does not outlive
the build that wrote it.

The **order log** (:class:`OrderLog`) is where the tier's one shared order
is stored, once: an append-only DFS file of ``(first_id, ((token, freq),
...))`` chunks in id order, written at bootstrap and extended before each
generation payload with exactly the ids interned since the last one.  An
id *is* its position in the log, so the reader appends chunks in stored
order (:meth:`GlobalOrder.append_at`) and never re-sorts them.  An on-disk
snapshot, which must stand alone, still embeds its order; a generation
never stands alone.

The **manifest** is the commit protocol.  Each committed state of the
streaming index is a versioned, digest-checked document listing the live
generations (id, level, path, payload digest, ``order_size``), the WAL
high-water mark (``wal_applied_seq``) and the tier's cuts, fixed at
bootstrap.  A manifest of another :data:`MANIFEST_VERSION` is refused like
a payload of another segment version.  Before a commit, its order chunk
and then its generation payload are on the DFS; committing version *v* is
then a three-step protocol with a single atomic commit record:

1. write the immutable manifest file ``{root}/v-{v:08d}`` (no-clobber);
2. overwrite ``{root}/CURRENT`` with ``v`` — **the commit record**; a
   crash before this leaves the previous state, a crash after it leaves
   the new state, never a mix;
3. overwrite ``{root}/COMMITTED`` (the post-commit audit mark) and
   garbage-collect superseded manifest versions.

The chaos drill's kill-points bracket step 2: killing the ``CURRENT``
write is the *pre-commit* point (the fault hook fires before any
mutation, so the old pointer survives), killing the ``COMMITTED`` write
is the *post-commit* point (the new state is already live; only cleanup
is outstanding).  Recovery loads ``CURRENT``, digest-checks the manifest,
rebuilds the order from the log's prefix below the committed size (the
manifest's largest ``order_size``), digest-checks and loads every
referenced generation under it, and deletes orphans — segments, manifests
or order chunks written by a crashed flush/compaction that never
committed.  An order chunk beyond the commit names ids no committed column
uses, and the WAL replay re-interns the same tokens at the same ids.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.ordering import GlobalOrder
from repro.errors import IngestError, SnapshotError
from repro.mapreduce.hdfs import InMemoryDFS
from repro.service.index import SegmentIndex
from repro.service.snapshot import pack_payload, unpack_payload

CURRENT_NAME = "CURRENT"
COMMITTED_NAME = "COMMITTED"
#: Manifest versions kept on the DFS: the live one and the two before it.
KEEP_MANIFESTS = 3
#: Format tag inside each persisted generation payload.
SEGMENT_FORMAT = "repro-ingest-segment"
#: Payload layout version.  6: the index's pickled state without its order,
#: posting runs in record-length order (5 kept runs in insertion order; 4
#: was the snapshot's pickle, the whole shared order inside every one).
SEGMENT_VERSION = 6
MANIFEST_FORMAT = "repro-ingest-manifest"
#: Manifest layout version.  2: no pivot epoch or seed — the cuts are the
#: tier's for life (1 carried both for re-cuts).
MANIFEST_VERSION = 2


def manifest_digest(doc: Dict) -> str:
    """sha256 over the manifest's canonical ``repr`` serialization."""
    return hashlib.sha256(
        repr(sorted(doc.items())).encode("utf-8")
    ).hexdigest()


class OrderLog:
    """The tier's shared order on the DFS: one append-only file of
    ``(first_id, ((token, freq), ...))`` chunks, ids in stored order."""

    def __init__(self, dfs: InMemoryDFS, path: str) -> None:
        self.dfs = dfs
        self.path = path
        #: Ids ``[0, size)`` are in the log.
        self.size = 0

    def extend(self, order: GlobalOrder) -> None:
        """Append the ids ``order`` interned since the last call — one
        chunk under the file's running digest, so it costs those ids."""
        if order.vocab_size > self.size:
            self.dfs.append(self.path, [(self.size, order.entries(self.size))])
            self.size = order.vocab_size

    def load(
        self, size: int, into: Optional[GlobalOrder] = None
    ) -> GlobalOrder:
        """The order of ids ``[0, size)`` — the committed prefix — rebuilt
        chunk by chunk once the file's digest verifies; fails closed.

        Handed a live order ``into`` (a repaired tier rejoining its
        router), the prefix is checked against it rank for rank and
        ``into`` is returned: the tier must keep interning into the order
        the router encodes queries with, because a content-equal copy
        forks on the first fresh token."""
        order = GlobalOrder([])
        if self.dfs.exists(self.path):
            if not self.dfs.verify(self.path):
                raise IngestError(
                    f"order log at {self.path!r} failed its integrity "
                    "check — refusing to load"
                )
            for first_id, entries in self.dfs.read(self.path):
                if first_id < size:
                    order.append_at(first_id, entries)
        if order.vocab_size != size:
            raise IngestError(
                f"order log at {self.path!r} ends at id {order.vocab_size}, "
                f"not at the committed size {size} — refusing to load"
            )
        self.size = size
        if into is None:
            return order
        for rank in range(size):
            if rank >= into.vocab_size or into.token(rank) != order.token(rank):
                raise IngestError(
                    f"order log at {self.path!r} diverges from the live "
                    f"order at rank {rank} — refusing to recover into it"
                )
        return into

    def tail(self) -> int:
        """Chunks at or beyond :attr:`size`: what a flush that crashed
        before its commit left behind."""
        if not self.dfs.exists(self.path):
            return 0
        return sum(
            first_id >= self.size for first_id, _ in self.dfs.read(self.path)
        )

    def drop_tail(self) -> None:
        """Rewrite the file without its :meth:`tail`, so the next chunk
        starts at :attr:`size` again."""
        kept = [
            chunk for chunk in self.dfs.read(self.path)
            if chunk[0] < self.size
        ]
        self.dfs.write(self.path, kept, overwrite=True)


@dataclass
class Generation:
    """One immutable segment generation, live in memory and on the DFS."""

    gen_id: int
    level: int
    index: SegmentIndex
    path: str
    digest: str
    order_size: int

    @property
    def records(self) -> int:
        return len(self.index)

    def meta(self) -> Dict:
        """The manifest entry for this generation (plain repr-safe data)."""
        return {
            "gen": self.gen_id,
            "level": self.level,
            "path": self.path,
            "digest": self.digest,
            "records": self.records,
            "order_size": self.order_size,
        }


class GenerationStore:
    """Persist/load sealed indexes as digest-checked DFS payloads."""

    def __init__(self, dfs: InMemoryDFS, root: str) -> None:
        self.dfs = dfs
        self.root = root.rstrip("/")

    def path_of(self, gen_id: int) -> str:
        return f"{self.root}/gen-{gen_id:06d}"

    def list_segments(self) -> List[str]:
        return self.dfs.list_prefix(self.root + "/")

    def persist(self, gen_id: int, level: int, index: SegmentIndex) -> Generation:
        """Write one generation payload; returns its live handle."""
        state = index.__getstate__()
        del state["order"]
        body, digest = pack_payload(state)
        path = self.path_of(gen_id)
        meta = {
            "format": SEGMENT_FORMAT,
            "version": SEGMENT_VERSION,
            "gen": gen_id,
            "level": level,
            "records": len(index),
            "order_size": index.order.vocab_size,
        }
        self.dfs.write(
            path, [("meta", meta), ("digest", digest), ("index", body)]
        )
        return Generation(
            gen_id=gen_id, level=level, index=index, path=path,
            digest=digest, order_size=index.order.vocab_size,
        )

    def load(
        self,
        path: str,
        order: GlobalOrder,
        expected_digest: Optional[str] = None,
    ) -> Generation:
        """Read one payload back over the shared ``order``, digest-checking
        before unpickling."""
        pairs = dict(self.dfs.read(path))
        meta = pairs.get("meta")
        body = pairs.get("index")
        digest = pairs.get("digest")
        if not isinstance(meta, dict) or meta.get("format") != SEGMENT_FORMAT:
            raise IngestError(f"{path!r} is not an ingest segment payload")
        if meta.get("version") != SEGMENT_VERSION:
            raise IngestError(
                f"segment version mismatch at {path!r}: payload has "
                f"{meta.get('version')!r}, this build reads "
                f"{SEGMENT_VERSION} — ingest state does not outlive the "
                "build that wrote it; start the ingest tier afresh and "
                "re-append"
            )
        if expected_digest not in (None, digest):
            raise IngestError(
                f"segment at {path!r} failed its integrity check (manifest "
                f"records sha256 {expected_digest[:12]}…) — refusing to load"
            )
        try:
            state = unpack_payload(body, digest, dict)
        except SnapshotError as exc:
            raise IngestError(
                f"segment at {path!r} {exc} — refusing to load"
            ) from None
        index = SegmentIndex.__new__(SegmentIndex)
        index.__setstate__({"order": order, **state})
        return Generation(
            gen_id=meta["gen"], level=meta["level"], index=index,
            path=path, digest=digest, order_size=meta["order_size"],
        )

    def delete(self, path: str) -> None:
        self.dfs.delete(path)


class ManifestStore:
    """Versioned manifests plus the CURRENT commit pointer."""

    def __init__(self, dfs: InMemoryDFS, root: str) -> None:
        self.dfs = dfs
        self.root = root.rstrip("/")

    # -- paths (also the chaos drill's kill-point targets) -------------
    @property
    def current_path(self) -> str:
        return f"{self.root}/{CURRENT_NAME}"

    @property
    def committed_path(self) -> str:
        return f"{self.root}/{COMMITTED_NAME}"

    def version_path(self, version: int) -> str:
        return f"{self.root}/v-{version:08d}"

    def version_paths(self) -> List[str]:
        return self.dfs.list_prefix(self.root + "/v-")

    # -- commit protocol -----------------------------------------------
    def commit(self, doc: Dict) -> int:
        """Run the three-step commit; returns the committed version.

        ``doc`` must already carry its ``"version"``.  The ``CURRENT``
        overwrite is the single atomic commit record; everything after it
        is cleanup that recovery can redo.
        """
        version = doc["version"]
        self.dfs.write(
            self.version_path(version),
            [("manifest", doc), ("digest", manifest_digest(doc))],
        )
        # Commit record: before this write the previous state is live,
        # after it the new one is — the drill kills on both sides.
        self.dfs.write(
            self.current_path, [("version", version)], overwrite=True
        )
        self.dfs.write(
            self.committed_path, [("version", version)], overwrite=True
        )
        for path in self.version_paths():
            if path < self.version_path(version - KEEP_MANIFESTS + 1):
                self.dfs.delete(path)
        return version

    def load_current(self) -> Dict:
        """Follow CURRENT to the live manifest, digest-checking it."""
        if not self.dfs.exists(self.current_path):
            raise IngestError(
                f"no ingest state at {self.root!r} (missing CURRENT)"
            )
        pointer = dict(self.dfs.read(self.current_path))
        version = pointer.get("version")
        if not isinstance(version, int):
            raise IngestError(f"unreadable CURRENT pointer at {self.root!r}")
        return self.load_version(version)

    def load_version(self, version: int) -> Dict:
        pairs = dict(self.dfs.read(self.version_path(version)))
        doc = pairs.get("manifest")
        if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
            raise IngestError(f"manifest v{version} is not readable")
        if doc.get("manifest_version") != MANIFEST_VERSION:
            raise IngestError(
                f"manifest layout mismatch at {self.version_path(version)!r}: "
                f"manifest has {doc.get('manifest_version')!r}, this build "
                f"reads {MANIFEST_VERSION} — ingest state does not outlive "
                "the build that wrote it; start the ingest tier afresh and "
                "re-append"
            )
        if manifest_digest(doc) != pairs.get("digest"):
            raise IngestError(
                f"manifest v{version} failed its integrity check"
            )
        return doc

    def new_doc(
        self,
        version: int,
        generations: List[Generation],
        wal_applied_seq: int,
        next_gen: int,
        next_batch: int,
        cuts: Tuple[int, ...],
        pivot_method: str,
    ) -> Dict:
        return {
            "format": MANIFEST_FORMAT,
            "manifest_version": MANIFEST_VERSION,
            "version": version,
            "generations": [gen.meta() for gen in generations],
            "wal_applied_seq": wal_applied_seq,
            "next_gen": next_gen,
            "next_batch": next_batch,
            "cuts": list(cuts),
            "pivot_method": pivot_method,
        }
