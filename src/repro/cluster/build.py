"""Cluster control plane: build, persist and restore a serving cluster.

:func:`build_cluster` carves a full :class:`~repro.service.index.SegmentIndex`
(or builds one from a corpus) into per-shard slices along a bin-packed
:class:`~repro.cluster.plan.ShardPlan` and wires up K replicas per shard
behind a :class:`~repro.cluster.router.ClusterRouter`.

A saved cluster is that index and that plan: :func:`save_cluster` writes
``index.idx``, an ordinary :func:`~repro.service.snapshot.save_index`
snapshot of the index the cluster serves (``repro search`` reads it), and
``manifest.json`` — plan, replication and the sha256 of ``index.idx``,
which binds the pair (per-fragment content digests compare *live*
replicas; a loaded cluster recomputes them, a saved one stores none).
:func:`load_cluster` is *read manifest → load index → the assembly
``build_cluster`` runs*, along the saved plan.

There is no file per shard because fragment sharding partitions *posting
lists*, not records: a slice references the whole id column of every
record posting into a fragment it owns (replication rate 7.8 at 8
shards), and pickling each slice turned every shared reference into a
copy — 51 MB on disk and eight private copies once loaded, for an index
that pickles to 9.8 MB (``docs/architecture.md`` §5 has the anatomy).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Collection, Dict, Optional, Tuple, Union

from repro.core.pivots import PivotMethod
from repro.data.records import RecordCollection
from repro.errors import ClusterError, ConfigError
from repro.service.index import SegmentIndex
from repro.service.snapshot import read_index, save_index, sha256_rest

from repro.cluster.node import ShardNode, ShardSlice
from repro.cluster.plan import ShardPlan, plan_shards
from repro.cluster.router import ClusterRouter

INDEX_NAME = "index.idx"
MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "repro-cluster"
#: v4: format, version, replication, plan, sha256 — of the snapshot.
MANIFEST_VERSION = 4


def build_cluster(
    source: Union[RecordCollection, SegmentIndex],
    n_shards: int = 4,
    replication: int = 1,
    n_vertical: int = 30,
    pivot_method: PivotMethod = PivotMethod.EVEN_TF,
    pivot_seed: int = 0,
    independent_replicas: bool = False,
    **router_options,
) -> ClusterRouter:
    """Shard an index (or a corpus) into a routed, replicated cluster.

    Passing a prebuilt :class:`SegmentIndex` guarantees the cluster
    answers bit-identically to :meth:`SegmentIndex.probe` over that index —
    same ordering, same pivots, same fragments, just placed.

    ``independent_replicas=True`` gives every replica beyond the first
    its own deep copy of the shard slice (``ShardSlice.clone``) instead
    of sharing one object — the faithful model for failure drills, where
    corrupting one replica must not corrupt its peers and the scrubber's
    cross-replica digest comparison is meaningful.

    ``router_options`` (``tracer``, ``hedge``, ``clock``, …) are
    :class:`ClusterRouter`'s, declared there.

    A passed index stays the caller's, who may stage records into it:
    its posting columns are copied here, once per fragment, and the
    slices take the copies (:meth:`ShardSlice.carve` copies nothing).
    The record id columns are shared — immutable once inserted.
    """
    if isinstance(source, SegmentIndex):
        source._seal()
        index = SegmentIndex(source.order, source.partitioner, source.pivot_method)
        index._postings = [postings.copy() for postings in source._postings]
        index._ranks = source._ranks
    else:
        index = SegmentIndex.build(
            source, n_vertical=n_vertical, pivot_method=pivot_method,
            pivot_seed=pivot_seed,
        )
    plan = plan_shards(index.fragment_loads(), n_shards)
    return _assemble(index, plan, replication, independent_replicas, router_options)


def _assemble(
    index: SegmentIndex,
    plan: ShardPlan,
    replication: int,
    independent_replicas: bool,
    router_options: Dict,
) -> ClusterRouter:
    """Carve ``index`` along ``plan`` and wire ``replication`` replicas per
    shard — what building and loading a cluster both are."""
    if replication < 1:
        raise ConfigError("replication must be >= 1")
    groups = []
    for shard in range(plan.n_shards):
        slice_ = ShardSlice.carve(index, plan.fragments_of(shard))
        groups.append([
            ShardNode(shard, r,
                      slice_.clone() if r and independent_replicas else slice_)
            for r in range(replication)
        ])
    return ClusterRouter(
        index.order, index.partitioner, plan, groups, **router_options
    )


def _served_index(router: ClusterRouter) -> SegmentIndex:
    """The index ``router`` serves, reassembled from its shards without
    copying: each fragment's posting columns from the shard that owns it
    under the current plan, each record's id column once."""
    slices = [router.replica(s, 0).slice for s in range(router.n_shards)]
    index = SegmentIndex(router.order, router.partitioner, slices[0].pivot_method)
    for slice_ in slices:
        for v in slice_.owned_fragments:
            index._postings[v] = slice_._postings[v]
        index._ranks.update(slice_._ranks)
    return index


def save_cluster(router: ClusterRouter, directory: Union[str, Path]) -> int:
    """Persist a cluster as ``index.idx`` + ``manifest.json``; returns
    total bytes written.  Each file is replaced atomically, the manifest —
    which names the snapshot's sha256 — last, so a crash in between
    leaves a pair :func:`load_cluster` refuses."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index = _served_index(router)
    index_path = directory / INDEX_NAME
    total = save_index(index, index_path)
    with index_path.open("rb", buffering=0) as handle:
        digest, _size = sha256_rest(handle)
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "replication": router.replication,
        "plan": router.plan.as_dict(),
        "sha256": digest,
    }
    manifest_path = directory / MANIFEST_NAME
    tmp = manifest_path.with_name(MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    tmp.replace(manifest_path)
    return total + manifest_path.stat().st_size


def read_manifest(directory: Union[str, Path]) -> Dict:
    """A cluster directory's manifest with ``plan`` as a :class:`ShardPlan`,
    ``replication`` an int and ``sha256`` a string — or, the file being
    outside input, a typed :class:`ClusterError`."""
    path = Path(directory) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ClusterError(f"no cluster manifest at {path}") from None
    except (OSError, ValueError) as exc:
        raise ClusterError(f"unreadable cluster manifest at {path}: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise ClusterError(f"{path} is not a {MANIFEST_FORMAT} manifest")
    if manifest.get("version") != MANIFEST_VERSION:
        raise ClusterError(
            f"cluster manifest version mismatch at {path}: file has "
            f"{manifest.get('version')!r}, this build reads "
            f"{MANIFEST_VERSION} — rebuild the cluster with "
            "'repro cluster build'"
        )
    try:
        manifest["plan"] = ShardPlan.from_dict(manifest["plan"])
        manifest["replication"] = int(manifest["replication"])
        manifest["sha256"] = str(manifest["sha256"])
    except (AttributeError, KeyError, TypeError, ValueError, ConfigError) as exc:
        raise ClusterError(f"malformed cluster manifest at {path}: {exc!r}") from None
    return manifest


def load_saved_index(
    directory: Union[str, Path], fragments: Optional[Collection[int]] = None
) -> Tuple[Dict, SegmentIndex]:
    """A cluster directory's checked manifest and its ``index.idx`` —
    provided the snapshot is the file the manifest was written beside and
    the saved plan places exactly its fragments.  ``fragments`` are
    :func:`~repro.service.snapshot.read_index`'s: the postings kept."""
    manifest = read_manifest(directory)
    path = Path(directory) / INDEX_NAME
    try:
        handle = path.open("rb", buffering=0)
    except FileNotFoundError:
        raise ClusterError(f"no cluster snapshot at {path}") from None
    # One open file, hashed here in chunks and then read by read_index,
    # whose own passes refuse it if it is rewritten in place meanwhile.
    with handle:
        actual, _size = sha256_rest(handle)
        if actual != manifest["sha256"]:
            raise ClusterError(
                f"{path} (sha256 {actual[:12]}…) and its manifest (records "
                f"{manifest['sha256'][:12]}…) come from different saves, or "
                "the snapshot is damaged — rebuild with 'repro cluster build'"
            )
        handle.seek(0)
        index = read_index(handle, path, fragments)
    placed = sorted(manifest["plan"].assignment)
    if placed != list(range(index.n_fragments)):
        raise ClusterError(
            f"the manifest's plan places fragments {placed} but {path} has "
            f"fragments 0..{index.n_fragments - 1}"
        )
    return manifest, index


def load_cluster(
    directory: Union[str, Path],
    replication: Optional[int] = None,
    independent_replicas: bool = False,
    **router_options,
) -> ClusterRouter:
    """Restore a cluster directory written by :func:`save_cluster`.

    ``replication`` overrides the saved factor (e.g. for a failover
    drill); the other options are :func:`build_cluster`'s.
    """
    manifest, index = load_saved_index(directory)
    if replication is None:
        replication = manifest["replication"]
    return _assemble(
        index, manifest["plan"], replication, independent_replicas, router_options
    )
