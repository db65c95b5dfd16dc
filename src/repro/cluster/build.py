"""Cluster control plane: build, persist and restore a serving cluster.

:func:`build_cluster` carves a full :class:`~repro.service.index.SegmentIndex`
(or builds one from a corpus) into per-shard slices along a bin-packed
:class:`~repro.cluster.plan.ShardPlan` and wires up K replicas per shard
behind a :class:`~repro.cluster.router.ClusterRouter`.

:func:`save_cluster` writes one directory:

* ``manifest.json`` — cluster format/version, the plan, the replication
  factor and the per-shard snapshot file names;
* ``shard-NNN.idx`` — one versioned snapshot per shard, written with
  :func:`repro.service.snapshot.save_index` (so every shard file carries
  the sha256 integrity digest and fails closed on corruption).

:func:`load_cluster` restores the directory into a router: each shard
snapshot is loaded once and shared by that shard's replicas (the simulated
form of "every replica restores the same snapshot").
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Optional, Union

from repro.core.pivots import PivotMethod
from repro.data.records import RecordCollection
from repro.errors import ClusterError, ConfigError
from repro.observability.tracer import Tracer
from repro.service.index import SegmentIndex
from repro.service.snapshot import load_index, save_index

from repro.cluster.failover import BreakerConfig, HedgeConfig, RetryPolicy
from repro.cluster.node import ShardNode, ShardSlice
from repro.cluster.plan import ShardPlan, plan_shards
from repro.cluster.router import ClusterRouter

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "repro-cluster"
MANIFEST_VERSION = 1


def build_cluster(
    source: Union[RecordCollection, SegmentIndex],
    n_shards: int = 4,
    replication: int = 1,
    n_vertical: int = 30,
    pivot_method: PivotMethod = PivotMethod.EVEN_TF,
    pivot_seed: int = 0,
    max_in_flight: int = 64,
    queue_timeout: float = 0.25,
    tracer: Optional[Tracer] = None,
    retry: Optional[RetryPolicy] = None,
    breaker: Optional[BreakerConfig] = None,
    hedge: Optional[HedgeConfig] = None,
    clock=time.monotonic,
    sleep=time.sleep,
    independent_replicas: bool = False,
) -> ClusterRouter:
    """Shard an index (or a corpus) into a routed, replicated cluster.

    Passing a prebuilt :class:`SegmentIndex` guarantees the cluster
    answers bit-identically to a single-node service over that index —
    same ordering, same pivots, same fragments, just placed.

    ``independent_replicas=True`` gives every replica beyond the first
    its own deep copy of the shard slice (``ShardSlice.clone``) instead
    of sharing one object — the faithful model for failure drills, where
    corrupting one replica must not corrupt its peers and the scrubber's
    cross-replica digest comparison is meaningful.
    """
    if replication < 1:
        raise ConfigError("replication must be >= 1")
    if isinstance(source, SegmentIndex):
        index = source
    else:
        index = SegmentIndex.build(
            source, n_vertical=n_vertical, pivot_method=pivot_method,
            pivot_seed=pivot_seed,
        )
    plan = plan_shards(index.fragment_loads(), n_shards)
    groups = []
    for shard in range(plan.n_shards):
        slice_ = ShardSlice.carve(index, plan.fragments_of(shard))
        nodes = [ShardNode(shard, 0, slice_)]
        for r in range(1, replication):
            replica_slice = slice_.clone() if independent_replicas else slice_
            nodes.append(ShardNode(shard, r, replica_slice))
        groups.append(nodes)
    return ClusterRouter(
        order=index.order,
        partitioner=index.partitioner,
        plan=plan,
        groups=groups,
        max_in_flight=max_in_flight,
        queue_timeout=queue_timeout,
        tracer=tracer,
        retry=retry,
        breaker=breaker,
        hedge=hedge,
        clock=clock,
        sleep=sleep,
    )


def save_cluster(router: ClusterRouter, directory: Union[str, Path]) -> int:
    """Persist a cluster as per-shard snapshots plus a manifest.

    Returns total bytes written.  Replicas of a shard serve identical
    data, so one snapshot per shard suffices; each snapshot carries its
    own integrity digest.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    shards = []
    total = 0
    for shard in range(router.n_shards):
        slice_ = router.replica(shard, 0).slice
        filename = f"shard-{shard:03d}.idx"
        total += save_index(slice_, directory / filename)
        shards.append({
            "shard": shard,
            "file": filename,
            "fragments": sorted(slice_.owned_fragments),
            "records": len(slice_),
            # Per-fragment content digests: what the anti-entropy
            # scrubber and a snapshot-based rebuild check against.
            "digests": {str(v): d
                        for v, d in slice_.content_digests().items()},
        })
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "replication": router.replication,
        "plan": router.plan.as_dict(),
        "index_epoch": router.index_epoch,
        "shards": shards,
    }
    manifest_path = directory / MANIFEST_NAME
    tmp = manifest_path.with_name(MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    tmp.replace(manifest_path)
    total += manifest_path.stat().st_size
    return total


def load_cluster(
    directory: Union[str, Path],
    replication: Optional[int] = None,
    max_in_flight: int = 64,
    queue_timeout: float = 0.25,
    tracer: Optional[Tracer] = None,
    retry: Optional[RetryPolicy] = None,
    breaker: Optional[BreakerConfig] = None,
    hedge: Optional[HedgeConfig] = None,
    clock=time.monotonic,
    sleep=time.sleep,
    independent_replicas: bool = False,
) -> ClusterRouter:
    """Restore a cluster directory written by :func:`save_cluster`.

    ``replication`` overrides the saved factor (e.g. restore a snapshot
    set at higher replication for a failover drill).
    ``independent_replicas`` deep-copies the loaded slice for every
    replica beyond the first — see :func:`build_cluster`.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ClusterError(f"no cluster manifest at {manifest_path}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise ClusterError(
            f"unreadable cluster manifest at {manifest_path}: {exc}"
        ) from None
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ClusterError(f"{manifest_path} is not a {MANIFEST_FORMAT} manifest")
    if manifest.get("version") != MANIFEST_VERSION:
        raise ClusterError(
            f"cluster manifest version mismatch at {manifest_path}: file has "
            f"{manifest.get('version')!r}, this build reads {MANIFEST_VERSION}"
        )
    plan = ShardPlan.from_dict(manifest["plan"])
    if replication is None:
        replication = int(manifest.get("replication", 1))
    if replication < 1:
        raise ConfigError("replication must be >= 1")
    order = None
    partitioner = None
    groups = []
    for entry in sorted(manifest["shards"], key=lambda e: e["shard"]):
        slice_ = load_index(directory / entry["file"])
        if not isinstance(slice_, ShardSlice):
            raise ClusterError(
                f"{entry['file']} is a plain index snapshot, not a shard "
                "slice; rebuild the cluster with 'repro cluster build'"
            )
        if set(slice_.owned_fragments) != set(
                plan.fragments_of(entry["shard"])):
            raise ClusterError(
                f"{entry['file']} owns fragments "
                f"{sorted(slice_.owned_fragments)} but the manifest assigns "
                f"{list(plan.fragments_of(entry['shard']))} — manifest and "
                "snapshots disagree"
            )
        order = order or slice_.order
        partitioner = partitioner or slice_.partitioner
        nodes = [ShardNode(entry["shard"], 0, slice_)]
        for r in range(1, replication):
            replica_slice = slice_.clone() if independent_replicas else slice_
            nodes.append(ShardNode(entry["shard"], r, replica_slice))
        groups.append(nodes)
    if len(groups) != plan.n_shards:
        raise ClusterError(
            f"manifest lists {len(groups)} shard snapshots, plan expects "
            f"{plan.n_shards}"
        )
    return ClusterRouter(
        order=order,
        partitioner=partitioner,
        plan=plan,
        groups=groups,
        max_in_flight=max_in_flight,
        queue_timeout=queue_timeout,
        tracer=tracer,
        retry=retry,
        breaker=breaker,
        hedge=hedge,
        clock=clock,
        sleep=sleep,
    )
