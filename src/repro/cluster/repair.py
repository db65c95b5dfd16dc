"""Replica re-hydration: peer clone or snapshot, then verified readmission.

The :class:`~repro.cluster.health.ControlPlane` decides *that* a replica
needs rebuilding; :class:`RepairManager` is the *how*.  The contract, in
order:

1. **Fence first.**  The replica is fenced before anything is touched,
   so a half-rebuilt slice can never answer a probe — fencing fails
   ``ping()`` and makes every probe raise, and only verified readmission
   (step 4) unfences.

2. **Pick a source.**  Preferred: a healthy peer of the same shard whose
   per-fragment content digests match the shard baseline — its slice is
   deep-cloned (:meth:`~repro.cluster.node.ShardSlice.clone`, the same
   bytes a snapshot restore would produce).  Fallback: the shard carved
   out of a :func:`~repro.cluster.build.save_cluster` directory's index
   along the *live* plan — a full index does not depend on placement, so
   a directory saved before a rebalance still repairs — failing closed on
   a bad manifest, an unbound pair, a damaged snapshot or a baseline
   mismatch.  No source → a typed :class:`~repro.errors.ClusterError`,
   replica stays fenced.

3. **Catch up under a pin.**  An ingest-tier rebuild replays the WAL
   past the manifest's applied sequence
   (:meth:`~repro.ingest.streaming.StreamingIndex.recover`); the live
   log is **pinned** (:meth:`~repro.ingest.wal.WriteAheadLog.pin`) for
   the duration so a flush committing mid-rebuild cannot garbage-collect
   the very segments the catch-up is reading — released on readmission
   *or* abort.

4. **Verified readmission.**  The rebuilt replica rejoins rotation only
   through :meth:`~repro.cluster.router.ClusterRouter.readmit_replica`:
   digests plus seeded probes compared bit-for-bit against a healthy
   peer.  Divergence re-fences and raises; success force-closes the
   replica's circuit breaker.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

from repro.errors import ClusterError
from repro.service.index import differing_fragments

from repro.cluster.build import load_saved_index
from repro.cluster.node import ShardSlice
from repro.cluster.router import ClusterRouter


class RepairManager:
    """Re-hydrate dead or quarantined replicas and readmit them verified."""

    def __init__(
        self,
        router: ClusterRouter,
        snapshot_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.router = router
        self.snapshot_dir = snapshot_dir

    # -- shard replicas --------------------------------------------------
    def rebuild_replica(
        self,
        shard: int,
        replica: int,
        baseline: Optional[Dict[int, str]] = None,
        probes: int = 4,
    ) -> str:
        """Fence → source → adopt → restore → verified readmission.

        Returns a one-line detail of what happened; raises
        :class:`ClusterError` (replica left fenced) when no trustworthy
        source exists or the readmission verification fails.
        """
        node = self.router.replica(shard, replica)
        node.fence()
        source, how = self._source_slice(shard, replica, baseline)
        node.adopt_slice(source)
        node.restore()
        verdict = self.router.readmit_replica(shard, replica, probes=probes)
        return f"rebuilt from {how}; {verdict['detail']}"

    def _source_slice(
        self,
        shard: int,
        replica: int,
        baseline: Optional[Dict[int, str]],
    ):
        """The freshest trustworthy copy of the shard's data, cloned."""
        for rep in range(self.router.replication):
            if rep == replica:
                continue
            peer = self.router.replica(shard, rep)
            if not peer.ping():
                continue
            if baseline is not None:
                if peer.slice.content_digests() != baseline:
                    continue
            return peer.slice.clone(), f"peer {peer.name}"
        if self.snapshot_dir is None:
            raise ClusterError(
                f"no rebuild source for shard {shard}: no healthy baseline "
                "peer and no snapshot directory configured"
            )
        return self._snapshot_slice(shard, baseline), "snapshot"

    def _snapshot_slice(
        self, shard: int, baseline: Optional[Dict[int, str]]
    ) -> ShardSlice:
        """Carve ``shard`` from the saved cluster: the rebuild source when
        no live peer is left, which ``repro serve --heal`` points at the
        served directory for."""
        fragments = self.router.plan.fragments_of(shard)
        # Only the shard's posting lists are kept from the file: every
        # other fragment is dropped as soon as it is read.  ``index`` was
        # unpickled for this call and is dropped after it, so the slice
        # takes its columns, posting and id alike, as they are: nothing
        # live shares them and nothing is copied.
        _manifest, index = load_saved_index(self.snapshot_dir, fragments)
        slice_ = ShardSlice.carve(index, fragments)
        if baseline is not None:
            bad = differing_fragments(slice_.content_digests(), baseline)
            if bad:
                raise ClusterError(
                    f"snapshot for shard {shard} diverges from the cluster "
                    f"baseline on fragments {bad} — stale or damaged snapshot"
                )
        return slice_

    # -- the ingest tier -------------------------------------------------
    def rebuild_ingest(self) -> str:
        """Recover the streaming tier from its own DFS, WAL pinned: the
        repair ``repro serve --heal --ingest`` runs for a dead ingest node.

        The failed :class:`~repro.cluster.node.IngestNode` keeps its DFS
        root (manifest + segments + WAL) — only the in-memory tier died.
        We fence the node, pin the live WAL so concurrent flush GC cannot
        reclaim the catch-up segments, run
        :meth:`~repro.ingest.streaming.StreamingIndex.recover` against
        the same DFS *into the router's order* (which fails closed unless
        the order log is a rank-for-rank prefix of it), then swap the
        recovered tier in and unfence.  The pin is released on success
        *and* failure.
        """
        from repro.ingest.streaming import StreamingIndex

        ingest = self.router.ingest
        if ingest is None:
            raise ClusterError("no ingest tier attached; nothing to rebuild")
        streaming = ingest.streaming
        ingest.fence()
        pin_id = streaming.wal.pin(streaming._wal_applied_seq)
        try:
            recovered = StreamingIndex.recover(
                streaming.dfs,
                streaming.root,
                config=streaming.config,
                tracer=streaming.tracer,
                counters=streaming.counters,
                order=self.router.order,
            )
            ingest.adopt_slice(recovered)
            ingest.restore()
            ingest.unfence()
            return (
                f"recovered {len(recovered)} records, "
                f"manifest v{recovered.manifest_version}"
            )
        except ClusterError:
            raise
        except Exception as exc:
            raise ClusterError(f"ingest recovery failed: {exc}") from exc
        finally:
            streaming.wal.release(pin_id)
