""":class:`StreamingIndex` — the façade tying WAL, memtable and generations.

The write path per accepted batch:

1. validate (duplicate or oversized rids are rejected *before* anything
   is logged — the batch is all-or-nothing across every tier);
2. append the batch to the WAL and its commit marker — the durability
   point: from here a crash replays the batch on recovery;
3. absorb it into the memtable — a plain
   :class:`~repro.service.index.SegmentIndex` over the shared order and
   cuts, interning fresh tokens append-only and staging its postings —
   the visibility point: probes read the stage;
4. when the memtable reaches ``memtable_limit``, **flush**: seal it in
   place into an immutable level-0 generation, append the ids interned
   since the last persist to the order log, persist the payload, and
   commit a new manifest whose ``wal_applied_seq`` covers the flushed
   batches;
5. when a level holds ``fanout`` generations, **compact** it one level up.

The cuts are fixed at bootstrap — the build's for
:meth:`StreamingIndex.create`, the router's for
:meth:`StreamingIndex.attach` — and nothing moves them
(:mod:`repro.ingest.compaction` says why nothing needs to).

Steps 1–3 cost the batch — O(batch × tiers) lookups, O(batch) logged
entries under a running segment digest, O(batch) staged postings.  A
flush costs its memtable: the payload holds the sealed columns and the
order chunk the tokens those records brought, while the shared order is
stored once, in the log (:class:`~repro.ingest.generations.OrderLog`),
not inside every generation.  Only 5 is proportional to state, and it is
amortized by design.

The read path merges tiers: a probe runs against the memtable and every
generation with one shared :class:`~repro.service.index.EncodedQuery`
and concatenates the hits — record ids are disjoint across tiers and
every record is evaluated independently, so results are bit-identical
to a single ``SegmentIndex`` over the union (property-tested in
``tests/test_ingest_memtable.py``).  The façade duck-types the index API
(``probe``/``probe_batch``/``encode_query``/``apply_batch``/...), so
the cluster layer serves it unchanged as its ingest tier.

Recovery (:meth:`StreamingIndex.recover`) follows CURRENT to the live
manifest, rebuilds the order from the log's committed prefix,
digest-checks and loads every referenced generation under it, deletes
orphans from crashed commits (segments, manifests, order chunks beyond
the commit), and only then replays the WAL tail beyond
``wal_applied_seq`` into a fresh memtable, which re-interns the dropped
ids as they were — each step traced as a ``phase="recovery"`` span so the
chaos drill can count it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.ordering import GlobalOrder
from repro.core.partitioning import VerticalPartitioner
from repro.core.pivots import PivotMethod
from repro.data.records import Record, RecordCollection
from repro.errors import ConfigError, DataError, IngestError
from repro.ingest.compaction import merge_tiers, plan_compaction
from repro.ingest.generations import (
    Generation,
    GenerationStore,
    ManifestStore,
    OrderLog,
)
from repro.ingest.wal import ReplayResult, WriteAheadLog
from repro.mapreduce.counters import Counters
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.runtime import SimulatedCluster
from repro.observability.tracer import NOOP_TRACER, Tracer
from repro.service.index import (
    EncodedQuery,
    SearchHit,
    SegmentIndex,
    merge_hits,
)
from repro.service.vocab import TokenVocab
from repro.similarity.functions import SimilarityFunction


@dataclass(frozen=True)
class IngestConfig:
    """Streaming-index knobs (both deterministic; no wall-clock triggers).

    Attributes:
        memtable_limit: Records the memtable absorbs before it is flushed.
            A limit larger than the stream never flushes on its own.
        fanout: Leveled-compaction fanout: after a flush, the lowest level
            holding this many generations is merged one level up.  A
            fanout larger than the flush count never compacts on its own.
    """

    memtable_limit: int = 64
    fanout: int = 4

    def __post_init__(self) -> None:
        if self.memtable_limit < 1:
            raise ConfigError("memtable_limit must be >= 1")
        if self.fanout < 2:
            raise ConfigError("fanout must be >= 2")


class StreamingIndex:
    """Durable, probe-consistent streaming writes under the serving stack."""

    def __init__(
        self,
        dfs: InMemoryDFS,
        root: str,
        order: GlobalOrder,
        partitioner: VerticalPartitioner,
        pivot_method: PivotMethod,
        config: IngestConfig,
        tracer: Tracer,
        counters: Counters,
    ) -> None:
        self.dfs = dfs
        self.root = root.rstrip("/")
        self.order = order
        self.vocab = TokenVocab(order)
        self.partitioner = partitioner
        self.pivot_method = PivotMethod(pivot_method)
        self.config = config
        self.tracer = tracer
        self.counters = counters
        self.wal = WriteAheadLog(dfs, f"{self.root}/wal")
        self.segments = GenerationStore(dfs, f"{self.root}/segments")
        self.order_log = OrderLog(dfs, f"{self.root}/order")
        self.manifests = ManifestStore(dfs, f"{self.root}/manifest")
        self.generations: List[Generation] = []
        self.manifest_version = 0
        self._next_gen = 0
        self._wal_applied_seq = -1
        self._flushes = 0
        self._compactions = 0
        self.memtable = self._empty_memtable()

    def _empty_memtable(self) -> SegmentIndex:
        """The mutable tier: a plain index over the shared order and cuts,
        sealed in place when it is flushed."""
        return SegmentIndex(self.order, self.partitioner, self.pivot_method)

    # -- construction ---------------------------------------------------
    @classmethod
    def create(
        cls,
        dfs: InMemoryDFS,
        root: str = "ingest",
        records: Optional[RecordCollection] = None,
        n_vertical: int = 30,
        pivot_method: PivotMethod = PivotMethod.EVEN_TF,
        pivot_seed: int = 0,
        config: Optional[IngestConfig] = None,
        tracer: Optional[Tracer] = None,
        counters: Optional[Counters] = None,
        cluster: Optional[SimulatedCluster] = None,
    ) -> "StreamingIndex":
        """Bootstrap a fresh streaming index at ``root``.

        With ``records``, generation 0 is a regular ``SegmentIndex.build``
        over them (the offline ordering job picks the order and pivots,
        and those cuts are the tier's for life); without, generation 0 is
        empty, the order grows entirely from ingested batches, and the
        tier is one fragment.  Either way the bootstrap generation is
        persisted immediately — the order to its log, then the payload —
        and manifest v1 committed, so recovery always has a state to start
        from.
        """
        if n_vertical < 1:
            # Checked here, not only by the build: an empty bootstrap
            # never reads it, and would take any value.
            raise ConfigError(f"n_vertical must be >= 1, got {n_vertical}")
        if records is not None and len(records):
            base = SegmentIndex.build(
                records, n_vertical=n_vertical, pivot_method=pivot_method,
                pivot_seed=pivot_seed, cluster=cluster or SimulatedCluster(),
            )
        else:
            base = SegmentIndex(
                GlobalOrder([]), VerticalPartitioner(()), pivot_method
            )
            base._seal()
        return cls._bootstrap(dfs, root, base, config, tracer, counters)

    @classmethod
    def attach(
        cls,
        dfs: InMemoryDFS,
        root: str,
        order: GlobalOrder,
        partitioner: VerticalPartitioner,
        pivot_method: PivotMethod = PivotMethod.EVEN_TF,
        config: Optional[IngestConfig] = None,
        tracer: Optional[Tracer] = None,
        counters: Optional[Counters] = None,
    ) -> "StreamingIndex":
        """Bootstrap an *empty* streaming tier sharing an existing order.

        This is how a cluster router grows a write tier: the router's
        order and partitioner are shared (not copied), so queries encode
        identically across the base shards and the ingest tier.
        """
        base = SegmentIndex(order, partitioner, pivot_method)
        base._seal()
        return cls._bootstrap(dfs, root, base, config, tracer, counters)

    @classmethod
    def _bootstrap(
        cls, dfs, root, base, config, tracer, counters
    ) -> "StreamingIndex":
        self = cls(
            dfs, root, base.order, base.partitioner, base.pivot_method,
            config or IngestConfig(),
            tracer if tracer is not None else NOOP_TRACER,
            counters if counters is not None else Counters(),
        )
        self.generations.append(self._persist(0, base))
        self._commit_manifest()
        return self

    def _persist(self, level: int, index: SegmentIndex) -> Generation:
        """Write ``index`` as the next generation — after the ids interned
        since the last persist, so a payload on the DFS never uses an id
        the order log lacks."""
        self.order_log.extend(self.order)
        gen = self.segments.persist(self._next_gen, level, index)
        self._next_gen += 1
        return gen

    @classmethod
    def recover(
        cls,
        dfs: InMemoryDFS,
        root: str = "ingest",
        config: Optional[IngestConfig] = None,
        tracer: Optional[Tracer] = None,
        counters: Optional[Counters] = None,
        order: Optional[GlobalOrder] = None,
    ) -> "StreamingIndex":
        """Restart from the DFS: manifest → order log → generations →
        WAL replay.

        With ``order`` (a tier that shares its router's), recovery
        rebuilds into that order after checking the log's committed
        prefix against it rank for rank (:meth:`OrderLog.load`), so the
        next fresh token interns once, for both.

        Every step that undoes crash damage is recorded as a
        ``phase="recovery"`` span with an ``action`` attribute
        (``manifest-rollback``, ``segment-gc``, ``wal-replay``), the
        schema ``tools/check_trace.py`` validates.
        """
        tracer = tracer if tracer is not None else NOOP_TRACER
        counters = counters if counters is not None else Counters()
        config = config or IngestConfig()
        root = root.rstrip("/")
        doc = ManifestStore(dfs, f"{root}/manifest").load_current()
        if not doc["generations"]:
            raise IngestError(f"manifest at {root!r} lists no generations")
        # The committed order: every live column's ids lie below the
        # largest order_size a committed generation recorded.
        order_log = OrderLog(dfs, f"{root}/order")
        order = order_log.load(
            max(meta["order_size"] for meta in doc["generations"]), order
        )
        self = cls(
            dfs, root, order, VerticalPartitioner(tuple(doc["cuts"])),
            PivotMethod(doc["pivot_method"]), config, tracer, counters,
        )
        self.order_log = order_log
        self.generations = [
            self.segments.load(meta["path"], order, meta["digest"])
            for meta in doc["generations"]
        ]
        self.manifest_version = doc["version"]
        self._next_gen = doc["next_gen"]
        self._wal_applied_seq = doc["wal_applied_seq"]
        self._gc_orphans(doc)
        self._replay_wal()
        # Batch ids never go backwards, even when the replayed WAL tail
        # was truncated below what the manifest had already handed out.
        self.wal._next_batch = max(self.wal._next_batch, doc["next_batch"])
        return self

    def _gc_orphans(self, doc: Dict) -> None:
        """Delete the segments, manifests and order chunks a crashed commit
        left behind."""
        live = {meta["path"] for meta in doc["generations"]}
        orphans = [
            path for path in self.segments.list_segments()
            if path not in live
        ]
        stale = [
            path for path in self.manifests.version_paths()
            if path > self.manifests.version_path(doc["version"])
        ]
        tail = self.order_log.tail()
        if not orphans and not stale and not tail:
            return
        with self.tracer.span(
            "ingest-gc", phase="recovery", action="segment-gc",
            orphan_segments=len(orphans), orphan_manifests=len(stale),
            orphan_order_chunks=tail,
        ):
            if tail:
                # Ids no committed column uses; the WAL replay re-interns
                # their tokens, and the next chunk must start at the commit.
                self.order_log.drop_tail()
            for path in orphans:
                self.segments.delete(path)
            for path in stale:
                # An uncommitted higher manifest version: roll it back so
                # a redone flush/compaction can claim the version number.
                self.dfs.delete(path)
        self.counters.increment("ingest", "gc_orphans",
                                len(orphans) + len(stale) + tail)

    def _replay_wal(self) -> ReplayResult:
        result = self.wal.replay(after_seq=self._wal_applied_seq)
        with self.tracer.span(
            "wal-replay", phase="recovery", action="wal-replay",
            batches=len(result.batches),
            records=result.committed_records(),
            torn_entries=result.torn_entries,
            truncated_entries=result.truncated_entries,
        ):
            for batch in result.batches:
                self.memtable.apply_batch(batch.records)
        self.counters.increment(
            "ingest", "replayed_batches", len(result.batches)
        )
        self.counters.increment(
            "ingest", "replayed_records", result.committed_records()
        )
        if result.torn_entries or result.truncated_entries:
            self.counters.increment(
                "ingest", "torn_entries",
                result.torn_entries + result.truncated_entries,
            )
        return result

    # -- the write path -------------------------------------------------
    def apply_batch(self, new_records: Iterable[Record]) -> int:
        """Log, absorb, and maybe flush/compact one batch; returns its size.

        All-or-nothing: duplicate rids (against *any* tier or within the
        batch) and oversized rids raise :class:`DataError` before the WAL
        is touched, so a rejected batch leaves no trace.
        """
        batch = list(new_records)
        if not batch:
            return 0
        seen: set = set()
        for record in batch:
            if record.rid in self or record.rid in seen:
                raise DataError(f"record id {record.rid} already indexed")
            if record.rid.bit_length() >= 63:
                raise DataError(
                    f"record id {record.rid} does not fit the index's "
                    "64-bit posting columns"
                )
            seen.add(record.rid)
        with self.tracer.span(
            "wal-append", phase="ingest", records=len(batch)
        ) as span:
            batch_id, _ = self.wal.append_batch(batch)
            span.attrs["batch_id"] = batch_id
        with self.tracer.span(
            "memtable-apply", phase="ingest", records=len(batch)
        ):
            self.memtable.apply_batch(batch)
        self.counters.increment("ingest", "batches")
        self.counters.increment("ingest", "records", len(batch))
        if len(self.memtable) >= self.config.memtable_limit:
            self.flush()
            self.compact()
        return len(batch)

    def flush(self) -> Optional[Generation]:
        """Seal the memtable into a level-0 generation and commit it.

        No-op on an empty memtable.  The commit's ``wal_applied_seq``
        advances to the last logged entry, after which the covered WAL
        segments are garbage-collected — a crash anywhere in between
        replays from the last commit and converges to the same state.
        """
        if not len(self.memtable):
            return None
        applied_seq = self.wal.last_seq
        with self.tracer.span(
            "flush", phase="ingest", records=len(self.memtable)
        ) as span:
            # The one time the staged postings become flat columns: the
            # memtable is sealed in place and *is* the new generation.
            self.memtable._seal()
            gen = self._persist(0, self.memtable)
            self.generations.append(gen)
            self.memtable = self._empty_memtable()
            self._wal_applied_seq = applied_seq
            self._commit_manifest()
            self.wal.truncate_through(applied_seq)
            span.attrs["gen"] = gen.gen_id
        self._flushes += 1
        self.counters.increment("ingest", "flushes")
        return gen

    def compact(self, major: bool = False) -> Optional[Generation]:
        """Merge the lowest level holding ``fanout`` generations one level
        up (:func:`~repro.ingest.compaction.plan_compaction`), or — when
        ``major`` — flush the memtable and merge every generation into one.

        No-op when there is nothing to merge.  The merged payload is
        persisted (behind any ids the order log lacks) *before* the
        manifest commit record flips to it, and obsolete segments are
        deleted only after — the two chaos kill-points
        (:meth:`kill_points`) bracket exactly that commit.
        """
        if major:
            self.flush()
            inputs = list(self.generations)
            if len(inputs) < 2:
                return None
            level = max(gen.level for gen in inputs) + 1
        else:
            inputs = plan_compaction(self.generations, self.config.fanout)
            if inputs is None:
                return None
            level = inputs[0].level + 1
        with self.tracer.span(
            "compaction", phase="ingest", inputs=len(inputs), level=level,
            major=major,
        ) as span:
            gen = self._persist(level, merge_tiers([g.index for g in inputs]))
            merged_ids = {g.gen_id for g in inputs}
            survivors = [
                g for g in self.generations if g.gen_id not in merged_ids
            ]
            self.generations = survivors + [gen]
            self._commit_manifest()
            # Post-commit cleanup: the old payloads are now unreferenced.
            for old in inputs:
                self.segments.delete(old.path)
            span.attrs["gen"] = gen.gen_id
            span.attrs["records"] = gen.records
        self._compactions += 1
        self.counters.increment("ingest", "compactions")
        return gen

    def _commit_manifest(self) -> None:
        self.manifest_version += 1
        doc = self.manifests.new_doc(
            self.manifest_version, self.generations, self._wal_applied_seq,
            self._next_gen, self.wal.next_batch, self.partitioner.cuts,
            self.pivot_method.value,
        )
        self.manifests.commit(doc)

    def kill_points(self) -> Dict[str, Tuple[str, str]]:
        """The chaos drill's ``(op, path)`` targets around the commit record."""
        return {
            "pre-commit": ("write", self.manifests.current_path),
            "post-commit": ("write", self.manifests.committed_path),
            "wal-tear": ("append", self.wal.current_path),
        }

    # -- the read path (SegmentIndex duck type) ---------------------------
    def _tiers(self) -> List[SegmentIndex]:
        tiers = [gen.index for gen in self.generations]
        if len(self.memtable):
            tiers.append(self.memtable)
        return tiers

    def __len__(self) -> int:
        return len(self.memtable) + sum(g.records for g in self.generations)

    def __contains__(self, rid: int) -> bool:
        return any(rid in tier for tier in self._tiers())

    def rids(self) -> List[int]:
        """Every live record id, ascending.  ``ClusterRouter.rids`` must
        count a router's ingested records too (``repro serve --ingest``)."""
        merged: List[int] = []
        for tier in self._tiers():
            merged.extend(tier.rids())
        merged.sort()
        return merged

    def tokens_of(self, rid: int) -> Tuple[str, ...]:
        """A live record's tokens.  ``ClusterRouter.tokens_of`` (the
        ``--rid`` probe) must find records that reached the cluster
        through the ingest tier too (``repro serve --ingest``)."""
        for tier in self._tiers():
            if rid in tier:
                return tier.tokens_of(rid)
        raise DataError(f"no record with id {rid} in the index")

    @property
    def n_fragments(self) -> int:
        return self.partitioner.n_partitions

    def encode_query(self, tokens: Iterable[str]) -> EncodedQuery:
        ids, unknown = self.vocab.encode_known(tokens)
        return EncodedQuery(tuple(ids), unknown)

    def probe(
        self,
        tokens: Iterable[str],
        theta: float,
        func: SimilarityFunction = SimilarityFunction.JACCARD,
        counters: Optional[Counters] = None,
        tracer: Optional[Tracer] = None,
    ) -> List[SearchHit]:
        """A batch of one through :meth:`probe_batch`."""
        return self.probe_batch(
            [self.encode_query(tokens)], theta, func, counters, tracer
        )[0]

    def probe_batch(
        self,
        queries: Sequence[EncodedQuery],
        theta: float,
        func: SimilarityFunction = SimilarityFunction.JACCARD,
        counters: Optional[Counters] = None,
        tracer: Optional[Tracer] = None,
    ) -> List[List[SearchHit]]:
        """Merged exact probe: each tier's batched scan over one shared
        encoding, merged per query.  (There is always a tier: the bootstrap
        generation, so θ/func never go unchecked.)"""
        per_tier = [
            tier.probe_batch(queries, theta, func, counters, tracer)
            for tier in self._tiers()
        ]
        return [merge_hits(answers) for answers in zip(*per_tier)]

    # -- materialization & status ----------------------------------------
    def to_segment_index(self) -> SegmentIndex:
        """A fresh single ``SegmentIndex`` over the union of all tiers.

        Compaction's own merge (:func:`~repro.ingest.compaction.merge_tiers`)
        over every tier, so after a major compaction the lone generation
        is structurally identical (equal pickle bytes) to this.  Used for
        snapshot export and the chaos drill's identity check.
        """
        return merge_tiers(self._tiers())

    def status(self) -> Dict:
        """Machine-readable ingest state for ``repro cluster status`` & CLI."""
        return {
            "records": len(self),
            "memtable": {
                "records": len(self.memtable),
                "limit": self.config.memtable_limit,
            },
            "generations": [
                {"gen": g.gen_id, "level": g.level, "records": g.records}
                for g in self.generations
            ],
            "wal": self.wal.stats(),
            "manifest_version": self.manifest_version,
            "flushes": self._flushes,
            "compactions": self._compactions,
            "vocab": self.order.vocab_size,
            "fragments": self.n_fragments,
        }
