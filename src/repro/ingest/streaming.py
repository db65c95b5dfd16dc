""":class:`StreamingIndex` — the façade tying WAL, memtable and generations.

The write path per accepted batch:

1. validate (duplicate or oversized rids are rejected *before* anything
   is logged — the batch is all-or-nothing across every tier);
2. append the batch to the WAL and its commit marker — the durability
   point: from here a crash replays the batch on recovery;
3. absorb it into the memtable (interning fresh tokens append-only,
   staging its postings) — the visibility point: probes read the stage;
4. when the memtable passes its size limit, **flush**: seal it into an
   immutable level-0 generation, append the ids interned since the last
   persist to the order log, persist the payload, and commit a new
   manifest whose ``wal_applied_seq`` covers the flushed batches;
5. when a level over-fills (or pivot skew drifts), **compact**.

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
:class:`~repro.service.service.SimilarityService` and the cluster layer
serve it unchanged.

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
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.ordering import GlobalOrder
from repro.core.partitioning import VerticalPartitioner
from repro.core.pivots import PivotMethod, select_pivots
from repro.data.records import Record, RecordCollection
from repro.errors import ConfigError, DataError, IngestError
from repro.ingest.compaction import (
    LeveledPolicy,
    merge_generations,
    pivot_drift,
)
from repro.ingest.generations import (
    Generation,
    GenerationStore,
    ManifestStore,
    OrderLog,
)
from repro.ingest.memtable import Memtable
from repro.ingest.wal import ReplayResult, WriteAheadLog
from repro.mapreduce.counters import Counters
from repro.mapreduce.executors import create_executor
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
    """Streaming-index knobs (all deterministic; no wall-clock triggers).

    Attributes:
        memtable_limit: Records the memtable absorbs before an automatic
            flush (when ``auto_flush``).
        wal_segment_entries: WAL entries per segment file before rolling.
        fanout: Leveled-compaction fanout: a level with this many
            generations is merged one level up.
        auto_flush: Flush automatically when the memtable fills.
        auto_compact: Run ``maybe_compact`` after each automatic flush.
        skew_threshold: Fragment term-frequency-mass CV beyond which a
            major compaction re-derives the pivots.
        executor: Backend for compaction's record gathering
            (``serial`` | ``thread`` | ``process``).
        keep_manifests: Superseded manifest versions retained for
            post-mortems before GC.
    """

    memtable_limit: int = 64
    wal_segment_entries: int = 256
    fanout: int = 4
    auto_flush: bool = True
    auto_compact: bool = True
    skew_threshold: float = 0.35
    executor: str = "serial"
    keep_manifests: int = 3

    def __post_init__(self) -> None:
        if self.memtable_limit < 1:
            raise ConfigError("memtable_limit must be >= 1")
        if self.fanout < 2:
            raise ConfigError("fanout must be >= 2")
        if self.skew_threshold < 0:
            raise ConfigError("skew_threshold must be >= 0")


class StreamingIndex:
    """Durable, probe-consistent streaming writes under the serving stack."""

    def __init__(
        self,
        dfs: InMemoryDFS,
        root: str,
        order: GlobalOrder,
        partitioner: VerticalPartitioner,
        pivot_method: PivotMethod,
        pivot_seed: int,
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
        self.pivot_seed = pivot_seed
        self.config = config
        self.tracer = tracer
        self.counters = counters
        self.wal = WriteAheadLog(
            dfs, f"{self.root}/wal", config.wal_segment_entries
        )
        self.segments = GenerationStore(dfs, f"{self.root}/segments")
        self.order_log = OrderLog(dfs, f"{self.root}/order")
        self.manifests = ManifestStore(
            dfs, f"{self.root}/manifest", keep=config.keep_manifests
        )
        self.policy = LeveledPolicy(config.fanout)
        self.generations: List[Generation] = []
        self.pivot_epoch = 0
        self.manifest_version = 0
        self._next_gen = 0
        self._wal_applied_seq = -1
        self._flushes = 0
        self._compactions = 0
        self.memtable = Memtable(order, partitioner, self.pivot_method)

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
        over them (the offline ordering job picks the order and pivots);
        without, generation 0 is empty and the order grows entirely from
        ingested batches.  Either way the bootstrap generation is
        persisted immediately — the order to its log, then the payload —
        and manifest v1 committed, so recovery always has a state to start
        from.
        """
        if records is not None and len(records):
            base = SegmentIndex.build(
                records, n_vertical=n_vertical, pivot_method=pivot_method,
                pivot_seed=pivot_seed, cluster=cluster or SimulatedCluster(),
            )
            order, partitioner = base.order, base.partitioner
        else:
            order = GlobalOrder([])
            partitioner = VerticalPartitioner(
                select_pivots(
                    order.rank_frequencies, n_vertical,
                    method=pivot_method, seed=pivot_seed,
                )
            )
            base = SegmentIndex(order, partitioner, pivot_method)
            base._seal()
        return cls._bootstrap(
            dfs, root, base, pivot_method, pivot_seed, config, tracer,
            counters,
        )

    @classmethod
    def attach(
        cls,
        dfs: InMemoryDFS,
        root: str,
        order: GlobalOrder,
        partitioner: VerticalPartitioner,
        pivot_method: PivotMethod = PivotMethod.EVEN_TF,
        pivot_seed: int = 0,
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
        return cls._bootstrap(
            dfs, root, base, pivot_method, pivot_seed, config, tracer,
            counters,
        )

    @classmethod
    def _bootstrap(
        cls, dfs, root, base, pivot_method, pivot_seed, config, tracer,
        counters,
    ) -> "StreamingIndex":
        self = cls(
            dfs, root, base.order, base.partitioner, pivot_method,
            pivot_seed, config or IngestConfig(),
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
        manifests = ManifestStore(
            dfs, f"{root}/manifest", keep=config.keep_manifests
        )
        doc = manifests.load_current()
        if not doc["generations"]:
            raise IngestError(f"manifest at {root!r} lists no generations")
        # The committed order: every live column's ids lie below the
        # largest order_size a committed generation recorded.
        order_log = OrderLog(dfs, f"{root}/order")
        order = order_log.load(
            max(meta["order_size"] for meta in doc["generations"]), order
        )
        partitioner = VerticalPartitioner(tuple(doc["cuts"]))
        self = cls(
            dfs, root, order, partitioner, PivotMethod(doc["pivot_method"]),
            doc.get("pivot_seed", 0), config, tracer, counters,
        )
        self.order_log = order_log
        self.generations = [
            self.segments.load(meta["path"], order, meta["digest"])
            for meta in doc["generations"]
        ]
        self.manifest_version = doc["version"]
        self._next_gen = doc["next_gen"]
        self._wal_applied_seq = doc["wal_applied_seq"]
        self.pivot_epoch = doc["pivot_epoch"]
        self.memtable = Memtable(order, partitioner, self.pivot_method)
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
        if self.config.auto_flush and len(self.memtable) >= self.config.memtable_limit:
            self.flush()
            if self.config.auto_compact:
                self.maybe_compact()
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
            gen = self._persist(0, self.memtable.seal())
            self.generations.append(gen)
            self.memtable = Memtable(
                self.order, self.partitioner, self.pivot_method
            )
            self._wal_applied_seq = applied_seq
            self._commit_manifest()
            self.wal.truncate_through(applied_seq)
            span.attrs["gen"] = gen.gen_id
        self._flushes += 1
        self.counters.increment("ingest", "flushes")
        return gen

    def maybe_compact(self) -> Optional[Generation]:
        """Run the policy's next merge — or a pivot-re-deriving major one."""
        fresh_cuts = pivot_drift(
            self.order, self.partitioner.cuts, self.pivot_method,
            self.pivot_seed, self.config.skew_threshold,
        )
        if fresh_cuts is not None:
            return self.compact(major=True, cuts=fresh_cuts)
        if self.policy.plan(self.generations) is None:
            return None
        return self.compact()

    def compact(
        self,
        major: bool = False,
        cuts: Optional[Tuple[int, ...]] = None,
    ) -> Optional[Generation]:
        """Merge generations per the leveled policy (or all, when major).

        A major compaction first flushes the memtable, then rebuilds one
        top-level generation — under freshly derived pivots when ``cuts``
        is given, bumping the pivot epoch.  The merged payload is
        persisted (behind any ids the order log lacks) *before* the
        manifest commit record flips to it, and
        obsolete segments are deleted only after — the two chaos
        kill-points (:meth:`kill_points`) bracket exactly that commit.
        """
        if major:
            self.flush()
            inputs = list(self.generations)
            if len(inputs) < 2 and cuts is None:
                return None
            level = max((gen.level for gen in inputs), default=0) + 1
        else:
            plan = self.policy.plan(self.generations)
            if plan is None:
                return None
            chosen = set(plan.gen_ids)
            inputs = [g for g in self.generations if g.gen_id in chosen]
            level = plan.output_level
        if not inputs:
            return None
        partitioner = self.partitioner
        epoch = self.pivot_epoch
        if cuts is not None:
            partitioner = VerticalPartitioner(tuple(cuts))
            epoch += 1
        executor = create_executor(self.config.executor)
        with self.tracer.span(
            "compaction", phase="ingest", inputs=len(inputs), level=level,
            major=major, pivot_epoch=epoch,
        ) as span:
            merged = merge_generations(
                inputs, self.order, partitioner, self.pivot_method,
                executor,
            )
            gen = self._persist(level, merged)
            merged_ids = {i.gen_id for i in inputs}
            survivors = [
                g for g in self.generations if g.gen_id not in merged_ids
            ]
            self.generations = survivors + [gen]
            if cuts is not None:
                self.partitioner = partitioner
                self.pivot_epoch = epoch
                self.memtable = Memtable(
                    self.order, partitioner, self.pivot_method
                )
            self._commit_manifest()
            # Post-commit cleanup: the old payloads are now unreferenced.
            for old in inputs:
                self.segments.delete(old.path)
            span.attrs["gen"] = gen.gen_id
            span.attrs["records"] = gen.records
        self._compactions += 1
        self.counters.increment("ingest", "compactions")
        if cuts is not None:
            self.counters.increment("ingest", "pivot_rederivations")
        return gen

    def _commit_manifest(self) -> None:
        self.manifest_version += 1
        doc = self.manifests.new_doc(
            self.manifest_version, self.generations, self._wal_applied_seq,
            self._next_gen, self.wal.next_batch, self.partitioner.cuts,
            self.pivot_epoch, self.pivot_method.value, self.pivot_seed,
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
            tiers.append(self.memtable.index)
        return tiers

    def __len__(self) -> int:
        return len(self.memtable) + sum(g.records for g in self.generations)

    def __contains__(self, rid: int) -> bool:
        if rid in self.memtable:
            return True
        return any(rid in gen.index for gen in self.generations)

    def rids(self) -> List[int]:
        merged: List[int] = []
        for tier in self._tiers():
            merged.extend(tier.rids())
        merged.sort()
        return merged

    def tokens_of(self, rid: int) -> Tuple[str, ...]:
        for tier in self._tiers():
            if rid in tier:
                return tier.tokens_of(rid)
        raise DataError(f"no record with id {rid} in the index")

    @property
    def n_fragments(self) -> int:
        return self.partitioner.n_partitions

    def fragment_loads(self) -> List[int]:
        """Posting load per fragment, summed over current-epoch tiers.

        Generations from older pivot epochs partition differently and are
        excluded; the number tracks how well the *current* cuts fit.
        """
        loads = [0] * self.n_fragments
        cuts = tuple(self.partitioner.cuts)
        for tier in self._tiers():
            if tuple(tier.partitioner.cuts) != cuts:
                continue
            for v, load in enumerate(tier.fragment_loads()):
                loads[v] += load
        return loads

    def posting_stats(self) -> Dict[str, int]:
        totals = {
            "records": 0, "postings": 0,
            "posting_bytes": 0, "record_bytes": 0,
        }
        for tier in self._tiers():
            stats = tier.posting_stats()
            for key in totals:
                totals[key] += stats[key]
        totals["fragments"] = self.n_fragments
        totals["vocab"] = self.order.vocab_size
        return totals

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

        Built by handing every record's id column, ascending rid, to the
        standard insert path under the current order and partitioner —
        the same construction compaction uses, so after a full compaction
        the lone generation is structurally identical (equal pickle bytes)
        to this.  Used for snapshot export and the chaos drill's identity
        check.
        """
        union = SegmentIndex(self.order, self.partitioner, self.pivot_method)
        columns = [
            column for tier in self._tiers() for column in tier._ranks.items()
        ]
        union._insert_columns(sorted(columns, key=itemgetter(0)))
        union._seal()
        return union

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
            "pivot_epoch": self.pivot_epoch,
            "flushes": self._flushes,
            "compactions": self._compactions,
            "vocab": self.order.vocab_size,
            "fragments": self.n_fragments,
        }
