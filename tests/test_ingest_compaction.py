"""Generations, manifest commit protocol, leveled compaction."""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.chaos import ChaosConfig, FaultInjector, FaultSchedule
from repro.core.ordering import GlobalOrder
from repro.core.partitioning import VerticalPartitioner
from repro.data.records import Record, RecordCollection
from repro.errors import DFSError, IngestError
from repro.ingest import (
    GenerationStore,
    IngestConfig,
    ManifestStore,
    StreamingIndex,
    merge_tiers,
    plan_compaction,
)
from repro.ingest.generations import KEEP_MANIFESTS
from repro.mapreduce.executors import create_executor
from repro.mapreduce.hdfs import InMemoryDFS
from repro.service import SegmentIndex
from tests.conftest import random_collection


@pytest.fixture(scope="module")
def corpus():
    return random_collection(60, seed=23)


def _sealed_index(records, order=None, partitioner=None):
    """A tier over a shared layout: apply_batch interns fresh tokens."""
    if order is None:
        return SegmentIndex.build(RecordCollection(records), n_vertical=4)
    index = SegmentIndex(order, partitioner)
    index.apply_batch(sorted(records, key=lambda r: r.rid))
    index._seal()
    return index


class TestGenerationStore:
    def test_persist_load_roundtrip(self, corpus):
        store = GenerationStore(InMemoryDFS(), "segments")
        gen = store.persist(0, 0, _sealed_index(list(corpus)))
        loaded = store.load(gen.path, gen.index.order, gen.digest)
        assert loaded.gen_id == 0 and loaded.level == 0
        assert loaded.records == len(corpus)
        assert loaded.index.order is gen.index.order
        assert pickle.dumps(loaded.index) == pickle.dumps(gen.index)

    def test_corrupt_payload_fails_closed(self, corpus):
        dfs = InMemoryDFS()
        store = GenerationStore(dfs, "segments")
        gen = store.persist(0, 0, _sealed_index(list(corpus)))
        pairs = dfs.read(gen.path)
        flipped = [
            (k, v[:-4] + b"ruin" if k == "index" else v) for k, v in pairs
        ]
        dfs.write(gen.path, flipped, overwrite=True)
        with pytest.raises(IngestError):
            store.load(gen.path, gen.index.order, gen.digest)

    def test_manifest_digest_mismatch_fails_closed(self, corpus):
        """A stale manifest digest (segment rewritten under it) is caught."""
        store = GenerationStore(InMemoryDFS(), "segments")
        gen = store.persist(0, 0, _sealed_index(list(corpus)))
        store.persist(1, 0, _sealed_index(list(corpus)[:10]))
        other = store.load(store.path_of(1), gen.index.order)
        with pytest.raises(IngestError):
            store.load(gen.path, gen.index.order, other.digest)

    def test_foreign_payload_rejected(self):
        dfs = InMemoryDFS()
        dfs.write("segments/gen-000000", [("k", "v")])
        with pytest.raises(IngestError):
            GenerationStore(dfs, "segments").load(
                "segments/gen-000000", GlobalOrder([])
            )

    def test_parent_v3_payload_is_refused_by_version(self, corpus):
        """A generation written by the build that stored a position column
        (payload version 3) is refused from its meta alone — one typed
        line with both versions and what to do — never unpickled."""
        dfs = InMemoryDFS()
        store = GenerationStore(dfs, "segments")
        gen = store.persist(0, 0, _sealed_index(list(corpus)))
        pairs = [
            (k, {**v, "version": 3} if k == "meta" else v)
            for k, v in dfs.read(gen.path)
        ]
        dfs.write(gen.path, pairs, overwrite=True)
        with pytest.raises(IngestError) as caught:
            store.load(gen.path, gen.index.order, gen.digest)
        message = str(caught.value)
        assert "\n" not in message
        assert "payload has 3" in message and "reads 6" in message
        assert "does not outlive the build that wrote it" in message


    def test_parent_v4_payload_with_its_order_inside_is_refused(
        self, corpus, monkeypatch
    ):
        """The parent's shape — the whole index pickled, shared order and
        all, under version 4 — is refused by its meta, never unpickled."""
        from repro.ingest import generations

        index = _sealed_index(list(corpus))
        body = pickle.dumps(index)
        dfs = InMemoryDFS()
        dfs.write("segments/gen-000000", [
            ("meta", {"format": generations.SEGMENT_FORMAT, "version": 4,
                      "gen": 0, "level": 0, "records": len(index),
                      "order_size": index.order.vocab_size}),
            ("digest", hashlib.sha256(body).hexdigest()),
            ("index", body),
        ])
        monkeypatch.setattr(
            generations, "unpack_payload",
            lambda *args: pytest.fail("a refused payload was unpickled"),
        )
        with pytest.raises(IngestError) as caught:
            GenerationStore(dfs, "segments").load(
                "segments/gen-000000", index.order
            )
        message = str(caught.value)
        assert "\n" not in message
        assert "payload has 4" in message and "reads 6" in message
        assert "does not outlive the build that wrote it" in message

    def test_parent_v5_payload_in_insertion_order_is_refused(
        self, corpus, monkeypatch
    ):
        """The parent's payload — this build's columns, but posting runs in
        insertion order, which the probe's length window would read as
        missing answers — is refused by its meta, never unpickled."""
        from repro.ingest import generations

        dfs = InMemoryDFS()
        store = GenerationStore(dfs, "segments")
        gen = store.persist(0, 0, _sealed_index(list(corpus)))
        pairs = [
            (k, {**v, "version": 5} if k == "meta" else v)
            for k, v in dfs.read(gen.path)
        ]
        dfs.write(gen.path, pairs, overwrite=True)
        monkeypatch.setattr(
            generations, "unpack_payload",
            lambda *args: pytest.fail("a refused payload was unpickled"),
        )
        with pytest.raises(IngestError) as caught:
            store.load(gen.path, gen.index.order, gen.digest)
        message = str(caught.value)
        assert "\n" not in message
        assert "payload has 5" in message and "reads 6" in message
        assert "does not outlive the build that wrote it" in message

    def test_payload_size_does_not_depend_on_the_shared_order(self):
        """The same 64-record memtable over a 1 000-token and a 20 000-token
        shared order: the payload is the memtable's, byte for byte."""
        records = [
            Record.make(rid, [f"a{(rid * 7 + k * 13) % 1000:05d}"
                              for k in range(12)])
            for rid in range(64)
        ]
        small = [(f"a{i:05d}", 1) for i in range(1000)]
        large = small + [(f"b{i:05d}", 1) for i in range(19000)]
        dfs = InMemoryDFS()
        store = GenerationStore(dfs, "segments")
        partitioner = VerticalPartitioner((250, 500, 750))
        gens = []
        for gen_id, frequencies in enumerate((small, large)):
            memtable = SegmentIndex(GlobalOrder(frequencies), partitioner)
            memtable.apply_batch(records)
            memtable._seal()
            gens.append(store.persist(gen_id, 0, memtable))
        assert [gen.order_size for gen in gens] == [1000, 20000]
        bodies = [dict(dfs.read(gen.path))["index"] for gen in gens]
        assert bodies[0] == bodies[1]
        assert abs(dfs.size_bytes(gens[0].path)
                   - dfs.size_bytes(gens[1].path)) <= 8

class TestManifestStore:
    def _doc(self, store, version, **overrides):
        doc = store.new_doc(
            version=version, generations=[], wal_applied_seq=-1,
            next_gen=1, next_batch=0, cuts=(3, 7), pivot_method="even_tf",
        )
        doc.update(overrides)
        return doc

    def test_commit_then_load_current(self):
        store = ManifestStore(InMemoryDFS(), "manifest")
        store.commit(self._doc(store, 1))
        store.commit(self._doc(store, 2, next_gen=2))
        doc = store.load_current()
        assert doc["version"] == 2
        assert doc["next_gen"] == 2
        assert doc["cuts"] == [3, 7]

    def test_old_versions_garbage_collected(self):
        store = ManifestStore(InMemoryDFS(), "manifest")
        for version in range(1, 6):
            store.commit(self._doc(store, version))
        kept = store.version_paths()
        assert kept == [store.version_path(v)
                        for v in range(6 - KEEP_MANIFESTS, 6)]

    def test_tampered_manifest_fails_closed(self):
        dfs = InMemoryDFS()
        store = ManifestStore(dfs, "manifest")
        store.commit(self._doc(store, 1))
        pairs = dict(dfs.read(store.version_path(1)))
        pairs["manifest"]["next_gen"] = 999
        dfs.write(store.version_path(1), list(pairs.items()), overwrite=True)
        with pytest.raises(IngestError):
            store.load_current()

    def test_missing_current_is_typed(self):
        with pytest.raises(IngestError):
            ManifestStore(InMemoryDFS(), "manifest").load_current()

    def test_parent_v1_manifest_is_refused_by_version(self):
        """A manifest written by the build that re-derived cuts (layout 1,
        with a pivot epoch and seed) is refused with one typed line naming
        both versions — even though its digest verifies."""
        store = ManifestStore(InMemoryDFS(), "manifest")
        store.commit(self._doc(store, 1, manifest_version=1, pivot_epoch=0,
                               pivot_seed=0))
        with pytest.raises(IngestError) as caught:
            store.load_current()
        message = str(caught.value)
        assert "\n" not in message
        assert "manifest has 1" in message and "reads 2" in message
        assert "does not outlive the build that wrote it" in message


class TestLeveledPolicy:
    def _gen(self, gen_id, level):
        index = SegmentIndex.build(
            RecordCollection([Record.make(gen_id, ["a", "b"])]), n_vertical=1
        )
        return GenerationStore(InMemoryDFS(), "s").persist(
            gen_id, level, index
        )

    def test_no_plan_when_in_shape(self):
        gens = [self._gen(i, 0) for i in range(2)]
        assert plan_compaction(gens, fanout=3) is None

    def test_plans_lowest_overfull_level_first(self):
        gens = [self._gen(0, 1), self._gen(1, 1),
                self._gen(2, 0), self._gen(3, 0)]
        assert plan_compaction(gens, fanout=2) == gens[2:]


class TestMerge:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_merge_is_structurally_identical_to_fresh_build(
        self, corpus, executor
    ):
        """The acceptance property: merged generations pickle to exactly
        the bytes of one index built from the union of their records —
        also when two merges of the same tiers run at once on worker
        threads (the merge only reads its inputs)."""
        records = list(corpus)
        base = _sealed_index(records[:30])
        order, partitioner = base.order, base.partitioner
        store = GenerationStore(InMemoryDFS(), "segments")
        gens = [
            store.persist(0, 0, base),
            store.persist(
                1, 0, _sealed_index(records[30:45], order, partitioner)
            ),
            store.persist(
                2, 0, _sealed_index(records[45:], order, partitioner)
            ),
        ]
        tiers = [gen.index for gen in gens]
        merged, again = create_executor(executor).run_tasks(
            merge_tiers, [tiers, tiers]
        )
        assert pickle.dumps(again) == pickle.dumps(merged)
        # All tokens are interned by now, so the fresh build takes the
        # same ascending-rid insert path the merge does.
        fresh = SegmentIndex(order, partitioner)
        fresh._insert_columns([fresh._encode(record) for record in
                               sorted(records, key=lambda r: r.rid)])
        fresh._seal()
        assert pickle.dumps(merged) == pickle.dumps(fresh)


class TestCompactionKillPoints:
    """The manifest commit protocol under the chaos drill's kill-points."""

    def _streaming(self, corpus, dfs):
        return StreamingIndex.create(
            dfs, records=RecordCollection(list(corpus)[:30]), n_vertical=4,
            config=IngestConfig(memtable_limit=8, fanout=1_000),
        )

    def _kill_at(self, corpus, point):
        injector = FaultInjector(FaultSchedule(0, ChaosConfig()))
        dfs = injector.attach_dfs(InMemoryDFS())
        streaming = self._streaming(corpus, dfs)
        batches = [list(corpus)[30:40], list(corpus)[40:55]]
        streaming.apply_batch(batches[0])
        streaming.flush()
        streaming.apply_batch(batches[1])
        injector.schedule_kill(*streaming.kill_points()[point])
        # The three level-0 generations merge into one at level 1.
        with pytest.raises(DFSError):
            streaming.compact(major=True)
        return dfs, injector

    @pytest.mark.parametrize("point", ["pre-commit", "post-commit"])
    def test_kill_then_recover_is_exact(self, corpus, point):
        dfs, _ = self._kill_at(corpus, point)
        recovered = StreamingIndex.recover(dfs)
        assert sorted(recovered.rids()) == sorted(
            r.rid for r in list(corpus)[:55]
        )
        oracle = SegmentIndex.build(
            RecordCollection(list(corpus)[:55]), n_vertical=4
        )
        for record in list(corpus)[:55:5]:
            assert recovered.probe(record.tokens, 0.5) == oracle.probe(
                record.tokens, 0.5
            )

    def test_pre_commit_kill_rolls_back_and_gcs_orphans(self, corpus):
        dfs, _ = self._kill_at(corpus, "pre-commit")
        manifests = ManifestStore(dfs, "ingest/manifest")
        version_before = manifests.load_current()["version"]
        orphan_versions = [
            p for p in manifests.version_paths()
            if p > manifests.version_path(version_before)
        ]
        assert orphan_versions  # the uncommitted manifest is on disk...
        recovered = StreamingIndex.recover(dfs)
        assert [
            p for p in manifests.version_paths()
            if p > manifests.version_path(version_before)
        ] == []  # ...until recovery deletes it
        # The WAL still covers the unflushed batches: nothing was lost.
        assert len(recovered) == 55

    def test_post_commit_kill_adopts_the_new_manifest(self, corpus):
        dfs, _ = self._kill_at(corpus, "post-commit")
        manifests = ManifestStore(dfs, "ingest/manifest")
        current = dict(dfs.read(manifests.current_path))["version"]
        committed = dict(dfs.read(manifests.committed_path))["version"]
        assert current > committed  # the audit mark lags the commit record
        recovered = StreamingIndex.recover(dfs)
        assert len(recovered) == 55
        assert recovered.manifest_version >= current
