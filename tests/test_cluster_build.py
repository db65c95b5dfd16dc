"""Cluster persistence tests: build, manifest round-trip, failure modes."""

from __future__ import annotations

import hashlib
import json
import pickle

import pytest

from repro.cluster import build_cluster, load_cluster, save_cluster
from repro.cluster.build import (
    INDEX_NAME,
    MANIFEST_NAME,
    MANIFEST_VERSION,
    read_manifest,
)
from repro.errors import ClusterError, ConfigError, SnapshotError
from repro.service.index import SegmentIndex
from repro.service.snapshot import load_index
from tests.conftest import brute_force_search, random_collection


#: Manifests that are valid JSON of the right format and version but the
#: wrong shape — outside input ``load_cluster`` must refuse, typed.
MALFORMED_MANIFESTS = [
    ["repro-cluster", MANIFEST_VERSION],
    {"format": "repro-cluster", "version": MANIFEST_VERSION},
    {"format": "repro-cluster", "version": MANIFEST_VERSION, "replication": 1,
     "sha256": "", "plan": ["not", "a", "plan"]},
    {"format": "repro-cluster", "version": MANIFEST_VERSION, "replication": 1,
     "sha256": "", "plan": {"n_shards": 1, "assignment": {"0": 7}}},
    {"format": "repro-cluster", "version": MANIFEST_VERSION, "replication": "two",
     "sha256": "", "plan": {"n_shards": 1, "assignment": {"0": 0}}},
    {"format": "repro-cluster", "version": MANIFEST_VERSION, "replication": 1,
     "plan": {"n_shards": 1, "assignment": {"0": 0}}},
]


@pytest.fixture(scope="module")
def corpus():
    return random_collection(80, vocab=50, max_len=15, seed=77)


@pytest.fixture(scope="module")
def index(corpus):
    return SegmentIndex.build(corpus, n_vertical=6)


@pytest.fixture
def saved(index, tmp_path):
    router = build_cluster(index, n_shards=3, replication=2)
    save_cluster(router, tmp_path / "cluster")
    return router, tmp_path / "cluster"


class TestBuild:
    def test_from_corpus_or_index_equivalent(self, corpus, index):
        from_corpus = build_cluster(corpus, n_shards=3, n_vertical=6)
        from_index = build_cluster(index, n_shards=3)
        for record in corpus[:20]:
            assert from_corpus.search(record.tokens, 0.5) == \
                from_index.search(record.tokens, 0.5)

    def test_replicas_share_the_slice(self, index):
        router = build_cluster(index, n_shards=2, replication=3)
        for shard in range(2):
            slices = {id(router.replica(shard, r).slice) for r in range(3)}
            assert len(slices) == 1

    def test_every_record_lands_somewhere(self, index, corpus):
        router = build_cluster(index, n_shards=3)
        assert router.rids() == [record.rid for record in corpus]


class TestSaveLoad:
    def test_roundtrip_is_bit_identical(self, saved, index, corpus):
        router, directory = saved
        restored = load_cluster(directory)
        assert restored.n_shards == router.n_shards
        assert restored.replication == router.replication
        assert restored.plan == router.plan
        for record in corpus:
            for theta in (0.5, 0.8):
                assert restored.search(record.tokens, theta) == \
                    index.probe(record.tokens, theta) == \
                    brute_force_search(corpus, record.tokens, theta)

    def test_manifest_contents(self, saved):
        """A saved cluster is two files — one index snapshot and a manifest
        holding the plan and that snapshot's sha256, five keys in all
        (format v4; v3 had the same keys over a snapshot whose runs were
        in insertion order, v2 also stored an index epoch and per-fragment
        content digests nothing read, v1 one ``shard-NNN.idx`` file,
        fragment set and record count per shard)."""
        router, directory = saved
        assert sorted(p.name for p in directory.iterdir()) == [
            INDEX_NAME, MANIFEST_NAME,
        ]
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        assert manifest["format"] == "repro-cluster"
        assert manifest["version"] == MANIFEST_VERSION == 4
        assert manifest["replication"] == 2
        assert set(manifest) == {
            "format", "version", "replication", "plan", "sha256"
        }
        assert manifest["sha256"] == hashlib.sha256(
            (directory / INDEX_NAME).read_bytes()
        ).hexdigest()
        assert read_manifest(directory)["plan"] == router.plan

    def test_replication_override(self, saved):
        _, directory = saved
        restored = load_cluster(directory, replication=4)
        assert restored.replication == 4
        restored.replica(0, 3).fail()
        assert restored.search(restored.tokens_of(0), 0.5)
        with pytest.raises(ConfigError):
            load_cluster(directory, replication=0)

    def test_save_after_rebalance_roundtrips(self, index, corpus, tmp_path):
        router = build_cluster(index, n_shards=3)
        donor = max(range(3),
                    key=lambda s: len(router.plan.fragments_of(s)))
        with router._lock:
            for fragment in router.plan.assignment:
                router._heat[fragment] = 1
            for fragment in router.plan.fragments_of(donor):
                router._heat[fragment] = 50
        assert router.rebalance()
        save_cluster(router, tmp_path / "rebalanced")
        restored = load_cluster(tmp_path / "rebalanced")
        assert restored.plan == router.plan
        for rid in (0, 5, 11):
            assert restored.search(restored.tokens_of(rid), 0.5) == \
                index.probe(index.tokens_of(rid), 0.5) == \
                brute_force_search(corpus, index.tokens_of(rid), 0.5)

    @pytest.mark.parametrize("loaded", [False, True])
    def test_record_columns_are_stored_once(self, saved, index, loaded):
        """Every record id column is one object however many shards
        reference it — in a loaded cluster exactly as in a built one —
        and ``storage_stats`` counts it once."""
        router, directory = saved
        if loaded:
            router = load_cluster(directory)
        slices = [router.replica(s, 0).slice for s in range(router.n_shards)]
        shared = 0
        for a in slices:
            for b in slices:
                for rid in a._ranks.keys() & b._ranks.keys():
                    assert a._ranks[rid] is b._ranks[rid]
                    shared += a is not b
        assert shared
        expected = index.posting_stats()
        storage = router.storage_stats()
        assert storage["record_bytes"] == expected["record_bytes"]
        assert storage["postings"] == expected["postings"]

    def test_independent_replicas_share_nothing(self, saved, index):
        _, directory = saved
        router = load_cluster(directory, independent_replicas=True)
        for shard in range(router.n_shards):
            primary = router.replica(shard, 0).slice
            clone = router.replica(shard, 1).slice
            assert clone is not primary
            assert clone.content_digests() == primary.content_digests()
            for rid, column in clone._ranks.items():
                assert column is not primary._ranks[rid]
        assert router.storage_stats()["record_bytes"] > \
            index.posting_stats()["record_bytes"]


class TestLoadFailures:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ClusterError, match="no cluster manifest"):
            load_cluster(tmp_path / "nowhere")

    def test_corrupt_manifest(self, saved):
        _, directory = saved
        (directory / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ClusterError, match="unreadable cluster manifest"):
            load_cluster(directory)

    def test_wrong_manifest_format(self, saved):
        _, directory = saved
        (directory / MANIFEST_NAME).write_text(json.dumps({"format": "zip"}))
        with pytest.raises(ClusterError, match="not a repro-cluster"):
            load_cluster(directory)

    def test_manifest_version_mismatch(self, saved):
        _, directory = saved
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        manifest["version"] = 99
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ClusterError, match="version mismatch"):
            load_cluster(directory)

    def test_plain_index_snapshot_rejected(self, saved, corpus):
        """Flipped by format v2: the directory's ``index.idx`` *is* a plain
        index snapshot (v1 refused one in a shard file's place) — it loads
        with ``load_index`` and probes as the router searches."""
        router, directory = saved
        plain = load_index(directory / INDEX_NAME)
        assert type(plain) is SegmentIndex
        for record in corpus[::7]:
            assert plain.probe(record.tokens, 0.5) == \
                router.search(record.tokens, 0.5)

    def test_corrupted_shard_snapshot_fails_closed(self, saved):
        """Flip one byte of ``index.idx``'s body (v1: of a shard file):
        the pair binding refuses it, and — were the manifest re-pointed at
        the damaged file — so does the snapshot's own sha256 digest."""
        _, directory = saved
        path = directory / INDEX_NAME
        raw = bytearray(path.read_bytes())
        body_at = len(raw) - pickle.loads(raw)["length"]
        raw[body_at + (len(raw) - body_at) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ClusterError, match="different saves"):
            load_cluster(directory)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        manifest["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="integrity check"):
            load_cluster(directory)

    def test_manifest_snapshot_disagreement(self, saved, tmp_path):
        """Another save's ``index.idx`` under this manifest (v1: two shard
        files swapped) is refused by sha256 before anything is unpickled."""
        _, directory = saved
        other = random_collection(40, vocab=30, max_len=10, seed=5)
        save_cluster(build_cluster(other, n_shards=3, n_vertical=6),
                     tmp_path / "other")
        (directory / INDEX_NAME).write_bytes(
            (tmp_path / "other" / INDEX_NAME).read_bytes()
        )
        with pytest.raises(ClusterError, match="different saves"):
            load_cluster(directory)

    def test_missing_snapshot(self, saved):
        _, directory = saved
        (directory / INDEX_NAME).unlink()
        with pytest.raises(ClusterError, match="no cluster snapshot"):
            load_cluster(directory)

    def test_version_one_directory_is_refused(self, tmp_path):
        """A per-shard (v1) directory has no reader: one typed line naming
        the command that rebuilds it."""
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({
            "format": "repro-cluster", "version": 1, "replication": 1,
            "plan": {"n_shards": 1, "assignment": {"0": 0}},
            "shards": [{"shard": 0, "file": "shard-000.idx",
                        "fragments": [0], "records": 0}],
        }))
        with pytest.raises(ClusterError, match="repro cluster build"):
            load_cluster(tmp_path)

    def test_parent_format_directory_is_refused(self, saved):
        """A v3 directory — the parent build's: the same five keys over a
        v4 snapshot whose posting runs are in insertion order, which the
        probe's length window would read as missing answers — has no
        reader: the manifest's version is checked before index.idx is
        opened, and the refusal is one typed line naming both versions
        and the rebuild command."""
        _, directory = saved
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        manifest.update(version=3)
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        (directory / INDEX_NAME).write_bytes(b"a v4 snapshot, never opened")
        with pytest.raises(ClusterError) as caught:
            load_cluster(directory)
        message = str(caught.value)
        assert "\n" not in message
        assert "file has 3" in message and "reads 4" in message
        assert "'repro cluster build'" in message

    @pytest.mark.parametrize("document", MALFORMED_MANIFESTS)
    def test_malformed_manifest_is_typed(self, saved, document):
        _, directory = saved
        (directory / MANIFEST_NAME).write_text(json.dumps(document))
        with pytest.raises(ClusterError, match="(malformed|not a) .*manifest"):
            read_manifest(directory)
        with pytest.raises(ClusterError):
            load_cluster(directory)

    def test_plan_must_place_the_index_fragments(self, saved):
        _, directory = saved
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        del manifest["plan"]["assignment"]["0"]
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ClusterError, match="places fragments"):
            load_cluster(directory)
