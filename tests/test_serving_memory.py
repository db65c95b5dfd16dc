"""A serving process holds its index and little else.

Three things used to sit beside it: numpy, which every ``repro`` import
pulled in through the corpus generators although serving never calls it;
a second copy of every posting column, made when a loaded index was
carved into shard slices; and, at load, the snapshot file's bytes.  These
tests pin that none comes back, and that the answers and storage numbers
are the ones the copying build gave.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.cluster import (
    RepairManager,
    build_cluster,
    load_cluster,
    save_cluster,
)
from repro.cluster.build import INDEX_NAME
from repro.data import make_corpus
from repro.service.columnar import FragmentPostings
from repro.service.index import SegmentIndex
from repro.service.snapshot import load_index
from tests.conftest import brute_force_search

#: sha256 of ``make_corpus("wiki", 20, seed=3)`` as ``rid<TAB>tokens``
#: lines — the corpus numpy generated when it was imported at module level.
WIKI_20_SEED_3 = (
    "e8f2139065ee77066e15a42222fc7a2befb483fdc52c41a52cf43426cad51ca4"
)

#: ``storage_stats()`` of the cluster below, built and loaded, as the
#: build that copied every carved posting column reported it — but for
#: ``record_bytes``, halved since: the same ids, 4 bytes each instead of 8.
STORAGE = {
    "postings": 21148, "posting_bytes": 241872, "record_bytes": 169184 // 2,
}


def test_serving_imports_no_numpy():
    script = textwrap.dedent(f"""
        import hashlib, sys
        import repro.cli, repro.cluster, repro.net, repro.gateway, repro.ingest
        assert "numpy" not in sys.modules, "serving imported numpy"
        from repro import make_corpus
        corpus = make_corpus("wiki", 20, seed=3)
        blob = "\\n".join(f"{{r.rid}}\\t{{' '.join(r.tokens)}}" for r in corpus)
        assert hashlib.sha256(blob.encode()).hexdigest() == {WIKI_20_SEED_3!r}
    """)
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.fixture(scope="module")
def corpus():
    return make_corpus("wiki", 400, seed=5)


@pytest.fixture
def copies(monkeypatch):
    """A list that grows by one per :meth:`FragmentPostings.copy` call."""
    calls = []
    original = FragmentPostings.copy

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(FragmentPostings, "copy", counted)
    return calls


@pytest.fixture
def saved(corpus, tmp_path):
    index = SegmentIndex.build(corpus, n_vertical=8)
    save_cluster(build_cluster(index, n_shards=4, replication=2), tmp_path)
    return tmp_path


class TestLoadHandsOver:
    def test_load_and_snapshot_repair_copy_no_posting_column(self, saved,
                                                             copies):
        router = load_cluster(saved)
        assert copies == []
        router.replica(1, 0).fail()
        router.replica(1, 1).fail()
        repair = RepairManager(router, snapshot_dir=saved)
        assert "rebuilt from snapshot" in repair.rebuild_replica(1, 0)
        assert copies == []

    def test_build_copies_each_fragment_once(self, corpus, copies):
        index = SegmentIndex.build(corpus, n_vertical=8)
        build_cluster(index, n_shards=4, replication=2)
        assert len(copies) == index.n_fragments
        assert {id(p) for p in copies} == {id(p) for p in index._postings}

    def test_a_built_cluster_does_not_see_later_writes(self, corpus):
        records = list(corpus)
        index = SegmentIndex.build(records[:300], n_vertical=8)
        router = build_cluster(index, n_shards=4)
        index.apply_batch(records[300:])
        for record in records[::23]:
            assert router.search(record.tokens, 0.5) == brute_force_search(
                records[:300], record.tokens, 0.5
            )

    def test_a_record_is_one_key_across_slices(self, corpus, saved):
        index = SegmentIndex.build(corpus, n_vertical=8)
        for router in (load_cluster(saved), build_cluster(index, n_shards=4)):
            first, repeated = {}, 0
            for shard in range(router.n_shards):
                slice_ = router.replica(shard, 0).slice
                for rid in slice_._ranks:
                    if rid in first:
                        assert first[rid] is rid
                        # Ints up to 256 are one object anyway.
                        repeated += rid > 256
                    else:
                        first[rid] = rid
            assert len(first) == len(corpus)
            assert repeated > 100

    def test_storage_is_the_copying_builds(self, corpus, saved):
        index = SegmentIndex.build(corpus, n_vertical=8)
        assert build_cluster(
            index, n_shards=4, replication=2
        ).storage_stats() == STORAGE
        assert load_cluster(saved).storage_stats() == STORAGE


def peak_above_kept(load):
    """Run ``load``; the bytes its allocations peaked at above what they
    left allocated, and what it returned."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = load()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current, kept


class TestLoadPeak:
    """A load's peak is the index it builds.  It used to hold the file's
    bytes beside it, and the bytes every column was rebuilt from: about
    twice the file above what it left (18.4 MB over a 9.85 MB file).  Now
    each load below stays within a quarter of the file above it — the
    repair too, which reads the whole file and keeps one shard."""

    @pytest.fixture(scope="class")
    def directory(self, tmp_path_factory):
        index = SegmentIndex.build(make_corpus("wiki", 1500, seed=5),
                                   n_vertical=8)
        directory = tmp_path_factory.mktemp("cluster")
        save_cluster(build_cluster(index, n_shards=4, replication=2),
                     directory)
        return directory

    @pytest.fixture
    def budget(self, directory):
        return (directory / INDEX_NAME).stat().st_size / 4

    def test_load_index(self, directory, budget):
        above, index = peak_above_kept(lambda: load_index(directory /
                                                          INDEX_NAME))
        assert len(index) == 1500
        assert above < budget

    def test_load_cluster(self, directory, budget):
        above, router = peak_above_kept(lambda: load_cluster(directory))
        assert router.n_shards == 4
        assert above < budget

    def test_snapshot_repair(self, directory, budget):
        router = load_cluster(directory)
        router.replica(1, 0).fail()
        router.replica(1, 1).fail()
        repair = RepairManager(router, snapshot_dir=directory)
        above, detail = peak_above_kept(lambda: repair.rebuild_replica(1, 0))
        assert "rebuilt from snapshot" in detail
        assert above < budget
