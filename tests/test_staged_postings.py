"""Staged ≡ sealed: a probe reads the stage, and a write costs its batch.

``SegmentIndex.apply_batch`` stages a batch's postings and returns; the
scan reads a token's length window of the sealed run by bisecting it and
of the stage by testing each entry, which is the window of the run a seal
would lay out (the touched runs re-sorted by length).  Three things are
pinned here:

* **answers and work** — after every batch, an index that was never sealed
  answers ``probe``/``probe_batch`` exactly like
  :func:`tests.conftest.brute_force_search` over everything applied, and
  like a twin that seals after every batch (the schedule before the stage
  was readable), hit lists and the whole ``service.probe`` counter group;
  the same through a :class:`StreamingIndex` (memtable over two or more
  generations) and through a :class:`ClusterRouter` with an attached tier;
* **order independence** — once something does seal, the bytes do not
  remember when: pickles and content digests equal the twin's;
* **the work** — counted as ``FragmentPostings.seal`` calls that find a
  non-empty stage: an append makes none unless it flushes or compacts, a
  probe makes none ever.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.data import make_corpus
from repro.data.records import Record, RecordCollection
from repro.ingest import IngestConfig, StreamingIndex
from repro.mapreduce.counters import Counters
from repro.mapreduce.hdfs import InMemoryDFS
from repro.service import SegmentIndex
from repro.service.columnar import FragmentPostings
from repro.service.index import PROBE_GROUP
from tests.conftest import brute_force_search

CASES = [("jaccard", 0.6), ("cosine", 0.7)]

#: Tokens of the base corpus (appends extend their runs), tokens no base
#: record holds (appends start new runs) and tokens nothing ever holds.
KNOWN = [f"w{i:02d}" for i in range(24)]
FRESH = [f"n{i}" for i in range(8)]
NEVER = ["never-a", "never-b"]

base_sets = st.lists(st.sampled_from(KNOWN), min_size=1, max_size=8, unique=True)
record_sets = st.lists(
    st.sampled_from(KNOWN + FRESH), min_size=1, max_size=8, unique=True
)
query_sets = st.lists(
    st.sampled_from(KNOWN + FRESH + NEVER), min_size=0, max_size=8, unique=True
)
scenarios = st.fixed_dictionaries({
    "base": st.lists(base_sets, min_size=2, max_size=12),
    "batches": st.lists(
        st.lists(record_sets, min_size=1, max_size=8), min_size=1, max_size=5
    ),
    "queries": st.lists(query_sets, min_size=1, max_size=6),
})


def _records(token_lists, first_rid):
    return [Record.make(first_rid + i, t) for i, t in enumerate(token_lists)]


def _batches(scenario):
    """The scenario's base records and append batches, rids ascending."""
    base = _records(scenario["base"], 0)
    batches, next_rid = [], len(base)
    for token_lists in scenario["batches"]:
        batches.append(_records(token_lists, next_rid))
        next_rid += len(token_lists)
    return base, batches


def _staged(index: SegmentIndex) -> bool:
    return any(postings._pending for postings in index._postings)


def _probe_group(index, queries, theta, func):
    """``probe_batch`` hits and the ``service.probe`` counters they cost;
    every single ``probe`` must agree with its slot of the batch."""
    counters = Counters()
    hits = index.probe_batch(
        [index.encode_query(q) for q in queries], theta, func, counters
    )
    assert hits == [index.probe(q, theta, func) for q in queries]
    return hits, counters.group(PROBE_GROUP)


class TestStagedEqualsSealed:
    @settings(max_examples=40, deadline=None)
    @given(scenario=scenarios)
    def test_segment_index(self, scenario):
        base, batches = _batches(scenario)
        index = SegmentIndex.build(RecordCollection(base), n_vertical=4)
        twin = SegmentIndex.build(RecordCollection(base), n_vertical=4)
        applied = list(base)
        for batch in batches:
            index.apply_batch(batch)
            twin.apply_batch(batch)
            twin._seal()
            applied += batch
            for func, theta in CASES:
                hits, group = _probe_group(index, scenario["queries"], theta, func)
                assert (hits, group) == _probe_group(
                    twin, scenario["queries"], theta, func
                )
                assert hits == [
                    brute_force_search(applied, q, theta, func)
                    for q in scenario["queries"]
                ]
            assert _staged(index) and not _staged(twin)
        # Whoever needs flat columns seals, and the bytes do not remember
        # when: digests first (they seal), then pickle.
        assert index.content_digests() == twin.content_digests()
        assert pickle.dumps(index) == pickle.dumps(twin)
        sealed_copy = pickle.loads(pickle.dumps(index))
        for func, theta in CASES:
            assert _probe_group(
                sealed_copy, scenario["queries"], theta, func
            ) == _probe_group(twin, scenario["queries"], theta, func)

    @settings(max_examples=25, deadline=None)
    @given(scenario=scenarios)
    def test_streaming_index(self, scenario):
        """Memtable over the bootstrap generation and a flushed one; more
        flushes as the batches fill it, one compaction at the end."""
        base, batches = _batches(scenario)
        config = IngestConfig(memtable_limit=8, fanout=1_000)
        streams = [
            StreamingIndex.create(
                InMemoryDFS(), records=RecordCollection(base), n_vertical=4,
                config=config,
            )
            for _ in range(2)
        ]
        stream, twin = streams
        warm_up = _records([[token] for token in KNOWN[:3]], 10_000)
        for each in streams:
            each.apply_batch(warm_up)
            each.flush()
        applied = base + warm_up
        for batch in batches:
            stream.apply_batch(batch)
            twin.apply_batch(batch)
            twin.memtable._seal()
            applied += batch
            assert len(stream.generations) >= 2
            assert not len(stream.memtable) or _staged(stream.memtable)
            self._check(stream, twin, applied, scenario["queries"])
        for each in streams:
            each.compact(major=True)
        assert len(stream.generations) == 1 and not len(stream.memtable)
        self._check(stream, twin, applied, scenario["queries"])
        assert pickle.dumps(stream.to_segment_index()) == pickle.dumps(
            twin.to_segment_index()
        )

    @staticmethod
    def _check(stream, twin, applied, queries):
        for func, theta in CASES:
            hits, group = _probe_group(stream, queries, theta, func)
            assert (hits, group) == _probe_group(twin, queries, theta, func)
            assert hits == [
                brute_force_search(applied, q, theta, func) for q in queries
            ]

    @settings(max_examples=15, deadline=None)
    @given(scenario=scenarios)
    def test_cluster_router_with_an_attached_tier(self, scenario):
        base, batches = _batches(scenario)
        routers = []
        for _ in range(2):
            router = build_cluster(
                RecordCollection(base), n_shards=2, replication=1, n_vertical=4
            )
            router.attach_ingest(StreamingIndex.attach(
                InMemoryDFS(), "ingest", router.order, router.partitioner,
                config=IngestConfig(memtable_limit=8),
            ))
            routers.append(router)
        router, twin = routers
        applied = list(base)
        for batch in batches:
            router.apply_batch(batch)
            twin.apply_batch(batch)
            twin.ingest.streaming.memtable._seal()
            applied += batch
            for func, theta in CASES:
                expected = [
                    brute_force_search(applied, q, theta, func)
                    for q in scenario["queries"]
                ]
                for each in routers:
                    assert expected == each.search_batch(
                        scenario["queries"], theta, func=func
                    )
                    assert expected == [
                        each.search(q, theta, func=func)
                        for q in scenario["queries"]
                    ]
            assert router.ingest.counters.group(PROBE_GROUP) == (
                twin.ingest.counters.group(PROBE_GROUP)
            )


@pytest.fixture
def stage_merges(monkeypatch):
    """Counts the ``FragmentPostings.seal`` calls that had a stage to merge
    — each one rebuilds every column of its fragment."""
    merges = []
    seal = FragmentPostings.seal

    def counting_seal(postings, length_of):
        if postings._pending:
            merges.append(postings)
        seal(postings, length_of)

    monkeypatch.setattr(FragmentPostings, "seal", counting_seal)
    return merges


def test_an_append_rebuilds_nothing_and_neither_does_a_probe(stage_merges):
    """64 appends of 4 at ``memtable_limit=64``: the only stages merged are
    a flush's memtable and a compaction's output, one per fragment each —
    before the stage was readable every append paid one per fragment."""
    n_fragments = 8
    records = list(make_corpus("wiki", 100 + 64 * 4, seed=5))
    stream = StreamingIndex.create(
        InMemoryDFS(), records=RecordCollection(records[:100]),
        n_vertical=n_fragments, config=IngestConfig(memtable_limit=64),
    )
    stage_merges.clear()
    for lo in range(100, len(records), 4):
        stream.apply_batch(records[lo:lo + 4])
        status = stream.status()
        events = status["flushes"] + status["compactions"]
        assert len(stage_merges) == events * n_fragments
        hits = stream.probe(records[lo].tokens, 0.6)
        assert records[lo].rid in {hit.rid for hit in hits}
        assert len(stage_merges) == events * n_fragments
    assert status["flushes"] == 4 and status["compactions"] >= 1
