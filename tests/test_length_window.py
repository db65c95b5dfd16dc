"""A candidate is a record that can still pass: the length window, under every verb.

Every sealed posting run is in ascending record-length order, and the scan
reads of each run only the records whose length lies in the query's window
at the probed position (:func:`repro.service.index.probe_window`).  One
Hypothesis test draws a corpus whose record lengths sit on and beside every
edge of that window — Lemma 1's lower and upper edges and the positional
edge for each number of query tokens left — for a 12-point grid of
θ × function, and drives it through the verbs that lay runs out or move
them: appends with and without a seal, flush, minor and major
compaction, a cluster carve, a rebalance migration and a
``save_cluster``/``load_cluster`` round trip.  After every step:

* every sealed run of every index, slice and generation is non-decreasing
  in record length;
* ``probe``/``probe_batch`` on the full index and the streaming tier and
  ``search_batch`` on the cluster's slices return
  :func:`tests.conftest.brute_force_search` over the records each holds;
* an index that never seals and a twin sealed after every batch emit the
  same hits and the same ``service.probe`` counters.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster, load_cluster, save_cluster
from repro.data.records import Record, RecordCollection
from repro.ingest import IngestConfig, StreamingIndex
from repro.mapreduce.counters import Counters
from repro.mapreduce.hdfs import InMemoryDFS
from repro.service import SegmentIndex
from repro.service.index import PROBE_GROUP, WINDOW_MEMO, probe_window
from repro.similarity.thresholds import length_lower_bound, required_overlap
from tests.conftest import brute_force_search, random_collection

THETAS = (0.4, 0.6, 0.8, 0.95)
FUNCS = ("jaccard", "dice", "cosine")
VOCAB = [f"w{i:02d}" for i in range(24)]
VERBS = ("append", "append+seal", "flush", "minor", "major", "carve",
         "rebalance", "save-load")


def edge_lengths(size: int):
    """Record lengths on and beside every window edge of a ``size``-token
    query, from the two predicates the evaluation applies to a pair —
    Lemma 1 and ``τ ≤`` the query tokens left — not from the window."""
    edges = set()
    for func in FUNCS:
        for theta in THETAS:
            strl = [t for t in range(1, 4 * len(VOCAB))
                    if min(size, t) >= length_lower_bound(
                        func, theta, max(size, t))]
            edges |= {strl[0], strl[-1]}
            for room in range(1, size + 1):
                fits = [t for t in strl
                        if required_overlap(func, theta, size, t) <= room]
                if fits:
                    edges.add(fits[-1])
    return sorted({t + d for t in edges for d in (-1, 0, 1)
                   if 1 <= t + d <= len(VOCAB)})


@st.composite
def worlds(draw):
    """A query, records around it with edge lengths, and a verb schedule."""
    center = draw(st.lists(st.sampled_from(VOCAB), min_size=2, max_size=7,
                           unique=True))
    others = [token for token in VOCAB if token not in center]
    lengths = edge_lengths(len(center))
    next_rid = iter(range(10_000))

    def record():
        length = draw(st.sampled_from(lengths))
        shared = draw(st.integers(0, min(length, len(center))))
        fill = draw(st.permutations(others))[:length - shared]
        return Record.make(next(next_rid), center[:shared] + fill)

    base = [record() for _ in range(draw(st.integers(3, 10)))]
    steps = []
    for verb in draw(st.lists(st.sampled_from(VERBS), min_size=2, max_size=6)):
        batch = ([record() for _ in range(draw(st.integers(1, 4)))]
                 if verb.startswith("append") else [])
        steps.append((verb, batch))
    queries = [center, center[:-1] + ["never-seen"], list(base[0].tokens)]
    return base, steps, queries


def assert_runs_in_length_order(index: SegmentIndex) -> None:
    for postings in index._postings:
        for slot in range(len(postings.tokens)):
            run = postings.rids[postings.offsets[slot]:postings.offsets[slot + 1]]
            lengths = [len(index._ranks[rid]) for rid in run]
            assert lengths == sorted(lengths), (postings.tokens[slot], lengths)


def probe_group(index, queries, theta, func):
    counters = Counters()
    hits = index.probe_batch(
        [index.encode_query(q) for q in queries], theta, func, counters
    )
    assert hits == [index.probe(q, theta, func) for q in queries]
    return hits, counters.group(PROBE_GROUP)


class World:
    """The same records through a full index, its always-sealed twin, a
    streaming tier and (once carved) a cluster."""

    def __init__(self, base):
        self.index = SegmentIndex.build(RecordCollection(base), n_vertical=4)
        self.twin = SegmentIndex.build(RecordCollection(base), n_vertical=4)
        self.stream = StreamingIndex.create(
            InMemoryDFS(), records=RecordCollection(base), n_vertical=4,
            config=IngestConfig(memtable_limit=1_000, fanout=2),
        )
        self.applied = list(base)
        self.router = None
        self.carved = []

    def step(self, verb, batch):
        if verb.startswith("append"):
            self.index.apply_batch(batch)
            self.twin.apply_batch(batch)
            self.twin._seal()
            self.stream.apply_batch(batch)
            self.applied += batch
            if verb == "append+seal":
                self.index._seal()
        elif verb == "flush":
            self.stream.flush()
        elif verb == "minor":
            self.stream.flush()
            self.stream.compact()
        elif verb == "major":
            self.stream.compact(major=True)
        elif verb == "carve":
            self.router = build_cluster(self.index, n_shards=2)
            self.carved = list(self.applied)
        elif self.router is not None and verb == "rebalance":
            router = self.router
            donor = max(range(router.n_shards),
                        key=lambda s: len(router.plan.fragments_of(s)))
            with router._lock:
                for fragment in router.plan.assignment:
                    router._heat[fragment] = 1
                for fragment in router.plan.fragments_of(donor):
                    router._heat[fragment] = 50
            router.rebalance()
        elif self.router is not None and verb == "save-load":
            with tempfile.TemporaryDirectory() as directory:
                save_cluster(self.router, directory)
                self.router = load_cluster(directory)

    def check(self, queries):
        tiers = [self.index, self.twin, self.stream.memtable] + [
            gen.index for gen in self.stream.generations
        ]
        if self.router is not None:
            tiers += [self.router.replica(s, 0).slice
                      for s in range(self.router.n_shards)]
        for index in tiers:
            assert_runs_in_length_order(index)
        for func in FUNCS:
            for theta in THETAS:
                expected = [brute_force_search(self.applied, q, theta, func)
                            for q in queries]
                hits, group = probe_group(self.index, queries, theta, func)
                assert hits == expected, (func, theta)
                assert probe_group(self.twin, queries, theta, func) == (
                    hits, group)
                assert self.stream.probe_batch(
                    [self.stream.encode_query(q) for q in queries],
                    theta, func,
                ) == expected
                if self.router is not None:
                    assert self.router.search_batch(
                        queries, theta, func=func
                    ) == [brute_force_search(self.carved, q, theta, func)
                          for q in queries]


@settings(max_examples=30, deadline=None)
@given(world=worlds())
def test_the_window_is_exact_under_every_verb(world):
    base, steps, queries = world
    state = World(base)
    state.check(queries)
    for verb, batch in steps:
        state.step(verb, batch)
        state.check(queries)


def test_the_window_memo_is_bounded():
    """A long-lived server meets every θ its clients send: 10 000 distinct
    ones leave the process-wide memo at its bound, and answers unchanged."""
    corpus = random_collection(20, seed=3)
    index = SegmentIndex.build(corpus, n_vertical=4)
    tokens = corpus.get(0).tokens
    query = [index.encode_query(tokens)]
    for i in range(10_000):
        index.probe_batch(query, 0.5 + i * 1e-5)
    info = probe_window.cache_info()
    assert info.currsize == info.maxsize == WINDOW_MEMO
    assert index.probe(tokens, 0.55) == brute_force_search(corpus, tokens, 0.55)
