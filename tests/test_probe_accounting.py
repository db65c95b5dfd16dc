"""Accounting identity: every ``service.probe`` counter of a fixed probe set.

The serving twin of ``test_mr_accounting.py``.  A probe is one candidate
scan — each posting run read only inside the query's record-length window
(Lemma 1 and the query half of the merge's opening bound) — and one
bounded merge per candidate, started at the candidate's first hit;
``EXPECTED`` pins what that costs — every counter the probe emits,
nothing else — through the full index, a 3-slice partition of its
fragments (gathered) and a streaming index with a memtable and three
generations, at (jaccard, 0.6) and (cosine, 0.7).  Eleven of the queries
carry tokens the vocabulary has never seen.  A change that shifts
comparison or candidate counts without changing an answer fails here and
nowhere else.

What moved when the scan started reading windows (``BEFORE_WINDOW`` is
the group of the scan that read whole runs): ``candidates`` became the
records inside the window — at most the old ``candidates − pruned_strl``,
since StrL is the window's edges and the rest of the old verified pairs
died at the opening bound with no comparison — and ``pruned_strl`` and
``verified_pairs`` (which now always equals ``candidates``) left the
group.  ``probes``, ``posting_lookups``, ``verify_token_comparisons``,
``results`` and ``ceded_candidates`` did not move on any route.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.node import ShardSlice
from repro.data import make_corpus
from repro.data.records import RecordCollection
from repro.ingest import StreamingIndex
from repro.mapreduce.counters import Counters
from repro.mapreduce.hdfs import InMemoryDFS
from repro.service import SegmentIndex
from repro.service.index import PROBE_GROUP, merge_hits
from tests.conftest import brute_force_search, first_common_fragment

N_VERTICAL = 8
SLICES = ([0, 3, 6], [1, 4, 7], [2, 5])
CASES = [("jaccard", 0.6), ("cosine", 0.7)]

#: (route, func) -> the whole ``service.probe`` group.  The slices scan
#: what the index scans (same ``posting_lookups``) and report what it
#: reports (same ``results``), but a candidate two slices list is verified
#: by both, each from its own first hit.
EXPECTED = {
    ("index", "jaccard"): {
        "probes": 28, "posting_lookups": 641, "candidates": 70,
        "verify_token_comparisons": 2836, "results": 42,
    },
    ("slices", "jaccard"): {
        "probes": 84, "posting_lookups": 641, "ceded_candidates": 18,
        "candidates": 91, "verify_token_comparisons": 4051, "results": 42,
    },
    ("streaming", "jaccard"): {
        "probes": 112, "posting_lookups": 2444, "candidates": 266,
        "verify_token_comparisons": 3562, "results": 42,
    },
    ("index", "cosine"): {
        "probes": 28, "posting_lookups": 777, "candidates": 139,
        "verify_token_comparisons": 2881, "results": 44,
    },
    ("slices", "cosine"): {
        "probes": 84, "posting_lookups": 777, "ceded_candidates": 31,
        "candidates": 177, "verify_token_comparisons": 4720, "results": 44,
    },
    ("streaming", "cosine"): {
        "probes": 112, "posting_lookups": 2816, "candidates": 454,
        "verify_token_comparisons": 4406, "results": 44,
    },
}

#: The same groups when the scan read whole runs and the evaluation
#: pruned by StrL.
BEFORE_WINDOW = {
    ("index", "jaccard"): {
        "probes": 28, "posting_lookups": 641, "candidates": 501,
        "pruned_strl": 303, "verified_pairs": 198,
        "verify_token_comparisons": 2836, "results": 42,
    },
    ("slices", "jaccard"): {
        "probes": 84, "posting_lookups": 641, "ceded_candidates": 18,
        "candidates": 618, "pruned_strl": 335, "verified_pairs": 283,
        "verify_token_comparisons": 4051, "results": 42,
    },
    ("streaming", "jaccard"): {
        "probes": 112, "posting_lookups": 2444, "candidates": 1189,
        "pruned_strl": 623, "verified_pairs": 566,
        "verify_token_comparisons": 3562, "results": 42,
    },
    ("index", "cosine"): {
        "probes": 28, "posting_lookups": 777, "candidates": 1250,
        "pruned_strl": 558, "verified_pairs": 692,
        "verify_token_comparisons": 2881, "results": 44,
    },
    ("slices", "cosine"): {
        "probes": 84, "posting_lookups": 777, "ceded_candidates": 31,
        "candidates": 1516, "pruned_strl": 673, "verified_pairs": 843,
        "verify_token_comparisons": 4720, "results": 44,
    },
    ("streaming", "cosine"): {
        "probes": 112, "posting_lookups": 2816, "candidates": 1987,
        "pruned_strl": 819, "verified_pairs": 1168,
        "verify_token_comparisons": 4406, "results": 44,
    },
}

#: What the window leaves alone on every route.
UNMOVED = ("probes", "posting_lookups", "verify_token_comparisons",
           "results", "ceded_candidates")


@pytest.fixture(scope="module")
def corpus():
    return make_corpus("wiki", 150, seed=17)


@pytest.fixture(scope="module")
def queries(corpus):
    """28 token lists: 8 records verbatim, 9 cut to a random 80 %, 11 cut
    and padded with one to three never-seen tokens."""
    rng = random.Random(29)
    records = rng.sample(list(corpus), 28)
    out = [list(record.tokens) for record in records[:8]]
    for i, record in enumerate(records[8:]):
        tokens = rng.sample(list(record.tokens), max(2, record.size * 4 // 5))
        if i >= 9:
            tokens += [f"never-seen-{i}-{j}" for j in range(1 + i % 3)]
        out.append(tokens)
    return out


@pytest.fixture(scope="module")
def index(corpus):
    return SegmentIndex.build(corpus, n_vertical=N_VERTICAL)


@pytest.fixture(scope="module")
def streaming(corpus):
    """Base generation + two flushed generations + a non-empty memtable."""
    records = list(corpus)
    stream = StreamingIndex.create(
        InMemoryDFS(), records=RecordCollection(records[:90]),
        n_vertical=N_VERTICAL,
    )
    for lo, hi in ((90, 115), (115, 140)):
        stream.apply_batch(records[lo:hi])
        stream.flush()
    stream.apply_batch(records[140:])
    assert len(stream.generations) == 3 and len(stream.memtable) == 10
    return stream


def _probe(route, index, streaming, queries, theta, func, counters):
    if route == "index":
        return index.probe_batch(
            [index.encode_query(q) for q in queries], theta, func,
            counters=counters,
        )
    if route == "streaming":
        return streaming.probe_batch(
            [streaming.encode_query(q) for q in queries], theta, func,
            counters=counters,
        )
    encoded = [index.encode_query(q) for q in queries]
    answers = [
        ShardSlice.carve(index, fragments).probe_batch(
            encoded, theta, func, counters=counters
        )
        for fragments in SLICES
    ]
    return [merge_hits(per_query) for per_query in zip(*answers)]


@pytest.mark.parametrize("func,theta", CASES)
@pytest.mark.parametrize("route", ["index", "slices", "streaming"])
def test_every_probe_counter_is_pinned(route, func, theta, corpus, queries,
                                       index, streaming):
    counters = Counters()
    hits = _probe(route, index, streaming, queries, theta, func, counters)
    assert hits == [
        brute_force_search(corpus, tokens, theta, func) for tokens in queries
    ]
    group = counters.group(PROBE_GROUP)
    assert group == EXPECTED[route, func]
    before = BEFORE_WINDOW[route, func]
    assert [group.get(name) for name in UNMOVED] == [
        before.get(name) for name in UNMOVED
    ]
    assert group["candidates"] <= before["candidates"] - before["pruned_strl"]
    assert before["verified_pairs"] == before["candidates"] - before["pruned_strl"]


@pytest.mark.parametrize("func,theta", CASES)
def test_every_record_as_a_query_through_the_slices(func, theta, corpus,
                                                    index):
    """The hit-rich regime (1.45 hits a query; the harness's workloads
    have under one), the only one where the ceded-hit check runs often:
    each slice answers exactly the brute-force hits whose first common
    token it owns, so the gathered answer is the brute-force scan's."""
    queries = [record.tokens for record in corpus]
    encoded = [index.encode_query(tokens) for tokens in queries]
    full = [brute_force_search(corpus, tokens, theta, func)
            for tokens in queries]
    counters = Counters()
    answers = [
        ShardSlice.carve(index, fragments).probe_batch(
            encoded, theta, func, counters=counters
        )
        for fragments in SLICES
    ]
    for fragments, answer in zip(SLICES, answers):
        assert answer == [
            [hit for hit in hits
             if first_common_fragment(
                 index, tokens, corpus.get(hit.rid)) in fragments]
            for tokens, hits in zip(queries, full)
        ]
    assert [merge_hits(per_query) for per_query in zip(*answers)] == full
    assert counters.get(PROBE_GROUP, "ceded_candidates") > len(corpus)


@pytest.mark.parametrize("func,theta", CASES)
def test_unknown_tokens_take_the_known_token_path(func, theta, corpus,
                                                  queries):
    """Tokens the vocabulary has never seen and tokens it knows but no
    record holds (what a base generation sees of a token only the memtable
    has) sort after every other id and match nothing: same answers, same
    lookups, same counters emitted — there is one path, not two."""
    index = SegmentIndex.build(corpus, n_vertical=N_VERTICAL)
    padded = [q for q in queries if any(t.startswith("never-") for t in q)]
    assert len(padded) >= 5
    unknown, known = Counters(), Counters()
    before = [index.probe(tokens, theta, func, counters=unknown)
              for tokens in padded]
    index.vocab.extend(
        [(t, 1) for q in padded for t in q if t.startswith("never-")]
    )
    assert all(index.encode_query(q).n_unknown == 0 for q in padded)
    after = [index.probe(tokens, theta, func, counters=known)
             for tokens in padded]
    assert before == after
    unknown, known = unknown.group(PROBE_GROUP), known.group(PROBE_GROUP)
    assert set(unknown) == set(known) == {
        "probes", "posting_lookups", "candidates",
        "verify_token_comparisons", "results",
    }
    # A never-seen token is not in the merged id column at all; a known
    # one sits at its end, where the merge may still walk it — and it
    # counts among the tokens left to meet τ from a hit on, so the length
    # window is no narrower than with the token unknown.
    for name in ("verify_token_comparisons", "candidates"):
        assert unknown.pop(name) <= known.pop(name), name
    assert unknown == known
