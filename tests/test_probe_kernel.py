"""The probe's verification kernel calls the merge only when it can count.

:meth:`SegmentIndex._evaluate_columnar` checks each candidate's opening
positional bound, ``min(|q| − qpos, |t| − tpos) < τ``, before it calls
:func:`~repro.similarity.verify.bounded_merge_intersection`: a pair that
fails it is one the merge would have returned on at that same check, with
no comparison.  Here the merge is wrapped and every call recorded, and the
calls must be exactly one per candidate that survives the bound — that set
recomputed from the id columns and the literal Jaccard / Cosine τ — on a
full index, a 3-slice carve of it and a streaming index, while hits stay
the brute-force scan's and the ``service.probe`` group stays the one
``tests/test_probe_accounting.py`` pins.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.cluster.node import ShardSlice
from repro.mapreduce.counters import Counters
from repro.service import index as index_module
from repro.service.index import PROBE_GROUP
from repro.similarity.functions import SimilarityFunction
from repro.similarity.verify import bounded_merge_intersection
from tests.conftest import brute_force_search
from tests.test_probe_accounting import (  # noqa: F401  (fixtures)
    CASES,
    EXPECTED,
    SLICES,
    _probe,
    corpus,
    index,
    queries,
    streaming,
)


def _tau(func, theta, size_q, size_t):
    """The required overlap as a literal formula, not the module's."""
    if func == "jaccard":
        return math.ceil(theta / (1.0 + theta) * (size_q + size_t) - 1e-9)
    return math.ceil(theta * math.sqrt(size_q * size_t) - 1e-9)


def _parts(route, index, streaming):
    """Every index the route's probe evaluates candidates on, and the
    encoder its queries go through."""
    if route == "index":
        return [index], index.encode_query
    if route == "slices":
        return ([ShardSlice.carve(index, fragments) for fragments in SLICES],
                index.encode_query)
    return streaming._tiers(), streaming.encode_query


@pytest.mark.parametrize("func,theta", CASES)
@pytest.mark.parametrize("route", ["index", "slices", "streaming"])
def test_one_merge_per_candidate_past_the_opening_bound(
        route, func, theta, corpus, queries, index, streaming, monkeypatch):
    calls: Counter = Counter()

    def counting_merge(a, b, required=1, i=0, j=0):
        calls[tuple(a), tuple(b), i, j] += 1
        return bounded_merge_intersection(a, b, required, i, j)

    monkeypatch.setattr(
        index_module, "bounded_merge_intersection", counting_merge
    )
    counters = Counters()
    hits = _probe(route, index, streaming, queries, theta, func, counters)
    monkeypatch.undo()
    assert hits == [
        brute_force_search(corpus, tokens, theta, func) for tokens in queries
    ]
    assert counters.group(PROBE_GROUP) == EXPECTED[route, func]

    parts, encode = _parts(route, index, streaming)
    encoded = [encode(tokens) for tokens in queries]
    survivors: Counter = Counter()
    dropped = 0
    for part in parts:
        candidate_sets = part._scan_candidates(
            encoded, theta, SimilarityFunction(func), None
        )
        for query, candidates in zip(encoded, candidate_sets):
            q = query.ranks
            for rid, qpos in candidates.items():
                t = list(part._ranks[rid])
                tpos = t.index(q[qpos])
                tau = _tau(func, theta, query.size, len(t))
                if min(len(q) - qpos, len(t) - tpos) >= tau:
                    survivors[q, tuple(t), qpos, tpos] += 1
                else:
                    # What the merge would have said: nothing, for free.
                    assert bounded_merge_intersection(
                        q, t, tau, qpos, tpos) == (0, 0, False)
                    dropped += 1
    assert calls == survivors
    assert sum(calls.values()) + dropped == EXPECTED[route, func]["candidates"]
    # Both branches run on every route.
    assert dropped and calls
