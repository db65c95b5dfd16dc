"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import bisect
import enum
import random
from typing import Optional

import pytest
from hypothesis import strategies as st

from repro.data.records import Record, RecordCollection
from repro.mapreduce.runtime import ClusterSpec, SimulatedCluster
from repro.service.index import SearchHit
from repro.similarity.functions import get_similarity_function
from repro.similarity.thresholds import EPS


def random_collection(
    n: int,
    vocab: int = 50,
    max_len: int = 20,
    dup_prob: float = 0.4,
    mutation: float = 0.15,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> RecordCollection:
    """A random collection with planted near-duplicates.

    ``dup_prob`` of the records clone an earlier record with ``mutation``
    of its tokens replaced, so joins at realistic thresholds have results.
    """
    rng = rng or random.Random(seed)
    tokens = [f"t{i:03d}" for i in range(vocab)]
    records = []
    for rid in range(n):
        if records and rng.random() < dup_prob:
            base = list(rng.choice(records).tokens)
            for _ in range(max(0, int(len(base) * mutation))):
                if base:
                    base[rng.randrange(len(base))] = rng.choice(tokens)
            records.append(Record.make(rid, base))
        else:
            length = rng.randint(1, max_len)
            records.append(Record.make(rid, rng.sample(tokens, min(length, vocab))))
    return RecordCollection(records)


class Rank(enum.IntEnum):
    """An ``int`` subclass, as jobs may emit: not ``type(v) is int``."""

    NEGATIVE = -300
    SMALL = 1
    HUGE = 2**70


class Sized:
    """Sized through the ``payload_size`` hook, like a ``Segment``."""

    def __init__(self, size: int) -> None:
        self.size = size

    def payload_size(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"Sized({self.size})"


class ReprOnly:
    """Nothing but a ``repr`` to size or hash it by."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return self.text


_hashable_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(list(Rank)),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=8),
    st.binary(max_size=8),
)
_hashables = st.recursive(
    _hashable_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.frozensets(inner, max_size=4),
    ),
    max_leaves=8,
)
#: Every kind of value the sizer and the partition hash dispatch on —
#: the exact-type fast paths (ints, flat int tuples, strings), their
#: subclasses, and everything only the general ``isinstance`` chain knows.
shuffled_values = st.recursive(
    st.one_of(
        _hashables,
        st.builds(Sized, st.integers(0, 500)),
        st.builds(ReprOnly, st.text(max_size=10)),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.sets(_hashables, max_size=4),
        st.dictionaries(_hashables, inner, max_size=4),
    ),
    max_leaves=10,
)


def records_of(token_lists):
    """A collection of the given token lists, with rids 0..n-1."""
    return RecordCollection(
        Record.make(rid, tokens) for rid, tokens in enumerate(token_lists)
    )


def brute_force_search(records, tokens, theta, func="jaccard"):
    """Every record with ``sim(tokens, record) ≥ θ``, best first.

    The per-query form of :func:`repro.baselines.naive.naive_self_join`:
    a linear scan over token sets that shares no logic with the index
    (no ordering, pivots, prefixes, filters or merge) — the reference the
    serving-path identity tests compare against.
    """
    similarity = get_similarity_function(func)
    query = frozenset(tokens)
    hits = []
    for record in records:
        score = similarity(query, record.token_set())
        if score + EPS >= theta:
            hits.append(SearchHit(record.rid, score))
    return sorted(hits, key=lambda hit: (-hit.score, hit.rid))


def index_self_join(index, theta, func="jaccard"):
    """Every indexed pair with ``sim ≥ θ``, keyed ``(rid_small, rid_large)``
    like ``FSJoin.run(corpus).result_pairs``: each indexed record probed
    through ``probe_batch`` once, self-hits dropped."""
    rids = index.rids()
    queries = [index.encode_query(index.tokens_of(rid)) for rid in rids]
    pairs = {}
    for rid, hits in zip(rids, index.probe_batch(queries, theta, func)):
        for hit in hits:
            if hit.rid != rid:
                pairs[(min(rid, hit.rid), max(rid, hit.rid))] = hit.score
    return pairs


def first_common_fragment(index, tokens, record):
    """The claim oracle: the fragment holding the first token, in global
    order, that ``tokens`` and ``record`` share — the one fragment whose
    owner reports the pair (Theorem 1, across shards).  Set algebra, the
    order's ranks and the pivot cuts; no scan, prefix or merge."""
    common = Record.make(-1, set(tokens) & record.token_set())
    first = index.order.encode(common)[0]
    return bisect.bisect_right(index.partitioner.cuts, first)


def expand_stripes(stripes, cross_side=False):
    """The pair records a list of filter-job stripes stands for.

    A stripe is ``owner → (len_owner, rid_t, len_t, common, …)``; this
    returns ``(owner, (rid_first, rid_second), (common, len_first,
    len_second))`` per pair inside, keyed the way results are: a self-join
    owner is a record id and the smaller id comes first; under
    ``cross_side`` (R-S) the owner is ``(side, rid)`` and the left
    collection (side 0) comes first.
    """
    pairs = []
    for owner, stripe in stripes:
        side, rid = owner if cross_side else (0, owner)
        len_owner = stripe[0]
        assert len(stripe) % 3 == 1 and len(stripe) > 1, stripe
        for k in range(1, len(stripe), 3):
            partner, len_t, common = stripe[k : k + 3]
            if (side == 0) if cross_side else (rid <= partner):
                pairs.append((owner, (rid, partner), (common, len_owner, len_t)))
            else:
                pairs.append((owner, (partner, rid), (common, len_t, len_owner)))
    return pairs


@pytest.fixture
def small_records() -> RecordCollection:
    """A tiny deterministic collection with known near-duplicates."""
    return records_of(
        [
            ["a", "b", "c", "d", "e"],
            ["a", "b", "c", "d", "f"],  # jaccard 4/6 with rid 0
            ["a", "b", "c", "d", "e"],  # identical to rid 0
            ["x", "y", "z"],
            ["x", "y", "z", "w"],  # jaccard 3/4 with rid 3
            ["q"],
        ]
    )


@pytest.fixture
def medium_records() -> RecordCollection:
    return random_collection(80, vocab=60, max_len=25, seed=11)


@pytest.fixture
def cluster() -> SimulatedCluster:
    return SimulatedCluster(ClusterSpec(workers=4, map_slots=2, reduce_slots=2))


# The paper-figure example from Fig. 2: strings over tokens A..K.
PAPER_FIG2 = [
    ["B", "C", "I", "J", "K"],
    ["B", "C", "E", "F", "G"],
    ["A", "D", "H", "I", "J"],
    ["B", "D", "E", "H", "K"],
]


@pytest.fixture
def paper_records() -> RecordCollection:
    return records_of(PAPER_FIG2)
