"""Tests for the segment index: probe exactness, batching, incremental growth.

The centerpiece is the property test the serving layer's contract rests
on: for every record of a seeded corpus, ``probe(record.tokens, θ)``
returns precisely the partner set (and scores) ``FSJoin.run`` produces —
for multiple thresholds and similarity functions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.naive import naive_self_join
from repro.core import FSJoin, FSJoinConfig
from repro.data.records import Record, RecordCollection
from repro.errors import DataError
from repro.mapreduce.counters import Counters
from repro.service import SegmentIndex
from tests.conftest import index_self_join, random_collection


def _partners_of(rid, pairs):
    """Partner map of one record inside a (pair → score) result set."""
    partners = {}
    for (rid_a, rid_b), score in pairs.items():
        if rid_a == rid:
            partners[rid_b] = score
        elif rid_b == rid:
            partners[rid_a] = score
    return partners


@pytest.fixture(scope="module")
def corpus():
    return random_collection(60, seed=41)


@pytest.fixture(scope="module")
def index(corpus):
    return SegmentIndex.build(corpus, n_vertical=5)


class TestProbeExactness:
    @pytest.mark.parametrize("theta", [0.5, 0.8])
    @pytest.mark.parametrize("func", ["jaccard", "cosine"])
    def test_probe_equals_fsjoin_partner_sets(self, corpus, index, theta, func):
        """The acceptance property: search ≡ FSJoin, per record."""
        oracle = FSJoin(
            FSJoinConfig(theta=theta, func=func, n_vertical=5)
        ).run(corpus).result_pairs
        for record in corpus:
            expected = _partners_of(record.rid, oracle)
            hits = {
                hit.rid: hit.score
                for hit in index.probe(record.tokens, theta, func=func)
                if hit.rid != record.rid
            }
            assert hits == expected, f"record {record.rid} diverged"

    def test_probe_is_sorted_best_first(self, corpus, index):
        hits = index.probe(corpus[0].tokens, 0.3)
        keys = [(-hit.score, hit.rid) for hit in hits]
        assert keys == sorted(keys)

    def test_indexed_record_probes_itself_at_one(self, corpus, index):
        hits = index.probe(corpus[0].tokens, 0.9)
        assert hits[0].rid == corpus[0].rid
        assert hits[0].score == 1.0

    def test_empty_query_matches_nothing(self, index):
        assert index.probe([], 0.5) == []

    def test_all_unknown_tokens_match_nothing(self, index):
        assert index.probe(["zz-not-a-token"], 0.1) == []

    def test_unknown_tokens_shrink_scores_exactly(self, corpus, index):
        """Unknown tokens match nothing but still enlarge the query set."""
        base = list(corpus[0].tokens)
        hits = {
            h.rid: h.score
            for h in index.probe(base + ["zz-unseen-1", "zz-unseen-2"], 0.1)
        }
        size_q = len(base) + 2
        self_size = corpus[0].size
        expected_self = self_size / (size_q + self_size - self_size)
        assert hits[corpus[0].rid] == pytest.approx(expected_self)

    def test_duplicate_probe_tokens_are_canonicalized(self, corpus, index):
        tokens = list(corpus[1].tokens)
        assert index.probe(tokens + tokens, 0.5) == index.probe(tokens, 0.5)


class TestProbeBatch:
    def test_batch_equals_sequential(self, corpus, index):
        queries = [index.encode_query(r.tokens) for r in corpus]
        batch = index.probe_batch(queries, 0.6)
        sequential = [index.probe_batch([q], 0.6)[0] for q in queries]
        assert batch == sequential

    def test_batch_amortizes_posting_lookups(self, corpus, index):
        """Shared probe tokens cost one posting scan for the whole batch."""
        queries = [index.encode_query(r.tokens) for r in corpus] * 2
        batched, sequential = Counters(), Counters()
        index.probe_batch(queries, 0.6, counters=batched)
        for query in queries:
            index.probe_batch([query], 0.6, counters=sequential)
        group = "service.probe"
        assert batched.get(group, "posting_lookups") < sequential.get(
            group, "posting_lookups"
        )


class TestSelfJoin:
    @pytest.mark.parametrize("theta", [0.5, 0.8])
    def test_matches_fsjoin_exactly(self, corpus, index, theta):
        oracle = FSJoin(
            FSJoinConfig(theta=theta, n_vertical=5)
        ).run(corpus).result_pairs
        assert index_self_join(index, theta) == oracle


class TestApplyBatch:
    def test_grown_index_equals_fresh_build(self, corpus):
        """Index part, extend with the rest (plus brand-new vocabulary)."""
        head = RecordCollection(list(corpus)[:40])
        tail = list(corpus)[40:] + [
            Record.make(900, ["nv-a", "nv-b", "nv-c"]),
            Record.make(901, ["nv-a", "nv-b", "nv-c", "nv-d"]),
        ]
        grown = SegmentIndex.build(head, n_vertical=5)
        grown.apply_batch(tail)

        everything = RecordCollection(list(corpus) + tail[-2:])
        oracle = FSJoin(
            FSJoinConfig(theta=0.6, n_vertical=5)
        ).run(everything).result_pairs
        assert index_self_join(grown, 0.6) == oracle

    @settings(max_examples=30, deadline=None)
    @given(
        func=st.sampled_from(["jaccard", "cosine", "dice"]),
        theta=st.sampled_from([0.5, 0.7, 0.85]),
        cuts=st.sets(st.integers(1, 59), max_size=4),
    )
    def test_apply_then_probe_maintains_the_self_join(self, corpus, func,
                                                      theta, cuts):
        """An incremental self-join: FS-Join the first batch, then per
        later batch ``apply_batch`` and one ``probe_batch`` of the batch's
        own records, self-hits dropped.  The accumulated pairs and scores
        equal the all-pairs oracle over every record."""
        records = list(corpus)
        bounds = [0, *sorted(cuts), len(records)]
        batches = [records[a:b] for a, b in zip(bounds, bounds[1:])]
        first = RecordCollection(batches[0])
        pairs = dict(FSJoin(
            FSJoinConfig(theta=theta, func=func, n_vertical=5)
        ).run(first).result_pairs)
        grown = SegmentIndex.build(first, n_vertical=5)
        for batch in batches[1:]:
            grown.apply_batch(batch)
            queries = [grown.encode_query(r.tokens) for r in batch]
            for record, hits in zip(batch, grown.probe_batch(queries, theta,
                                                             func)):
                for hit in hits:
                    if hit.rid != record.rid:
                        key = tuple(sorted((record.rid, hit.rid)))
                        pairs[key] = hit.score
        assert pairs == naive_self_join(corpus, theta, func)

    def test_new_vocabulary_is_probeable(self, corpus):
        grown = SegmentIndex.build(corpus, n_vertical=5)
        grown.apply_batch([Record.make(900, ["nv-a", "nv-b", "nv-c"])])
        hits = grown.probe(["nv-a", "nv-b", "nv-c"], 0.9)
        assert [hit.rid for hit in hits] == [900]
        assert hits[0].score == 1.0

    def test_duplicate_rid_rejected_before_any_insert(self, corpus, index):
        size_before = len(index)
        with pytest.raises(DataError):
            index.apply_batch(
                [Record.make(990, ["x"]), Record.make(corpus[0].rid, ["y"])]
            )
        assert len(index) == size_before
        assert 990 not in index

    def test_duplicate_rid_within_batch_rejected(self, index):
        with pytest.raises(DataError):
            index.apply_batch(
                [Record.make(991, ["x"]), Record.make(991, ["y"])]
            )
        assert 991 not in index

    def test_empty_batch_is_a_noop(self, corpus):
        grown = SegmentIndex.build(corpus, n_vertical=5)
        assert grown.apply_batch([]) == 0
        assert len(grown) == len(corpus)

    def test_oversized_rid_rejected_before_any_insert(self, corpus):
        """A rid that overflows the 64-bit posting columns must fail the
        whole batch *before* the first record mutates the index — earlier
        valid records must not be half-applied (regression: the check
        used to live in _insert, after the vocab was already extended)."""
        grown = SegmentIndex.build(corpus, n_vertical=5)
        size_before = len(grown)
        vocab_before = grown.posting_stats()["vocab"]
        with pytest.raises(DataError):
            grown.apply_batch(
                [Record.make(992, ["brand-new-token"]),
                 Record.make(2**63, ["y"])]
            )
        assert len(grown) == size_before
        assert 992 not in grown
        assert grown.posting_stats()["vocab"] == vocab_before


class TestIntrospection:
    def test_len_and_contains(self, corpus, index):
        assert len(index) == len(corpus)
        assert corpus[0].rid in index
        assert 987654 not in index

    def test_tokens_of_roundtrip(self, corpus, index):
        assert set(index.tokens_of(corpus[0].rid)) == set(corpus[0].tokens)

    def test_tokens_of_missing_rid(self, index):
        with pytest.raises(DataError):
            index.tokens_of(987654)

    def test_posting_stats_shape(self, corpus, index):
        stats = index.posting_stats()
        assert stats["records"] == len(corpus)
        assert stats["fragments"] == index.n_fragments
        assert stats["postings"] > 0
