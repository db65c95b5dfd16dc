"""The columnar index vs an independent oracle: bit-identical by contract.

The index's one evaluator (flat array posting columns in length order,
batched candidate generation over each run's length window, bounded
merge) must return exactly what a
brute-force scan over token sets returns — same rids, same scores, same order — for
probes, batches and the self-join.  The oracle
(:func:`tests.conftest.brute_force_search`, ``naive_self_join``,
``FSJoin.run``) shares no logic with the index.  Also pinned here: the
``probe_batch`` / ``search_batch`` result-ordering guarantee (also when a
caller fans a batch out over serial/thread/process workers), the
byte-accurate ``posting_stats``, and the v5 snapshot format.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.baselines.naive import naive_self_join
from repro.cluster import build_cluster
from repro.core import FilterConfig, FSJoin, FSJoinConfig
from repro.errors import SnapshotError
from repro.mapreduce.counters import Counters
from repro.mapreduce.executors import create_executor
from repro.service import SegmentIndex, load_index, save_index
from repro.service.columnar import FragmentPostings
from repro.service.snapshot import SNAPSHOT_FORMAT
from tests.conftest import brute_force_search, index_self_join, random_collection


@pytest.fixture(scope="module")
def corpus():
    return random_collection(60, seed=41)


@pytest.fixture(scope="module")
def index(corpus):
    return SegmentIndex.build(corpus, n_vertical=5)


class TestPathEquivalence:
    """Two paths to every answer: the index and the brute-force oracle."""

    @pytest.mark.parametrize("theta", [0.4, 0.6, 0.85])
    @pytest.mark.parametrize("func", ["jaccard", "cosine", "dice"])
    def test_probe_identical_across_paths(self, corpus, index, theta, func):
        for record in corpus:
            assert index.probe(
                record.tokens, theta, func=func
            ) == brute_force_search(
                corpus, record.tokens, theta, func
            ), f"rid {record.rid} diverged"

    @pytest.mark.parametrize(
        "filters",
        [FilterConfig(), FilterConfig.only(), FilterConfig.only("strl"),
         FilterConfig.only("segl"), FilterConfig.only("segi"),
         FilterConfig.only("segd"),
         FilterConfig(strl=True, segl=True, segi=True, segd=True,
                      early_verify=False)],
        ids=["all", "none", "strl", "segl", "segi", "segd", "no-early"],
    )
    def test_probe_identical_under_every_filter_config(self, corpus, index,
                                                       filters):
        # The probe takes no filter config — it verifies whole id columns;
        # the lemmas are the batch reducers'.  Whichever of them the
        # filter job runs, the two sides report the same pairs.
        assert index_self_join(index, 0.5) == FSJoin(
            FSJoinConfig(theta=0.5, n_vertical=5, filters=filters)
        ).run(corpus).result_pairs

    def test_probe_batch_identical_across_paths(self, corpus, index):
        queries = [index.encode_query(r.tokens) for r in corpus]
        assert index.probe_batch(queries, 0.5) == [
            brute_force_search(corpus, r.tokens, 0.5) for r in corpus
        ]

    def test_self_join_identical_across_paths(self, corpus, index):
        pairs = index_self_join(index, 0.6)
        assert pairs == naive_self_join(corpus, 0.6)
        assert pairs == FSJoin(
            FSJoinConfig(theta=0.6, n_vertical=5)
        ).run(corpus).result_pairs

    def test_unknown_token_probes_agree(self, corpus, index):
        # Unknown tokens match nothing but still enlarge the query set.
        queries = [["t001", "t002", "never-seen-a", "never-seen-b"]] + [
            list(record.tokens) + ["never-seen-a"]
            for record in list(corpus)[:20]
        ]
        answered = 0
        for tokens in queries:
            hits = index.probe(tokens, 0.3)
            assert hits == brute_force_search(corpus, tokens, 0.3)
            answered += bool(hits)
        assert answered

    def test_comparison_counters_match_across_paths(self, corpus, index):
        """Sequential and batched candidate generation feed the evaluator
        the same candidates: identical comparison totals, with the batch
        sharing posting lookups (faster, not lazier), and the funnel
        narrowing monotonically.  Every candidate is inside its length
        window, so there is no StrL count and nothing verified but the
        candidates."""
        sequential, batched = Counters(), Counters()
        for record in corpus:
            index.probe(record.tokens, 0.5, counters=sequential)
        index.probe_batch(
            [index.encode_query(r.tokens) for r in corpus], 0.5,
            counters=batched,
        )
        seq = sequential.group("service.probe")
        bat = batched.group("service.probe")
        for key in ("verify_token_comparisons", "candidates", "results",
                    "probes"):
            assert seq[key] == bat[key], key
        assert set(seq) == set(bat) == {
            "probes", "posting_lookups", "candidates",
            "verify_token_comparisons", "results",
        }
        assert bat["posting_lookups"] <= seq["posting_lookups"]
        assert seq["candidates"] >= seq["results"] > 0


class TestBatchOrderingContract:
    """probe_batch: per-query hits sorted by (-score, rid), lists aligned
    with input order, and the service's batch serving the same lists."""

    @pytest.fixture(scope="class")
    def queries(self, corpus):
        return [list(r.tokens) for r in corpus]

    def test_batch_equals_sequential_probes(self, corpus, index):
        encoded = [index.encode_query(r.tokens) for r in corpus]
        batch = index.probe_batch(encoded, 0.5)
        for query, hits in zip(encoded, batch):
            assert [hits] == index.probe_batch([query], 0.5)

    def test_hits_sorted_by_score_then_rid(self, corpus, index):
        encoded = [index.encode_query(r.tokens) for r in corpus]
        for hits in index.probe_batch(encoded, 0.3):
            assert hits == sorted(hits, key=lambda h: (-h.score, h.rid))

    def test_search_batch_preserves_order(self, index, queries):
        batch = build_cluster(index, n_shards=1).search_batch(queries, 0.5)
        assert batch == index.probe_batch(
            [index.encode_query(q) for q in queries], 0.5
        )
        for hits in batch:
            assert hits == sorted(hits, key=lambda h: (-h.score, h.rid))

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_executor_fanout_preserves_order(self, index, queries, executor):
        """A caller that fans a batch out in chunks over its own workers
        (each serving its chunk from its own index; a process worker from
        an unpickled copy of it) gets back the in-process batch."""
        chunks = [(index, queries[i:i + 16], 0.5)
                  for i in range(0, len(queries), 16)]
        fanned = [
            hits
            for chunk in create_executor(executor).run_tasks(
                _serve_chunk, chunks
            )
            for hits in chunk
        ]
        assert fanned == _serve_chunk((index, queries, 0.5))
        for hits in fanned:
            assert hits == sorted(hits, key=lambda h: (-h.score, h.rid))


def _serve_chunk(task):
    """Worker task: serve one chunk of a batch (module-level: picklable)."""
    index, chunk, theta = task
    return index.probe_batch([index.encode_query(q) for q in chunk], theta)


class TestPostingStats:
    def test_reports_actual_columnar_bytes(self, index):
        stats = index.posting_stats()
        assert stats["postings"] > 0
        expected_posting = sum(fp.nbytes() for fp in index._postings)
        assert stats["posting_bytes"] == expected_posting > 0
        expected_record = sum(
            col.buffer_info()[1] * col.itemsize
            for col in index._ranks.values()
        )
        assert stats["record_bytes"] == expected_record > 0

    def test_bytes_grow_with_corpus(self):
        small = SegmentIndex.build(random_collection(10, seed=3), n_vertical=4)
        large = SegmentIndex.build(random_collection(50, seed=3), n_vertical=4)
        assert (large.posting_stats()["posting_bytes"]
                > small.posting_stats()["posting_bytes"])


#: Record lengths for the hand-built postings below: rid → length.
LENGTHS = {1: 5, 2: 3, 3: 4, 9: 2, 10: 1, 20: 1, 100: 6, 101: 2}


class TestFragmentPostings:
    def test_staged_entries_visible_after_seal(self):
        """The window reads the stage with the sealed run's length test,
        and flat columns are refused until the owner seals."""
        fp = FragmentPostings()
        fp.add(7, 100)
        fp.add(7, 101)
        fp.add(3, 100)
        assert len(fp) == 3
        assert fp.window(7, 1, 9, LENGTHS.get) == [100, 101]
        assert fp.window(7, 3, 9, LENGTHS.get) == [100]
        with pytest.raises(ValueError):
            fp.copy()
        fp.seal(LENGTHS.get)
        assert dict(fp.items()) == {7: [101, 100], 3: [100]}
        assert list(fp.window(7, 1, 9, LENGTHS.get)) == [101, 100]
        assert list(fp.window(7, 3, 9, LENGTHS.get)) == [100]

    def test_seal_appends_after_existing_run(self):
        """A stage goes after its token's run; with a length key the
        touched run is re-sorted by length, ties in insertion order."""
        fp = FragmentPostings()
        fp.add(5, 1)
        fp.seal(None)
        fp.add(5, 2)
        fp.add(4, 9)
        fp.seal(None)
        assert dict(fp.items())[5] == [1, 2]
        assert list(fp.tokens) == [4, 5]
        fp.add(5, 3)
        fp.add(5, 101)
        fp.seal(LENGTHS.get)
        assert dict(fp.items())[5] == [101, 2, 3, 1]
        assert list(fp.window(5, 3, 4, LENGTHS.get)) == [2, 3]

    def test_copy_is_independent(self):
        fp = FragmentPostings()
        fp.add(1, 10)
        fp.seal(None)
        dup = fp.copy()
        dup.add(2, 20)
        dup.seal(LENGTHS.get)
        assert len(fp) == 1 and len(dup) == 2

    def test_pickle_round_trip(self):
        fp = FragmentPostings()
        for token, rid in [(4, 1), (4, 2), (9, 3)]:
            fp.add(token, rid)
        fp.seal(LENGTHS.get)
        clone = pickle.loads(pickle.dumps(fp))
        assert list(clone.items()) == list(fp.items())
        assert clone.nbytes() == fp.nbytes()
        # Three 8-byte columns: tokens, offsets (one more than tokens) and
        # one record id per posting entry — nothing else is stored.
        assert fp.nbytes() == 8 * (len(fp.tokens) + len(fp.tokens) + 1 + len(fp))
        assert fp.nbytes() == 8 * (2 + 3 + 3)


class TestSnapshotCompat:
    def test_v3_round_trip_preserves_results(self, corpus, index, tmp_path):
        path = tmp_path / "wiki.idx"
        save_index(index, path)
        restored = load_index(path)
        assert pickle.dumps(restored) == pickle.dumps(index)
        for record in list(corpus)[:15]:
            assert (restored.probe(record.tokens, 0.5)
                    == index.probe(record.tokens, 0.5))

    def test_v2_snapshot_loads_transparently(self, tmp_path):
        """No longer: a pre-columnar (version 2) file gets the typed
        rebuild error from its header alone — the payload is never
        unpickled."""
        body = b"not a pickle: unpickling this would raise, not refuse"
        path = tmp_path / "old.idx"
        path.write_bytes(pickle.dumps({
            "format": SNAPSHOT_FORMAT,
            "version": 2,
            "stats": {},
            "digest": hashlib.sha256(body).hexdigest(),
            "index_bytes": body,
        }))
        with pytest.raises(SnapshotError, match="rebuild the index with "
                                                "'repro index'"):
            load_index(path)

    def test_parent_v3_snapshot_is_refused_not_unpickled(
            self, index, tmp_path, monkeypatch):
        """A version-3 file stored a position column beside the rids: its
        postings pickle as 4-tuples this build's ``__setstate__`` cannot
        take.  The header's version refuses it — one typed line naming
        both versions and the command — before the payload is touched."""
        from array import array

        def v3_state(postings):
            return (postings.tokens, postings.offsets, postings.rids,
                    array("i", [0] * len(postings.rids)))

        with monkeypatch.context() as patch:
            patch.setattr(FragmentPostings, "__getstate__", v3_state)
            body = pickle.dumps(index)
        with pytest.raises(ValueError):
            pickle.loads(body)
        path = tmp_path / "parent.idx"
        path.write_bytes(pickle.dumps({
            "format": SNAPSHOT_FORMAT,
            "version": 3,
            "stats": {},
            "digest": hashlib.sha256(body).hexdigest(),
            "index_bytes": body,
        }))
        with pytest.raises(SnapshotError) as caught:
            load_index(path)
        message = str(caught.value)
        assert "\n" not in message
        assert "file has 3" in message and "reads 5" in message
        assert "rebuild the index with 'repro index'" in message
