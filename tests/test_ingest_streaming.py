"""The StreamingIndex façade: write path, read path, recovery, integration.

The contract under test is the ISSUE's acceptance property: a streaming
index — memtable plus any mix of generations, before or after crashes —
must answer probes bit-identically to a single ``SegmentIndex`` over the
same records, and a major compaction must leave one generation whose
pickle bytes equal a fresh build's.
"""

from __future__ import annotations

import pickle

import pytest

from repro.data.records import Record, RecordCollection
from repro.errors import ClusterError, ConfigError, DataError
from repro.ingest import IngestConfig, StreamingIndex
from repro.mapreduce.hdfs import InMemoryDFS
from repro.service import SegmentIndex, load_index, save_index
from tests.conftest import brute_force_search, random_collection


@pytest.fixture(scope="module")
def corpus():
    return random_collection(80, seed=31)


def _stream(corpus, dfs=None, **config):
    settings = {"memtable_limit": 12, "fanout": 2}
    settings.update(config)
    return StreamingIndex.create(
        dfs if dfs is not None else InMemoryDFS(),
        records=RecordCollection(list(corpus)[:30]),
        n_vertical=5,
        config=IngestConfig(**settings),
    )


def _feed(streaming, corpus, batch=10):
    tail = list(corpus)[30:]
    for i in range(0, len(tail), batch):
        streaming.apply_batch(tail[i:i + batch])
    return streaming


class TestWritePath:
    def test_probe_equals_single_index_oracle(self, corpus):
        streaming = _feed(_stream(corpus), corpus)
        oracle = SegmentIndex.build(corpus, n_vertical=5)
        for record in corpus:
            hits = streaming.probe(record.tokens, 0.5)
            assert hits == oracle.probe(record.tokens, 0.5)
            assert hits == brute_force_search(corpus, record.tokens, 0.5)

    def test_probe_batch_equals_sequential(self, corpus):
        streaming = _feed(_stream(corpus), corpus)
        encoded = [
            streaming.encode_query(record.tokens)
            for record in list(corpus)[::7]
        ]
        assert streaming.probe_batch(encoded, 0.5) == [
            streaming.probe_batch([query], 0.5)[0] for query in encoded
        ]

    def test_auto_flush_and_compaction_bound_the_generations(self, corpus):
        streaming = _feed(_stream(corpus, memtable_limit=8), corpus)
        status = streaming.status()
        assert status["flushes"] >= 2
        assert status["compactions"] >= 1
        # Leveled compaction keeps the live set below the fanout per level.
        assert len(streaming.generations) < status["flushes"] + 1

    def test_flush_truncates_the_wal(self, corpus):
        streaming = _stream(corpus, memtable_limit=1_000)
        streaming.apply_batch(list(corpus)[30:45])
        assert streaming.wal.stats()["segments"] == 1
        streaming.flush()
        assert streaming.wal.stats()["segments"] == 0
        assert len(streaming) == 45

    def test_duplicate_rid_rejected_against_every_tier(self, corpus):
        streaming = _feed(_stream(corpus), corpus)
        wal_before = streaming.wal.stats()["entries"]
        with pytest.raises(DataError):
            streaming.apply_batch([Record.make(corpus[0].rid, ["x"])])
        with pytest.raises(DataError):
            streaming.apply_batch([Record.make(corpus[-1].rid, ["x"])])
        with pytest.raises(DataError):
            streaming.apply_batch(
                [Record.make(7001, ["x"]), Record.make(7001, ["y"])]
            )
        with pytest.raises(DataError):
            streaming.apply_batch(
                [Record.make(7002, ["x"]), Record.make(2**63, ["y"])]
            )
        # A rejected batch leaves no trace: nothing logged, nothing applied.
        assert streaming.wal.stats()["entries"] == wal_before
        assert 7001 not in streaming and 7002 not in streaming

    def test_empty_batch_is_a_noop(self, corpus):
        streaming = _stream(corpus)
        assert streaming.apply_batch([]) == 0

    def test_major_compaction_is_structurally_identical(self, corpus):
        streaming = _feed(_stream(corpus), corpus)
        streaming.compact(major=True)
        assert len(streaming.generations) == 1
        assert pickle.dumps(streaming.generations[0].index) == pickle.dumps(
            streaming.to_segment_index()
        )

    def test_empty_bootstrap_grows_from_nothing(self):
        streaming = StreamingIndex.create(
            InMemoryDFS(), config=IngestConfig(memtable_limit=4, fanout=2)
        )
        assert len(streaming) == 0
        records = [Record.make(i, [f"t{j}" for j in range(i, i + 4)])
                   for i in range(10)]
        for i in range(0, 10, 2):
            streaming.apply_batch(records[i:i + 2])
        oracle = SegmentIndex.build(
            RecordCollection(records), n_vertical=5
        )
        for record in records:
            assert streaming.probe(record.tokens, 0.6) == oracle.probe(
                record.tokens, 0.6
            )

    def test_invalid_config_is_typed(self):
        with pytest.raises(ConfigError):
            IngestConfig(memtable_limit=0)
        with pytest.raises(ConfigError):
            IngestConfig(fanout=1)

    @pytest.mark.parametrize("records", [None, RecordCollection([])])
    def test_n_vertical_below_one_is_typed_without_records(self, records):
        """An empty bootstrap never builds, so nothing else would read it."""
        with pytest.raises(ConfigError, match="n_vertical must be >= 1"):
            StreamingIndex.create(InMemoryDFS(), records=records,
                                  n_vertical=0)


class TestRecovery:
    def test_recover_roundtrip_is_probe_identical(self, corpus):
        dfs = InMemoryDFS()
        streaming = _feed(_stream(corpus, dfs=dfs), corpus)
        recovered = StreamingIndex.recover(dfs)
        assert sorted(recovered.rids()) == sorted(streaming.rids())
        for record in list(corpus)[::6]:
            assert recovered.probe(record.tokens, 0.5) == streaming.probe(
                record.tokens, 0.5
            )

    def test_recover_replays_unflushed_batches(self, corpus):
        dfs = InMemoryDFS()
        streaming = _stream(corpus, dfs=dfs, memtable_limit=1_000)
        streaming.apply_batch(list(corpus)[30:40])
        recovered = StreamingIndex.recover(dfs)
        assert len(recovered) == 40
        assert len(recovered.memtable) == 10

    def test_recover_without_state_is_typed(self):
        from repro.errors import IngestError

        with pytest.raises(IngestError):
            StreamingIndex.recover(InMemoryDFS())

    def test_recovered_writer_continues_ingesting(self, corpus):
        dfs = InMemoryDFS()
        streaming = _stream(corpus, dfs=dfs, memtable_limit=1_000)
        streaming.apply_batch(list(corpus)[30:40])
        recovered = StreamingIndex.recover(dfs)
        recovered.apply_batch(list(corpus)[40:55])
        recovered.compact(major=True)
        oracle = SegmentIndex.build(
            RecordCollection(list(corpus)[:55]), n_vertical=5
        )
        for record in list(corpus)[:55:5]:
            assert recovered.probe(record.tokens, 0.5) == oracle.probe(
                record.tokens, 0.5
            )


    def test_appends_after_a_recovery_over_an_emptied_wal_survive(self, corpus):
        """A flush empties the WAL; a writer recovered then must not log at
        sequence numbers the manifest already covers, or the next recovery
        skips — loses — batches it acknowledged."""
        dfs = InMemoryDFS()
        config = IngestConfig(memtable_limit=1_000)
        streaming = _stream(corpus, dfs=dfs, memtable_limit=1_000)
        streaming.apply_batch(list(corpus)[30:40])
        streaming.flush()
        recovered = StreamingIndex.recover(dfs, config=config)
        recovered.apply_batch(list(corpus)[40:50])
        again = StreamingIndex.recover(dfs, config=config)
        assert len(again) == 50
        assert again.rids() == [record.rid for record in list(corpus)[:50]]


class TestServiceIntegration:
    def test_similarity_service_over_streaming_index(self, corpus):
        """A one-shard router serves a streaming tier as its ingest leg:
        search, search_batch and search_rid all answer like one index
        over the union."""
        from repro.cluster import build_cluster

        router = build_cluster(
            RecordCollection(list(corpus)[:30]), n_shards=1, n_vertical=5
        )
        router.attach_ingest(StreamingIndex.attach(
            InMemoryDFS(), "ingest", router.order, router.partitioner,
            config=IngestConfig(memtable_limit=12, fanout=2),
        ))
        tail = list(corpus)[30:]
        for i in range(0, len(tail), 10):
            router.apply_batch(tail[i:i + 10])
        oracle = SegmentIndex.build(corpus, n_vertical=5)
        for record in list(corpus)[::9]:
            assert router.search(record.tokens, 0.5) == oracle.probe(
                record.tokens, 0.5
            )
        queries = [record.tokens for record in list(corpus)[25:35]]
        assert router.search_batch(queries, 0.5) == [
            oracle.probe(query, 0.5) for query in queries
        ]
        for record in (corpus[0], corpus[40]):
            assert router.search_rid(record.rid, 0.5) == [
                hit for hit in oracle.probe(record.tokens, 0.5)
                if hit.rid != record.rid
            ]

    def test_service_save_writes_a_plain_snapshot(self, corpus, tmp_path):
        streaming = _feed(_stream(corpus), corpus)
        path = tmp_path / "streamed.idx"
        save_index(streaming.to_segment_index(), path)
        loaded = load_index(path)
        assert isinstance(loaded, SegmentIndex)
        for record in list(corpus)[::9]:
            assert loaded.probe(record.tokens, 0.5) == streaming.probe(
                record.tokens, 0.5
            )


class TestClusterIntegration:
    def _cluster(self, corpus):
        from repro.cluster import build_cluster

        router = build_cluster(
            RecordCollection(list(corpus)[:50]), n_shards=3, replication=2,
            n_vertical=5,
        )
        streaming = StreamingIndex.attach(
            InMemoryDFS(), "ingest", router.order, router.partitioner,
            config=IngestConfig(memtable_limit=8, fanout=2),
        )
        router.attach_ingest(streaming)
        return router

    def test_scatter_gather_includes_the_ingest_tier(self, corpus):
        router = self._cluster(corpus)
        tail = list(corpus)[50:]
        for i in range(0, len(tail), 10):
            router.apply_batch(tail[i:i + 10])
        oracle = SegmentIndex.build(corpus, n_vertical=5)
        for record in list(corpus)[::7]:
            assert router.search(record.tokens, 0.5) == oracle.probe(
                record.tokens, 0.5
            )
        status = router.status()["ingest"]
        assert status["records"] == len(tail)
        assert status["alive"]

    def test_ingest_rejects_rids_owned_by_the_shards(self, corpus):
        router = self._cluster(corpus)
        with pytest.raises(DataError):
            router.apply_batch([Record.make(corpus[0].rid, ["x"])])

    def test_double_attach_is_typed(self, corpus):
        router = self._cluster(corpus)
        with pytest.raises(ClusterError):
            router.attach_ingest(
                StreamingIndex.attach(
                    InMemoryDFS(), "ingest", router.order, router.partitioner
                )
            )

    def test_foreign_order_is_typed(self, corpus):
        from repro.cluster import build_cluster

        router = build_cluster(
            RecordCollection(list(corpus)[:50]), n_shards=3, n_vertical=5
        )
        foreign = StreamingIndex.create(
            InMemoryDFS(), records=RecordCollection(list(corpus)[:10]),
            n_vertical=5,
        )
        with pytest.raises(ClusterError):
            router.attach_ingest(foreign)

    def test_down_ingest_tier_fails_typed_or_flags_partial(self, corpus):
        router = self._cluster(corpus)
        router.apply_batch(list(corpus)[50:60])
        router.ingest.fail()
        with pytest.raises(ClusterError):
            router.search(corpus[0].tokens, 0.5)
        partial = router.search_partial(corpus[0].tokens, 0.5)
        assert not partial.complete
        assert -1 in partial.missing_shards
        router.ingest.restore()
        oracle = SegmentIndex.build(
            RecordCollection(list(corpus)[:60]), n_vertical=5
        )
        assert router.search(corpus[0].tokens, 0.5) == oracle.probe(
            corpus[0].tokens, 0.5
        )
