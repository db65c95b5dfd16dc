"""Tests for the serving surface of one index: the gateway's result
cache, one-node routing and batching, snapshots."""

from __future__ import annotations

import hashlib
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.errors import ConfigError, DataError, SnapshotError
from repro.gateway import GatewayRequest, SimilarityGateway
from repro.service import LRUCache, SegmentIndex, load_index, save_index
from repro.service.snapshot import SNAPSHOT_FORMAT, SNAPSHOT_VERSION
from repro.similarity.functions import SimilarityFunction
from tests.conftest import random_collection, records_of

GATEWAY = "gateway"


@pytest.fixture(scope="module")
def corpus():
    return random_collection(50, seed=51)


@pytest.fixture()
def index(corpus):
    return SegmentIndex.build(corpus, n_vertical=5)


@pytest.fixture()
def router(index):
    return build_cluster(index, n_shards=1)


@pytest.fixture()
def gateway(router):
    return SimilarityGateway(router)


def ask(gateway, tokens, theta, **options):
    """One request through the gateway, as its own scheduling wave."""
    (response,) = gateway.serve(
        [GatewayRequest(tuple(tokens), theta, **options)]
    )
    return list(response.hits)


class TestLRUCache:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError):
            LRUCache(-1)

    def test_put_get_roundtrip(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" so "b" is the LRU entry
        cache.put("c", 3)
        assert cache.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_capacity_zero_disables_caching(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None


class TestSearch:
    """The one result cache in front of a node is the gateway's."""

    def test_hit_miss_counters(self, corpus, gateway):
        tokens = corpus[0].tokens
        first = ask(gateway, tokens, 0.6)
        second = ask(gateway, tokens, 0.6)
        assert first == second
        assert gateway.metrics.get(GATEWAY, "dispatched") == 1
        assert gateway.metrics.get(GATEWAY, "cache_hits") == 1

    def test_cached_result_is_exact(self, corpus, index, gateway):
        tokens = corpus[0].tokens
        cold = ask(gateway, tokens, 0.6)
        warm = ask(gateway, tokens, 0.6)
        assert cold == warm == index.probe(tokens, 0.6)

    def test_cache_key_canonicalizes_token_order(self, corpus, gateway):
        tokens = list(corpus[0].tokens)
        ask(gateway, tokens, 0.6)
        ask(gateway, list(reversed(tokens)), 0.6)
        assert gateway.metrics.get(GATEWAY, "cache_hits") == 1

    def test_distinct_theta_and_func_miss(self, corpus, gateway):
        tokens = corpus[0].tokens
        ask(gateway, tokens, 0.6)
        ask(gateway, tokens, 0.7)
        ask(gateway, tokens, 0.6, func=SimilarityFunction.COSINE)
        assert gateway.metrics.get(GATEWAY, "dispatched") == 3
        assert gateway.metrics.get(GATEWAY, "cache_hits") == 0

    def test_k_truncates_after_cache(self, corpus, gateway):
        tokens = corpus[0].tokens
        full = ask(gateway, tokens, 0.3)
        top2 = ask(gateway, tokens, 0.3, k=2)
        assert top2 == full[:2]
        # k is applied per call, so the truncated call still cache-hits.
        assert gateway.metrics.get(GATEWAY, "cache_hits") == 1

    def test_search_rid_excludes_self(self, corpus, index, router):
        rid = corpus[0].rid
        hits = router.search_rid(rid, 0.3)
        assert all(hit.rid != rid for hit in hits)
        assert hits == [hit for hit in index.probe(corpus[0].tokens, 0.3)
                        if hit.rid != rid]

    def test_search_rid_unknown(self, router):
        with pytest.raises(DataError):
            router.search_rid(987654, 0.5)


class TestSearchBatch:
    def test_matches_sequential_search(self, corpus, index, router):
        queries = [record.tokens for record in corpus]
        assert router.search_batch(queries, 0.6) == [
            index.probe(q, 0.6) for q in queries
        ]

    def test_duplicate_queries_probed_once(self, corpus, router):
        queries = [corpus[0].tokens] * 5 + [corpus[1].tokens]
        results = router.search_batch(queries, 0.6)
        assert len(results) == 6
        assert results[0] == results[4]
        assert router.metrics.get("cluster.route", "batch_deduped") == 4
        assert router.replica(0, 0).counters.get("cluster.node",
                                                 "probes") == 2

    def test_batch_after_warm_cache_probes_nothing(self, corpus, gateway):
        requests = [GatewayRequest(tuple(record.tokens), 0.6)
                    for record in corpus[:5]]
        gateway.serve(requests)
        node = gateway.router.replica(0, 0)
        probes_before = node.counters.get("cluster.node", "probes")
        again = gateway.serve(requests)
        assert node.counters.get("cluster.node", "probes") == probes_before
        assert len(again) == 5 and all(response.ok for response in again)

    def test_empty_batch(self, router):
        assert router.search_batch([], 0.6) == []


class TestSnapshot:
    def test_roundtrip_preserves_search_results(self, corpus, index, tmp_path):
        path = tmp_path / "corpus.idx"
        save_index(index, path)
        reloaded = load_index(path)
        for record in corpus[:10]:
            assert reloaded.probe(record.tokens, 0.6) == index.probe(
                record.tokens, 0.6
            )

    def test_no_tmp_file_left_behind(self, index, tmp_path):
        save_index(index, tmp_path / "corpus.idx")
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.idx"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshot"):
            load_index(tmp_path / "absent.idx")

    def test_junk_file(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"this is not a pickle")
        with pytest.raises(SnapshotError, match="not a readable"):
            load_index(path)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "other.idx"
        path.write_bytes(
            pickle.dumps({"format": "something-else", "version": 1})
        )
        with pytest.raises(SnapshotError, match="not a .*snapshot"):
            load_index(path)

    def test_version_mismatch_names_both_versions(self, index, tmp_path):
        path = tmp_path / "old.idx"
        save_index(index, path)
        doc = pickle.loads(path.read_bytes())
        assert doc["format"] == SNAPSHOT_FORMAT
        doc["version"] = SNAPSHOT_VERSION + 1
        path.write_bytes(pickle.dumps(doc))
        with pytest.raises(SnapshotError) as excinfo:
            load_index(path)
        message = str(excinfo.value)
        assert str(SNAPSHOT_VERSION + 1) in message
        assert str(SNAPSHOT_VERSION) in message
        assert "repro index" in message

    def test_payload_must_be_an_index(self, tmp_path):
        path = tmp_path / "fake.idx"
        path.write_bytes(
            pickle.dumps(
                {
                    "format": SNAPSHOT_FORMAT,
                    "version": SNAPSHOT_VERSION,
                    "stats": {},
                    "index": ["not", "an", "index"],
                }
            )
        )
        with pytest.raises(SnapshotError, match="payload"):
            load_index(path)


class TestSnapshotIntegrity:
    """Corruption coverage for the digest-carrying v2 snapshot layout."""

    def test_truncated_file(self, index, tmp_path):
        path = tmp_path / "cut.idx"
        size = save_index(index, path)
        path.write_bytes(path.read_bytes()[: size // 2])
        with pytest.raises(SnapshotError, match="not a readable"):
            load_index(path)

    def test_flipped_byte_fails_digest_check(self, index, tmp_path):
        path = tmp_path / "flip.idx"
        save_index(index, path)
        doc = pickle.loads(path.read_bytes())
        body = bytearray(doc["index_bytes"])
        body[len(body) // 2] ^= 0x01
        doc["index_bytes"] = bytes(body)
        path.write_bytes(pickle.dumps(doc))
        with pytest.raises(SnapshotError) as excinfo:
            load_index(path)
        message = str(excinfo.value)
        assert "integrity check" in message
        assert "repro index" in message

    def test_non_bytes_body_rejected(self, index, tmp_path):
        path = tmp_path / "odd.idx"
        save_index(index, path)
        doc = pickle.loads(path.read_bytes())
        doc["index_bytes"] = "a string, not bytes"
        path.write_bytes(pickle.dumps(doc))
        with pytest.raises(SnapshotError, match="no index payload"):
            load_index(path)

    def test_valid_digest_wrong_object(self, tmp_path):
        # A consistent digest over a body that isn't a SegmentIndex must
        # still fail closed (the digest authenticates bytes, not meaning).
        path = tmp_path / "list.idx"
        body = pickle.dumps(["not", "an", "index"])
        path.write_bytes(pickle.dumps({
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "stats": {},
            "digest": hashlib.sha256(body).hexdigest(),
            "index_bytes": body,
        }))
        with pytest.raises(SnapshotError, match="no index payload"):
            load_index(path)

    def test_valid_digest_unpicklable_body(self, tmp_path):
        path = tmp_path / "mangled.idx"
        body = b"\x80\x04 not a pickle stream"
        path.write_bytes(pickle.dumps({
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "stats": {},
            "digest": hashlib.sha256(body).hexdigest(),
            "index_bytes": body,
        }))
        with pytest.raises(SnapshotError, match="despite a valid digest"):
            load_index(path)

    def test_legacy_v1_loads_with_warning(self, index, tmp_path,
                                          monkeypatch):
        """No longer: a version-1 file embeds the index object in its
        header, with no digest, so it is refused with the typed rebuild
        error — and nothing it names is constructed on the way."""
        path = tmp_path / "v1.idx"
        path.write_bytes(pickle.dumps({
            "format": SNAPSHOT_FORMAT,
            "version": 1,
            "stats": index.posting_stats(),
            "index": index,
        }))
        restored = []
        monkeypatch.setattr(
            SegmentIndex, "__setstate__",
            lambda self, state: restored.append(state),
        )
        with pytest.raises(SnapshotError, match="rebuild the index with "
                                                "'repro index'"):
            load_index(path)
        assert not restored

    def test_current_snapshots_load_without_warning(self, index, tmp_path):
        import warnings

        path = tmp_path / "v2.idx"
        save_index(index, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_index(path)

    @settings(
        max_examples=25, deadline=None,
        # tmp_path is reused across examples; each example writes its own
        # snapshot file, so the shared directory is harmless.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        token_lists=st.lists(
            st.lists(
                st.sampled_from([f"w{i}" for i in range(30)]),
                min_size=1, max_size=8, unique=True,
            ),
            min_size=1, max_size=12,
        ),
        n_vertical=st.integers(min_value=1, max_value=6),
    )
    def test_roundtrip_property(self, token_lists, n_vertical, tmp_path):
        # Any index survives a save/load cycle with identical probes.
        records = records_of(token_lists)
        index = SegmentIndex.build(records, n_vertical=n_vertical)
        path = tmp_path / "prop.idx"
        save_index(index, path)
        reloaded = load_index(path)
        assert reloaded.posting_stats() == index.posting_stats()
        for tokens in token_lists:
            assert reloaded.probe(tokens, 0.5) == index.probe(tokens, 0.5)
