"""Tests for the similarity service: caching, batching, snapshots."""

from __future__ import annotations

import hashlib
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, DataError, SnapshotError
from repro.data.records import Record
from repro.service import (
    LRUCache,
    SegmentIndex,
    SimilarityService,
    load_index,
    save_index,
)
from repro.service.snapshot import SNAPSHOT_FORMAT, SNAPSHOT_VERSION
from tests.conftest import random_collection

CACHE = "service.cache"
PROBE = "service.probe"


@pytest.fixture(scope="module")
def corpus():
    return random_collection(50, seed=51)


@pytest.fixture()
def service(corpus):
    return SimilarityService(SegmentIndex.build(corpus, n_vertical=5))


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
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_capacity_zero_disables_caching(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_clear(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0


class TestSearch:
    def test_hit_miss_counters(self, corpus, service):
        tokens = corpus[0].tokens
        first = service.search(tokens, 0.6)
        second = service.search(tokens, 0.6)
        assert first == second
        assert service.metrics.get(CACHE, "misses") == 1
        assert service.metrics.get(CACHE, "hits") == 1

    def test_cached_result_is_exact(self, corpus, service):
        tokens = corpus[0].tokens
        cold = service.search(tokens, 0.6)
        warm = service.search(tokens, 0.6)
        uncached = service.index.probe(tokens, 0.6)
        assert cold == warm == uncached

    def test_cache_key_canonicalizes_token_order(self, corpus, service):
        tokens = list(corpus[0].tokens)
        service.search(tokens, 0.6)
        service.search(list(reversed(tokens)), 0.6)
        assert service.metrics.get(CACHE, "hits") == 1

    def test_distinct_theta_and_func_miss(self, corpus, service):
        tokens = corpus[0].tokens
        service.search(tokens, 0.6)
        service.search(tokens, 0.7)
        service.search(tokens, 0.6, func="cosine")
        assert service.metrics.get(CACHE, "misses") == 3
        assert service.metrics.get(CACHE, "hits") == 0

    def test_k_truncates_after_cache(self, corpus, service):
        tokens = corpus[0].tokens
        full = service.search(tokens, 0.3)
        top2 = service.search(tokens, 0.3, k=2)
        assert top2 == full[:2]
        # k is applied per call, so the truncated call still cache-hits.
        assert service.metrics.get(CACHE, "hits") == 1

    def test_search_rid_excludes_self(self, corpus, service):
        rid = corpus[0].rid
        hits = service.search_rid(rid, 0.3)
        assert all(hit.rid != rid for hit in hits)

    def test_search_rid_unknown(self, service):
        with pytest.raises(DataError):
            service.search_rid(987654, 0.5)

    def test_cache_info(self, corpus, service):
        service.search(corpus[0].tokens, 0.6)
        info = service.cache_info()
        assert info["size"] == 1
        assert info["misses"] == 1


class TestSearchBatch:
    def test_matches_sequential_search(self, corpus, service):
        queries = [record.tokens for record in corpus]
        batch = service.search_batch(queries, 0.6)
        fresh = SimilarityService(service.index, cache_size=0)
        assert batch == [fresh.search(q, 0.6) for q in queries]

    def test_duplicate_queries_probed_once(self, corpus, service):
        queries = [corpus[0].tokens] * 5 + [corpus[1].tokens]
        results = service.search_batch(queries, 0.6)
        assert len(results) == 6
        assert results[0] == results[4]
        assert service.metrics.get(CACHE, "misses") == 2
        assert service.metrics.get("service.batch", "unique_misses") == 2

    def test_batch_after_warm_cache_probes_nothing(self, corpus, service):
        queries = [record.tokens for record in corpus[:5]]
        service.search_batch(queries, 0.6)
        probes_before = service.metrics.get(PROBE, "probes")
        again = service.search_batch(queries, 0.6)
        assert service.metrics.get(PROBE, "probes") == probes_before
        assert len(again) == 5

    def test_empty_batch(self, service):
        assert service.search_batch([], 0.6) == []


class TestApplyBatch:
    def test_invalidates_cache(self, corpus, service):
        tokens = corpus[0].tokens
        service.search(tokens, 0.6)
        service.apply_batch([Record.make(900, list(tokens))])
        assert service.metrics.get(CACHE, "invalidations") == 1
        hits = service.search(tokens, 0.6)
        assert 900 in {hit.rid for hit in hits}
        assert service.metrics.get(CACHE, "hits") == 0


class TestSnapshot:
    def test_roundtrip_preserves_search_results(self, corpus, service, tmp_path):
        path = tmp_path / "corpus.idx"
        service.save(path)
        reloaded = SimilarityService.load(path)
        for record in corpus[:10]:
            assert reloaded.search(record.tokens, 0.6) == service.index.probe(
                record.tokens, 0.6
            )

    def test_no_tmp_file_left_behind(self, service, tmp_path):
        service.save(tmp_path / "corpus.idx")
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

    def test_version_mismatch_names_both_versions(self, service, tmp_path):
        path = tmp_path / "old.idx"
        save_index(service.index, path)
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

    def test_truncated_file(self, service, tmp_path):
        path = tmp_path / "cut.idx"
        size = save_index(service.index, path)
        path.write_bytes(path.read_bytes()[: size // 2])
        with pytest.raises(SnapshotError, match="not a readable"):
            load_index(path)

    def test_flipped_byte_fails_digest_check(self, service, tmp_path):
        path = tmp_path / "flip.idx"
        save_index(service.index, path)
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

    def test_non_bytes_body_rejected(self, service, tmp_path):
        path = tmp_path / "odd.idx"
        save_index(service.index, path)
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

    def test_legacy_v1_loads_with_warning(self, service, tmp_path,
                                          monkeypatch):
        """No longer: a version-1 file embeds the index object in its
        header, with no digest, so it is refused with the typed rebuild
        error — and nothing it names is constructed on the way."""
        path = tmp_path / "v1.idx"
        path.write_bytes(pickle.dumps({
            "format": SNAPSHOT_FORMAT,
            "version": 1,
            "stats": service.index.posting_stats(),
            "index": service.index,
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

    def test_current_snapshots_load_without_warning(self, service, tmp_path):
        import warnings

        path = tmp_path / "v2.idx"
        save_index(service.index, path)
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
        from repro.data.records import RecordCollection

        records = RecordCollection.from_token_lists(token_lists)
        index = SegmentIndex.build(records, n_vertical=n_vertical)
        path = tmp_path / "prop.idx"
        save_index(index, path)
        reloaded = load_index(path)
        assert reloaded.posting_stats() == index.posting_stats()
        for tokens in token_lists:
            assert reloaded.probe(tokens, 0.5) == index.probe(tokens, 0.5)
