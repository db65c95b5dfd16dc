"""Concurrency stress tests for the LRU cache and the router above it.

A cache shared by request threads is probed from many of them at once.
Before the cache grew an internal lock, concurrent ``move_to_end``/
``popitem`` on the backing ``OrderedDict`` could corrupt it (KeyError
from ``popitem`` on an entry another thread just moved, sizes drifting
past capacity, evictions lost).  These tests hammer exactly that pattern
with a tiny capacity so evictions race refreshes on every operation, and
then hammer a one-shard router — the serving front over one index — the
same way.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.cluster import build_cluster
from repro.service import LRUCache, SegmentIndex
from tests.conftest import random_collection

THREADS = 8
OPS_PER_THREAD = 400


class TestLRUCacheUnderThreads:
    def test_concurrent_put_get_stays_consistent(self):
        cache = LRUCache(4)  # tiny: every put races an eviction
        errors = []
        barrier = threading.Barrier(THREADS)

        def hammer(seed):
            barrier.wait()
            try:
                for i in range(OPS_PER_THREAD):
                    key = f"k{(seed * 31 + i) % 16}"
                    if cache.get(key) is None:
                        cache.put(key, (seed, i))
            except Exception as exc:  # corruption surfaces as KeyError etc.
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(seed,))
            for seed in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, f"cache corrupted under threads: {errors[:3]}"
        # At most capacity keys survive, and each is still retrievable.
        assert sum(cache.get(f"k{i}") is not None for i in range(16)) <= 4


class TestServiceUnderThreads:
    def test_search_batch_hammered_from_threads(self):
        """Many threads share one router; results must match a
        single-threaded reference run and nothing may raise."""
        corpus = random_collection(60, seed=77)
        index = SegmentIndex.build(corpus, n_vertical=5)
        queries = [list(record.tokens) for record in corpus][:20]
        theta = 0.5

        reference = [index.probe(tokens, theta) for tokens in queries]
        router = build_cluster(index, n_shards=1)

        def probe(offset):
            rotated = queries[offset % len(queries):] + queries[:offset % len(queries)]
            return router.search_batch(rotated, theta)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            outcomes = list(pool.map(probe, range(24)))

        for offset, hits in zip(range(24), outcomes):
            shift = offset % len(queries)
            expected = reference[shift:] + reference[:shift]
            assert hits == expected
        # The shared latency histogram counted every request.
        assert router.latency.snapshot()["count"] == 24

    def test_single_search_hammered_from_threads(self):
        corpus = random_collection(40, seed=78)
        router = build_cluster(
            SegmentIndex.build(corpus, n_vertical=4), n_shards=1
        )
        queries = [list(record.tokens) for record in corpus][:10]
        expected = [router.search(tokens, 0.5) for tokens in queries]

        def probe(i):
            return router.search(queries[i % len(queries)], 0.5)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            outcomes = list(pool.map(probe, range(200)))
        for i, hits in enumerate(outcomes):
            assert hits == expected[i % len(queries)]
