"""Failover tests: retry budgets, circuit breakers, deadlines, partials.

The original router killed a replica permanently on its first mid-probe
failure.  These tests pin the replacement semantics: failures feed a
per-replica circuit breaker (flapping nodes *rejoin* after a half-open
trial), each request gets a bounded retry budget with deterministic
backoff, deadlines turn slow requests into typed errors, and
``search_partial`` degrades explicitly (``complete=False`` + a missing
fragment report) instead of failing or lying.
"""

from __future__ import annotations

import pytest

from repro.chaos import ChaosClock
from repro.cluster import build_cluster
from repro.cluster.failover import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    RetryPolicy,
)
from repro.errors import (
    ClusterError,
    ConfigError,
    DeadlineExceededError,
    ShardDownError,
)
from repro.service.index import SegmentIndex
from repro.similarity.functions import SimilarityFunction
from tests.conftest import random_collection


def backoffs(policy, key):
    """One request's whole deterministic backoff schedule."""
    return [policy.backoff(key, attempt) for attempt in range(policy.max_retries)]


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy(max_retries=3, seed=42)
        assert backoffs(policy, "req") == backoffs(policy, "req")
        assert (
            backoffs(RetryPolicy(max_retries=3, seed=42), "req")
            == backoffs(policy, "req")
        )

    def test_backoff_grows_and_caps(self):
        # A flat policy's delays are its jitter factors alone, so dividing
        # them out leaves the exact raw schedule: 0.01, 0.02, 0.04, 0.05, ...
        policy = RetryPolicy(max_retries=8, base_delay=0.01, max_delay=0.05)
        flat = RetryPolicy(max_retries=8, base_delay=1.0, max_delay=1.0)
        raw = [0.01, 0.02, 0.04, 0.05, 0.05, 0.05, 0.05, 0.05]
        assert [
            policy.backoff("k", attempt) / flat.backoff("k", attempt)
            for attempt in range(policy.max_retries)
        ] == pytest.approx(raw)

    def test_jitter_bounds(self):
        policy = RetryPolicy(max_retries=1, base_delay=0.01)
        for key in range(50):
            delay = policy.backoff(key, 0)
            assert 0.005 <= delay <= 0.015

    def test_different_keys_jitter_differently(self):
        policy = RetryPolicy(max_retries=1, base_delay=0.01)
        delays = {policy.backoff(key, 0) for key in range(20)}
        assert len(delays) > 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"base_delay": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)


class TestCircuitBreaker:
    def make(self, threshold=3, timeout=10.0):
        clock = ChaosClock()
        return CircuitBreaker(
            failure_threshold=threshold, reset_timeout=timeout, clock=clock
        ), clock

    def test_starts_closed_and_allows(self):
        breaker, _ = self.make()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.record_failure()  # the tripping one
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.transitions["opened"] == 1

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert not breaker.record_success()  # was closed; not a recovery
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_admits_one_trial(self):
        breaker, clock = self.make(threshold=1, timeout=5.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()       # the single trial probe
        assert not breaker.allow()   # concurrent caller refused
        assert breaker.record_success()  # recovery: half-open -> closed
        assert breaker.state is BreakerState.CLOSED
        assert breaker.transitions == {
            "opened": 1, "half_opened": 1, "closed": 1,
        }

    def test_failed_trial_reopens(self):
        breaker, clock = self.make(threshold=1, timeout=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        assert breaker.record_failure()  # trial failed: straight back OPEN
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()  # a later trial gets another chance

    def test_validation(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigError):
            BreakerConfig(reset_timeout=-1.0)


def flap_cluster(records, clock, threshold=2, reset=5.0, replication=2):
    index = SegmentIndex.build(records, n_vertical=8)
    router = build_cluster(
        index,
        n_shards=3,
        replication=replication,
        retry=RetryPolicy(max_retries=1, base_delay=0.01, seed=1),
        breaker=BreakerConfig(failure_threshold=threshold, reset_timeout=reset),
        clock=clock,
        sleep=clock.sleep,
    )
    return index, router


def victim_for(router, tokens, theta):
    """The first shard a probe of ``tokens`` scatters to."""
    query = router.encode_query(tokens)
    fragments = router.target_fragments(
        query, theta, SimilarityFunction.JACCARD
    )
    targets = router._target_shards(fragments)
    assert targets, "query must touch at least one shard"
    return next(iter(targets))


class TestRouterBreakerIntegration:
    THETA = 0.5

    def test_flapping_replica_trips_and_rejoins(self):
        records = random_collection(60, seed=31)
        clock = ChaosClock()
        index, router = flap_cluster(records, clock)
        tokens = list(records[0].tokens)
        shard = victim_for(router, tokens, self.THETA)
        victim = router.replica(shard, 0)
        expected = index.probe(tokens, self.THETA)

        victim.fail()
        # Round-robin means the dead replica is pinged every other request;
        # two contacts reach the threshold and trip its breaker.
        for _ in range(2 * router.replication):
            assert router.search(tokens, self.THETA) == expected
        assert router.breaker(shard, 0).state is BreakerState.OPEN
        assert router.metrics.get("cluster.route", "breaker_opened") == 1
        assert "open" in router.breaker_states()[shard]

        # While OPEN the replica is skipped without contact.
        for _ in range(2 * router.replication):
            router.search(tokens, self.THETA)
        assert router.metrics.get("cluster.route", "breaker_skipped") >= 1

        # Node recovers; after the reset timeout the half-open trial
        # succeeds and the replica rejoins rotation.
        victim.restore()
        clock.advance(5.0)
        for _ in range(2 * router.replication):
            assert router.search(tokens, self.THETA) == expected
        assert router.breaker(shard, 0).state is BreakerState.CLOSED
        assert router.metrics.get("cluster.route", "breaker_closed") == 1

    def test_mid_probe_flap_feeds_breaker(self):
        """A ShardDownError raised *during* a probe counts like a dead ping."""
        records = random_collection(60, seed=32)
        clock = ChaosClock()
        index, router = flap_cluster(records, clock, threshold=1)
        tokens = list(records[1].tokens)
        shard = victim_for(router, tokens, self.THETA)
        victim = router.replica(shard, 0)
        expected = index.probe(tokens, self.THETA)

        crashes = {"left": 1}

        def hook(node):
            if crashes["left"]:
                crashes["left"] -= 1
                raise ShardDownError(f"{node.name}: injected crash")

        victim.fault_hook = hook
        for _ in range(2 * router.replication):
            assert router.search(tokens, self.THETA) == expected
        assert router.metrics.get("cluster.route", "failovers") == 1
        assert router.breaker(shard, 0).transitions["opened"] == 1
        # Crash budget exhausted: the node was NOT permanently killed.
        assert victim.ping()

    def test_all_replicas_down_is_typed_and_counted(self):
        records = random_collection(60, seed=33)
        clock = ChaosClock()
        _, router = flap_cluster(records, clock)
        tokens = list(records[2].tokens)
        shard = victim_for(router, tokens, self.THETA)
        for replica in range(router.replication):
            router.replica(shard, replica).fail()
        with pytest.raises(ClusterError, match="replicas down"):
            router.search(tokens, self.THETA)
        assert router.metrics.get("cluster.route", "unavailable") == 1
        # The retry budget was spent before giving up.
        assert router.metrics.get("cluster.route", "retries") == 1

    def test_status_reports_breakers(self):
        records = random_collection(40, seed=34)
        clock = ChaosClock()
        _, router = flap_cluster(records, clock)
        status = router.status()
        assert status["breakers"] == [
            ["closed"] * router.replication for _ in range(router.n_shards)
        ]


class TestPartialResults:
    THETA = 0.5

    def downed_cluster(self, seed):
        records = random_collection(60, seed=seed)
        clock = ChaosClock()
        index, router = flap_cluster(records, clock)
        tokens = list(records[0].tokens)
        query = router.encode_query(tokens)
        targets = router._target_shards(
            router.target_fragments(query, self.THETA,
                                    SimilarityFunction.JACCARD)
        )
        assert len(targets) >= 2, "need a multi-shard query"
        down = next(iter(targets))
        for replica in range(router.replication):
            router.replica(down, replica).fail()
        return index, router, tokens, targets, down

    def test_search_partial_flags_missing_coverage(self):
        index, router, tokens, targets, down = self.downed_cluster(35)
        partial = router.search_partial(tokens, self.THETA)
        assert not partial.complete
        assert down in partial.missing_shards
        assert tuple(sorted(targets[down])) == tuple(
            f for f in partial.missing_fragments if f in targets[down]
        )
        assert router.metrics.get("cluster.route", "partial_results") == 1
        # The surviving shards' hits are a subset of the full answer.
        full = {hit.rid for hit in index.probe(tokens, self.THETA)}
        assert {hit.rid for hit in partial.hits} <= full

    def test_search_partial_is_complete_when_healthy(self):
        records = random_collection(60, seed=36)
        clock = ChaosClock()
        index, router = flap_cluster(records, clock)
        tokens = list(records[0].tokens)
        partial = router.search_partial(tokens, self.THETA)
        assert partial.complete
        assert partial.missing_shards == ()
        assert partial.missing_fragments == ()
        assert list(partial.hits) == index.probe(tokens, self.THETA)

    def test_strict_search_still_fails(self):
        """Degraded gather is opt-in; plain search keeps its hard contract."""
        _, router, tokens, _, _ = self.downed_cluster(37)
        with pytest.raises(ClusterError):
            router.search(tokens, self.THETA)


class TestDeadlines:
    THETA = 0.5

    def test_deadline_exceeded_is_typed_and_counted(self):
        records = random_collection(60, seed=38)
        clock = ChaosClock()
        _, router = flap_cluster(records, clock)
        tokens = list(records[0].tokens)
        shard = victim_for(router, tokens, self.THETA)

        def slow(node):
            clock.advance(1.0)

        for replica in range(router.replication):
            router.replica(shard, replica).fault_hook = slow
        with pytest.raises(DeadlineExceededError):
            router.search(tokens, self.THETA, deadline=0.5)
        assert router.metrics.get("cluster.route", "deadline_exceeded") == 1

    def test_deadline_not_swallowed_by_partial_mode(self):
        records = random_collection(60, seed=39)
        clock = ChaosClock()
        _, router = flap_cluster(records, clock)
        tokens = list(records[0].tokens)
        shard = victim_for(router, tokens, self.THETA)

        def slow(node):
            clock.advance(1.0)

        for replica in range(router.replication):
            router.replica(shard, replica).fault_hook = slow
        with pytest.raises(DeadlineExceededError):
            router.search_partial(tokens, self.THETA, deadline=0.5)

    def test_generous_deadline_changes_nothing(self):
        records = random_collection(60, seed=40)
        clock = ChaosClock()
        index, router = flap_cluster(records, clock)
        tokens = list(records[0].tokens)
        assert (
            router.search(tokens, self.THETA, deadline=100.0)
            == index.probe(tokens, self.THETA)
        )
