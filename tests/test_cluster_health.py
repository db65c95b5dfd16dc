"""The self-healing control plane: detection, scrubbing, rebuild, fencing.

The silent-corruption tests are the PR's regression bar: before the
control plane existed, a replica whose postings were bit-rotted in place
kept serving wrong answers forever (no exception, no breaker trip —
``test_corrupt_replica_serves_wrong_answers_without_plane`` shows the
failure mode still exists when nothing watches).  With the plane
attached, the scrubber quarantines the rotted replica before it can
answer again and the rebuild path restores bit-identical service.
"""

import json

import pytest

from repro.chaos import ChaosClock, FaultInjector, FaultSchedule
from repro.cluster import (
    BreakerConfig,
    ControlPlane,
    HealthConfig,
    RepairManager,
    build_cluster,
    load_cluster,
    save_cluster,
)
from repro.cluster.health import MAX_REBUILD_ATTEMPTS, MAX_REPAIRS_PER_TICK
from repro.core.pivots import PivotMethod
from repro.data import make_corpus
from repro.errors import ClusterError, ConfigError, ShardDownError
from repro.ingest import StreamingIndex
from repro.mapreduce.hdfs import InMemoryDFS
from repro.observability import Tracer
from repro.service import SegmentIndex
from repro.service.snapshot import save_index
from repro.similarity.functions import SimilarityFunction
from tests.conftest import brute_force_search

THETAS = (0.5, 0.8)
FUNCS = (SimilarityFunction.JACCARD, SimilarityFunction.COSINE)


def make_cluster(records, clock, tracer=None, replication=2, n_shards=3,
                 miss_budget=2, scrub_interval=1, index=None):
    index = index if index is not None else SegmentIndex.build(
        records, n_vertical=10
    )
    router = build_cluster(
        index,
        n_shards=n_shards,
        replication=replication,
        breaker=BreakerConfig(failure_threshold=2, reset_timeout=1.0),
        clock=clock,
        sleep=clock.sleep,
        tracer=tracer,
        independent_replicas=True,
    )
    plane = ControlPlane(
        router,
        HealthConfig(miss_budget=miss_budget, scrub_interval=scrub_interval),
        tracer=tracer,
    )
    return index, router, plane


class TestFailureDetector:
    def test_escalates_suspect_to_dead_and_rebuilds(self):
        records = make_corpus("wiki", 80, seed=3)
        clock = ChaosClock()
        _, router, plane = make_cluster(records, clock)
        router.replica(1, 0).fail()
        plane.tick()
        assert plane.replica_states()[1][0] == "suspect"
        plane.tick()
        # Miss budget exhausted: dead, then auto-rebuilt the same tick.
        kinds = [e.kind for e in plane.events if e.target == "shard1/r0"]
        assert kinds == ["suspect", "dead", "rebuild-start", "readmit"]
        assert plane.replica_states()[1][0] == "healthy"
        assert router.replica(1, 0).ping()
        assert plane.all_healthy()

    def test_flap_within_budget_recovers_without_rebuild(self):
        records = make_corpus("wiki", 80, seed=3)
        clock = ChaosClock()
        _, router, plane = make_cluster(records, clock, scrub_interval=100,
                                        miss_budget=3)
        node = router.replica(0, 1)
        node.fail()
        plane.tick()
        node.restore()
        plane.tick()
        kinds = [e.kind for e in plane.events if e.target == node.name]
        assert kinds == ["suspect", "recovered"]
        assert router.metrics.group("cluster.health").get("rebuilds", 0) == 0

    def test_breaker_open_counts_as_miss(self):
        records = make_corpus("wiki", 80, seed=3)
        clock = ChaosClock()
        _, router, plane = make_cluster(records, clock, scrub_interval=100)
        breaker = router.breaker(0, 0)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state.value == "open"
        plane.tick()
        assert plane.replica_states()[0][0] == "suspect"
        # The node itself still pings — only the breaker says otherwise.
        assert router.replica(0, 0).ping()

    def test_a_tick_detects_then_repairs_at_most_its_cap(self):
        records = make_corpus("wiki", 80, seed=3)
        clock = ChaosClock()
        _, router, plane = make_cluster(records, clock, miss_budget=1,
                                        scrub_interval=100)
        for shard in range(3):
            router.replica(shard, 0).fail()
        kinds = [e.kind for e in plane.tick()]
        # Every death is declared before the first rebuild starts, and
        # the tick rebuilds no more than its cap.
        assert kinds.count("dead") == 3
        assert kinds.index("rebuild-start") > max(
            i for i, kind in enumerate(kinds) if kind == "dead"
        )
        assert kinds.count("readmit") == MAX_REPAIRS_PER_TICK == 2
        assert plane.replica_states()[2][0] == "dead"
        assert plane.summary()["pending_repairs"] == [[2, 0]]
        assert not plane.all_healthy()
        assert [e.kind for e in plane.tick()] == ["rebuild-start", "readmit"]
        assert plane.all_healthy()

    def test_config_validation(self):
        for kwargs in ({"miss_budget": 0}, {"scrub_interval": 0},
                       {"verify_probes": 0}):
            with pytest.raises(ConfigError):
                HealthConfig(**kwargs)


class TestScrubber:
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("func", FUNCS)
    def test_corruption_detected_and_repaired_bit_identical(self, theta,
                                                            func):
        """Property: for every (theta, func), a corrupt()-injected replica
        is quarantined by the scrubber and, post-repair, every cluster
        answer is bit-identical to the single-node index."""
        records = make_corpus("wiki", 90, seed=11)
        clock = ChaosClock()
        index, router, plane = make_cluster(records, clock)
        injector = FaultInjector(FaultSchedule(11))
        victim = router.replica(1, 1)
        fragment = injector.corrupt_replica(victim)
        assert fragment in victim.slice.owned_fragments
        events = plane.tick()
        kinds = [e.kind for e in events if e.target == victim.name]
        assert kinds == ["quarantine", "rebuild-start", "readmit"]
        for record in records[::9]:
            assert router.search(record.tokens, theta, func=func) \
                == index.probe(record.tokens, theta, func)
        assert plane.all_healthy()

    def test_regression_silent_wrong_answers_are_gone(self):
        """The before/after pair the PR exists for."""
        records = make_corpus("wiki", 90, seed=5)
        theta, func = 0.5, SimilarityFunction.JACCARD
        index = SegmentIndex.build(records, n_vertical=10)

        def corrupted_cluster():
            """Wipe the very fragment the sweep's queries route through."""
            clock = ChaosClock()
            router = build_cluster(
                index, n_shards=2, replication=2, clock=clock,
                sleep=clock.sleep, independent_replicas=True,
            )
            injector = FaultInjector(FaultSchedule(5))
            fragment = router.target_fragments(
                router.encode_query(records[0].tokens), theta, func
            )[0]
            shard = router.plan.shard_of(fragment)
            injector.corrupt_replica(router.replica(shard, 1),
                                     fragment=fragment)
            return clock, router

        def sweep(router):
            wrong = 0
            expected = index.probe(records[0].tokens, theta, func)
            for _ in range(4 * router.replication):
                if router.search(records[0].tokens, theta,
                                 func=func) != expected:
                    wrong += 1
            return wrong

        # WITHOUT the plane: the rotted replica answers — wrongly — and
        # nothing notices (no exception, no breaker trip).
        _, router = corrupted_cluster()
        assert sweep(router) > 0

        # WITH the plane: one tick quarantines and repairs before any
        # probe can reach the rot; zero wrong answers.
        _, router = corrupted_cluster()
        plane = ControlPlane(router, HealthConfig(scrub_interval=1))
        plane.tick()
        assert sweep(router) == 0
        assert plane.all_healthy()

    def test_fenced_replica_refuses_probes(self):
        records = make_corpus("wiki", 60, seed=2)
        clock = ChaosClock()
        _, router, _ = make_cluster(records, clock)
        node = router.replica(0, 0)
        node.fence()
        assert not node.ping()
        with pytest.raises(ShardDownError, match="fenced"):
            node.probe(router.encode_query(records[0].tokens), 0.5,
                       SimilarityFunction.JACCARD)

    def test_scrub_epoch_advances_and_shows_in_status(self):
        records = make_corpus("wiki", 60, seed=2)
        clock = ChaosClock()
        _, router, plane = make_cluster(records, clock, scrub_interval=2)
        plane.tick()
        assert plane.scrub_epoch == 0
        plane.tick()
        assert plane.scrub_epoch == 1
        status = router.status()
        assert status["self_heal"]["scrub_epoch"] == 1
        assert status["self_heal"]["all_healthy"]
        cell = status["self_heal"]["replicas"][0][0]
        assert cell["state"] == "healthy"
        assert cell["breaker"] == "closed"
        json.dumps(status)  # JSON-safe end to end

    def test_baseline_refreshes_after_migration(self):
        records = make_corpus("wiki", 120, seed=9)
        clock = ChaosClock()
        index, router, plane = make_cluster(records, clock, replication=1,
                                            scrub_interval=1)
        # Heat one fragment hard enough to force a migration.
        for record in records[:40]:
            router.search(record.tokens, 0.5)
        moves = router.rebalance()
        if not moves:
            pytest.skip("no migration under this corpus/seed")
        events = plane.tick()
        kinds = [e.kind for e in events]
        assert "baseline-refresh" in kinds
        assert "quarantine" not in kinds  # migration is not corruption
        assert plane.all_healthy()


class TestVerifiedReadmission:
    def test_manual_restore_through_router_closes_breaker(self):
        """The satellite fix: plain restore() left the breaker open."""
        records = make_corpus("wiki", 80, seed=7)
        clock = ChaosClock()
        _, router, _ = make_cluster(records, clock)
        node = router.replica(2, 0)
        breaker = router.breaker(2, 0)
        node.fail()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state.value == "open"
        # The old way: alive again but still breaker-skipped.
        node.restore()
        assert breaker.state.value == "open"
        node.fail()
        # The fixed path: restore + verify + breaker force-closed.
        node.restore()
        verdict = router.readmit_replica(2, 0)
        assert verdict["ok"]
        assert breaker.state.value == "closed"
        assert node.ping()
        assert router.metrics.group("cluster.route")["readmissions"] == 1

    def test_readmission_refused_on_divergence(self):
        records = make_corpus("wiki", 80, seed=7)
        clock = ChaosClock()
        _, router, _ = make_cluster(records, clock)
        injector = FaultInjector(FaultSchedule(7))
        node = router.replica(0, 1)
        injector.corrupt_replica(node)
        node.fence()
        with pytest.raises(ClusterError, match="readmission refused"):
            router.readmit_replica(0, 1)
        # Still fenced: a divergent replica can never serve.
        assert node.fenced
        assert not node.ping()

    def test_replication_one_manual_restore_still_works(self):
        records = make_corpus("wiki", 60, seed=4)
        clock = ChaosClock()
        index = SegmentIndex.build(records, n_vertical=10)
        router = build_cluster(index, n_shards=2, replication=1,
                               clock=clock, sleep=clock.sleep)
        router.replica(0, 0).fail()
        router.replica(0, 0).restore()
        verdict = router.readmit_replica(0, 0)
        assert verdict["ok"]
        assert "self-check" in verdict["detail"]


class TestRepairSources:
    def test_rebuild_from_snapshot_when_no_peer(self, tmp_path):
        records = make_corpus("wiki", 80, seed=13)
        clock = ChaosClock()
        index = SegmentIndex.build(records, n_vertical=10)
        router = build_cluster(index, n_shards=2, replication=2,
                               clock=clock, sleep=clock.sleep,
                               independent_replicas=True)
        save_cluster(router, tmp_path / "snap")
        plane = ControlPlane(
            router,
            HealthConfig(miss_budget=1, scrub_interval=100),
            repair=RepairManager(router, snapshot_dir=tmp_path / "snap"),
        )
        # Down the whole shard: no healthy peer remains.
        router.replica(0, 0).fail()
        router.replica(0, 1).fail()
        for _ in range(3):
            plane.tick()
        assert plane.all_healthy()
        details = [e.detail for e in plane.events if e.kind == "readmit"]
        assert any("snapshot" in d for d in details)
        for record in records[::9]:
            assert router.search(record.tokens, 0.6) \
                == index.probe(record.tokens, 0.6)

    def test_snapshot_saved_before_a_rebalance_still_repairs(self, tmp_path):
        """A saved index does not depend on placement: the shard is carved
        along the *live* plan, so a migration after the save does not
        turn the directory into a refused repair source."""
        records = make_corpus("wiki", 120, seed=13)
        index = SegmentIndex.build(records, n_vertical=10)
        router = build_cluster(index, n_shards=3, replication=1)
        save_cluster(router, tmp_path / "snap")
        donor = max(range(3), key=lambda s: len(router.plan.fragments_of(s)))
        with router._lock:
            for fragment in router.plan.fragments_of(donor):
                router._heat[fragment] = 50
        moves = router.rebalance()
        assert moves
        repair = RepairManager(router, snapshot_dir=tmp_path / "snap")
        for shard in {moves[0].src, moves[0].dst}:
            router.replica(shard, 0).fail()
            assert "rebuilt from snapshot" in repair.rebuild_replica(shard, 0)
        for record in records[::7]:
            for theta in THETAS:
                assert router.search(record.tokens, theta) \
                    == brute_force_search(records, record.tokens, theta)

    @pytest.mark.parametrize("damage", ["manifest", "swap", "flip", "missing"])
    def test_bad_snapshot_is_typed_and_leaves_replica_fenced(
            self, tmp_path, damage):
        records = make_corpus("wiki", 60, seed=13)
        router = build_cluster(SegmentIndex.build(records, n_vertical=10),
                               n_shards=2, replication=1)
        save_cluster(router, tmp_path / "snap")
        snapshot = tmp_path / "snap" / "index.idx"
        if damage == "manifest":
            (tmp_path / "snap" / "manifest.json").write_text("[]")
        elif damage == "swap":
            save_index(SegmentIndex.build(records[:30], n_vertical=10),
                       snapshot)
        elif damage == "flip":
            data = bytearray(snapshot.read_bytes())
            data[len(data) // 2] ^= 0xFF
            snapshot.write_bytes(bytes(data))
        else:
            snapshot.unlink()
        repair = RepairManager(router, snapshot_dir=tmp_path / "snap")
        router.replica(0, 0).fail()
        with pytest.raises(ClusterError):
            repair.rebuild_replica(0, 0)
        assert router.replica(0, 0).fenced

    def test_snapshot_of_another_corpus_is_refused_without_baseline(
            self, tmp_path):
        """No peer and no baseline to compare with: the snapshot's own
        order, not a prefix of the router's, is what refuses it."""
        records = make_corpus("wiki", 60, seed=13)
        router = build_cluster(SegmentIndex.build(records, n_vertical=10),
                               n_shards=2, replication=1)
        other = make_corpus("wiki", 60, seed=14)
        save_cluster(build_cluster(SegmentIndex.build(other, n_vertical=10),
                                   n_shards=2), tmp_path / "snap")
        repair = RepairManager(router, snapshot_dir=tmp_path / "snap")
        router.replica(0, 0).fail()
        with pytest.raises(ClusterError, match="another global order"):
            repair.rebuild_replica(0, 0, baseline=None)
        assert router.replica(0, 0).fenced

    def test_snapshot_cut_elsewhere_is_refused_without_baseline(
            self, tmp_path):
        """Same corpus, same order, other pivots: the fragment ids name
        other token ranges, so the file is not this cluster's."""
        records = make_corpus("wiki", 60, seed=13)
        router = build_cluster(SegmentIndex.build(records, n_vertical=10),
                               n_shards=2, replication=1)
        save_cluster(build_cluster(
            SegmentIndex.build(records, n_vertical=10,
                               pivot_method=PivotMethod.EVEN_INTERVAL),
            n_shards=2), tmp_path / "snap")
        repair = RepairManager(router, snapshot_dir=tmp_path / "snap")
        router.replica(0, 0).fail()
        with pytest.raises(ClusterError, match="cuts its fragments"):
            repair.rebuild_replica(0, 0, baseline=None)
        assert router.replica(0, 0).fenced

    def test_no_source_is_typed_and_leaves_replica_fenced(self):
        records = make_corpus("wiki", 60, seed=13)
        clock = ChaosClock()
        index = SegmentIndex.build(records, n_vertical=10)
        router = build_cluster(index, n_shards=2, replication=2,
                               clock=clock, sleep=clock.sleep,
                               independent_replicas=True)
        repair = RepairManager(router)  # no snapshot dir
        router.replica(0, 0).fail()
        router.replica(0, 1).fail()
        with pytest.raises(ClusterError, match="no rebuild source"):
            repair.rebuild_replica(0, 0)
        assert router.replica(0, 0).fenced

    def test_rebuild_abandoned_after_attempt_cap(self):
        records = make_corpus("wiki", 60, seed=13)
        clock = ChaosClock()
        index = SegmentIndex.build(records, n_vertical=10)
        router = build_cluster(index, n_shards=2, replication=2,
                               clock=clock, sleep=clock.sleep,
                               independent_replicas=True)
        plane = ControlPlane(router, HealthConfig(
            miss_budget=1, scrub_interval=100
        ))  # default RepairManager: no snapshot fallback
        router.replica(1, 0).fail()
        router.replica(1, 1).fail()
        # Two targets, MAX_REPAIRS_PER_TICK of them a tick: each gets
        # one attempt a tick.
        for _ in range(MAX_REBUILD_ATTEMPTS):
            plane.tick()
        kinds = [e.kind for e in plane.events]
        assert kinds.count("rebuild-abandoned") >= 1
        assert not plane.all_healthy()


class TestWALPinning:
    def test_pin_blocks_truncation_until_released(self):
        dfs = InMemoryDFS()
        records = make_corpus("wiki", 40, seed=1)
        index = SegmentIndex.build(records, n_vertical=8)
        streaming = StreamingIndex.attach(
            dfs, "ingest", index.order, index.partitioner
        )
        fresh = make_corpus("wiki", 24, seed=99)
        fresh = [r.__class__(r.rid + 10_000, r.tokens) for r in fresh]
        streaming.apply_batch(fresh[:8])
        pin = streaming.wal.pin(streaming.wal.last_seq)
        streaming.apply_batch(fresh[8:16])
        segments_before = streaming.wal.stats()["segments"]
        streaming.flush()  # would truncate_through the applied seq
        assert streaming.wal.stats()["segments"] >= segments_before
        assert streaming.wal.stats()["pins"] == 1
        streaming.wal.release(pin)
        streaming.apply_batch(fresh[16:])
        streaming.flush()
        assert streaming.wal.stats()["pins"] == 0
        # With the pin gone, GC proceeds (replay still sound).
        assert streaming.wal.pinned_through() is None

    def test_release_is_idempotent(self):
        dfs = InMemoryDFS()
        records = make_corpus("wiki", 30, seed=1)
        index = SegmentIndex.build(records, n_vertical=8)
        streaming = StreamingIndex.attach(
            dfs, "ingest", index.order, index.partitioner
        )
        pin = streaming.wal.pin(-1)
        streaming.wal.release(pin)
        streaming.wal.release(pin)
        streaming.wal.release(12345)
        assert streaming.wal.pinned_through() is None


class TestIngestRebuild:
    def test_dead_ingest_tier_recovers_and_serves(self):
        records = make_corpus("wiki", 60, seed=21)
        clock = ChaosClock()
        index = SegmentIndex.build(records, n_vertical=10)
        router = build_cluster(index, n_shards=2, replication=2,
                               clock=clock, sleep=clock.sleep,
                               independent_replicas=True)
        dfs = InMemoryDFS()
        streaming = StreamingIndex.attach(
            dfs, "ingest", router.order, router.partitioner
        )
        ingest = router.attach_ingest(streaming)
        plane = ControlPlane(router, HealthConfig(miss_budget=1,
                                                  scrub_interval=100))
        fresh = [records[0].__class__(10_000 + i, records[i].tokens)
                 for i in range(6)]
        router.apply_batch(fresh)
        expected = {
            record.rid: router.search(record.tokens, 0.5)
            for record in fresh
        }
        ingest.fail()
        plane.tick()  # dead (miss_budget=1) + rebuilt
        kinds = [e.kind for e in plane.events if e.target == "ingest/r0"]
        assert kinds == ["suspect", "dead", "rebuild-start", "readmit"]
        assert ingest.ping()
        assert ingest.streaming is not streaming  # recovered instance
        for record in fresh:
            assert router.search(record.tokens, 0.5) == expected[record.rid]
        assert plane.all_healthy()

    def test_rebuilt_tier_interns_fresh_tokens_into_the_router_order(self):
        """After a rebuild, an append with tokens nobody has seen must
        encode the same in the tier as in the router's queries: the
        recovered tier shares the router's order, not a content-equal
        copy that the first fresh token forks."""
        records = make_corpus("wiki", 60, seed=21)
        clock = ChaosClock()
        index = SegmentIndex.build(records, n_vertical=10)
        router = build_cluster(index, n_shards=2, replication=2,
                               clock=clock, sleep=clock.sleep,
                               independent_replicas=True)
        ingest = router.attach_ingest(StreamingIndex.attach(
            InMemoryDFS(), "ingest", router.order, router.partitioner
        ))
        plane = ControlPlane(router, HealthConfig(miss_budget=1,
                                                  scrub_interval=100))
        make = records[0].__class__
        fresh = [make(10_000 + i, records[i].tokens) for i in range(6)]
        router.apply_batch(fresh)
        ingest.fail()
        plane.tick()
        later = [
            make(20_000 + i, records[i + 6].tokens
                 + (f"unseen-{i}-a", f"unseen-{i}-b"))
            for i in range(6)
        ]
        router.apply_batch(later)
        corpus = list(records) + fresh + later
        for record in later:
            for theta in (0.3, 0.5):
                assert router.search(record.tokens, theta) == (
                    brute_force_search(corpus, record.tokens, theta)
                )
        assert ingest.streaming.order is router.order

    def test_rebuild_refuses_an_order_log_that_diverges(self):
        records = make_corpus("wiki", 40, seed=21)
        clock = ChaosClock()
        index = SegmentIndex.build(records, n_vertical=8)
        router = build_cluster(index, n_shards=2, clock=clock,
                               sleep=clock.sleep)
        dfs = InMemoryDFS()
        router.attach_ingest(StreamingIndex.attach(
            dfs, "ingest", router.order, router.partitioner
        ))
        # A log that verifies but whose first two ranks are swapped.
        entries = list(router.order.entries())
        entries[0], entries[1] = entries[1], entries[0]
        dfs.write("ingest/order", [(0, tuple(entries))], overwrite=True)
        with pytest.raises(ClusterError, match="diverges"):
            RepairManager(router).rebuild_ingest()

    def test_ingest_rebuild_without_tier_is_typed(self):
        records = make_corpus("wiki", 40, seed=21)
        clock = ChaosClock()
        index = SegmentIndex.build(records, n_vertical=8)
        router = build_cluster(index, n_shards=2, clock=clock,
                               sleep=clock.sleep)
        with pytest.raises(ClusterError, match="no ingest tier"):
            RepairManager(router).rebuild_ingest()


class TestIngestIsOneMoreTarget:
    """The ingest node runs the replicas' state machine: same detection
    events, same retry-then-abandon bookkeeping, same status cell."""

    def _rig(self, **health):
        records = make_corpus("wiki", 40, seed=21)
        clock = ChaosClock()
        index = SegmentIndex.build(records, n_vertical=8)
        router = build_cluster(index, n_shards=2, clock=clock,
                               sleep=clock.sleep)
        ingest = router.attach_ingest(StreamingIndex.attach(
            InMemoryDFS(), "ingest", router.order, router.partitioner
        ))
        plane = ControlPlane(router, HealthConfig(scrub_interval=100,
                                                  **health))
        return router, ingest, plane

    def test_a_flapping_ingest_node_recovers_like_a_replica(self):
        router, ingest, plane = self._rig(miss_budget=3)
        ingest.fail()
        plane.tick()
        assert router.health_summary()["ingest"]["state"] == "suspect"
        ingest.restore()
        plane.tick()
        assert plane.event_log() == [
            (1, "suspect", "ingest/r0", "ping failed; miss 1/3"),
            (2, "recovered", "ingest/r0", "after 1 misses"),
        ]
        assert router.health_summary()["ingest"]["state"] == "healthy"
        assert plane.all_healthy()

    def test_failed_ingest_rebuilds_are_retried_then_abandoned(
            self, monkeypatch):
        router, ingest, plane = self._rig(miss_budget=1)

        def refuse(self):
            raise ClusterError("wal unreadable")

        monkeypatch.setattr(RepairManager, "rebuild_ingest", refuse)
        ingest.fail()
        for _ in range(MAX_REBUILD_ATTEMPTS):
            plane.tick()
        kinds = [e.kind for e in plane.events]
        assert kinds == (
            ["suspect", "dead"]
            + ["rebuild-start", "rebuild-failed"] * (MAX_REBUILD_ATTEMPTS - 1)
            + ["rebuild-start", "rebuild-abandoned"]
        )
        assert plane.ingest_state() == "dead"
        assert plane.summary()["pending_repairs"] == []
        assert not plane.all_healthy()
        counters = plane.summary()["health_counters"]
        assert counters["rebuild_failures"] == MAX_REBUILD_ATTEMPTS
        assert counters["rebuilds_abandoned"] == 1


class TestStatusSurfaces:
    def test_net_status_frame_reports_health(self):
        from repro.gateway import SimilarityGateway
        from repro.net.server import GatewayServer

        records = make_corpus("wiki", 60, seed=8)
        clock = ChaosClock()
        _, router, plane = make_cluster(records, clock)
        plane.tick()
        server = GatewayServer(SimilarityGateway(router))
        status = server.status()
        assert "self_heal" in status
        assert status["self_heal"]["tick"] == 1
        assert status["self_heal"]["replicas"][0][0]["serving"]
        json.dumps(status)

    def test_the_event_log_keeps_the_newest_and_counts_the_rest(
            self, monkeypatch):
        """A long-lived plane keeps :data:`EVENT_LOG_LIMIT` events: the
        newest, exactly what its ticks returned, with the dropped ones
        counted in the status surface."""
        from repro.cluster import health

        monkeypatch.setattr(health, "EVENT_LOG_LIMIT", 3)
        records = make_corpus("wiki", 60, seed=8)
        clock = ChaosClock()
        _, router, plane = make_cluster(records, clock, miss_budget=3,
                                        scrub_interval=100)
        node = router.replica(0, 1)
        returned = []
        for _ in range(4):
            node.fail()
            returned += plane.tick()
            node.restore()
            returned += plane.tick()
        assert [e.kind for e in returned] == ["suspect", "recovered"] * 4
        assert list(plane.events) == returned[-3:]
        summary = plane.summary()
        assert summary["events"] == 8
        assert summary["events_dropped"] == plane.events_dropped == 5

    def test_serve_event_lines_are_one_line_typed(self):
        records = make_corpus("wiki", 60, seed=8)
        clock = ChaosClock()
        _, router, plane = make_cluster(records, clock)
        router.replica(0, 0).fail()
        plane.tick()
        lines = [e.line() for e in plane.events]
        assert lines
        for line in lines:
            assert line.startswith("health: [")
            assert "\n" not in line

    def test_manifest_carries_digests_and_epoch(self, tmp_path):
        records = make_corpus("wiki", 60, seed=8)
        clock = ChaosClock()
        _, router, _ = make_cluster(records, clock)
        save_cluster(router, tmp_path / "snap")
        manifest = json.loads(
            (tmp_path / "snap" / "manifest.json").read_text()
        )
        # Format v3 carries neither: nothing read them, and index.idx is
        # bound by its whole-file sha256.  Content digests compare *live*
        # replicas, and the loaded cluster recomputes the saved router's.
        assert set(manifest) == {
            "format", "version", "replication", "plan", "sha256"
        }
        loaded = load_cluster(tmp_path / "snap")
        assert loaded.plan.n_fragments == router.plan.n_fragments
        for shard in range(router.n_shards):
            assert (loaded.replica(shard, 0).slice.content_digests()
                    == router.replica(shard, 0).slice.content_digests())
