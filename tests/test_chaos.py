"""Chaos harness tests: seeded fault schedules and the robustness contract.

The contract under test, for any seed: a faulted run either recovers to
output **bit-identical** to its fault-free twin, fails with a typed
:class:`~repro.errors.ReproError`, or returns an explicitly flagged
partial result — never silently wrong or silently incomplete data.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import pytest

from repro.chaos import (
    ChaosClock,
    ChaosConfig,
    FaultInjector,
    FaultSchedule,
    run_cluster_scenario,
    run_heal_scenario,
    run_ingest_scenario,
    run_join_scenario,
    run_net_scenario,
    run_recovery_report,
    run_search_scenario,
)
from repro.core import FSJoin, FSJoinConfig
from repro.data import make_corpus
from repro.errors import ConfigError, DFSError, ReproError, ShardDownError
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.runtime import ClusterSpec, SimulatedCluster
from repro.observability import Tracer
from repro.similarity.functions import SimilarityFunction

GOLDEN = Path(__file__).parent / "golden"


class TestFaultSchedule:
    def test_decisions_are_deterministic(self):
        config = ChaosConfig(task_failure_rate=0.3, straggler_rate=0.3)
        a = FaultSchedule(7, config)
        b = FaultSchedule(7, config)
        for task in range(20):
            assert a.task_failure("map", task, 1) == b.task_failure("map", task, 1)
            assert a.straggler("map", task, 1) == b.straggler("map", task, 1)

    def test_different_seeds_differ(self):
        config = ChaosConfig(task_failure_rate=0.5)
        decisions = lambda seed: tuple(
            FaultSchedule(seed, config).task_failure("map", t, 1)
            for t in range(64)
        )
        assert decisions(1) != decisions(2)

    def test_zero_rates_inject_nothing(self):
        schedule = FaultSchedule(7)  # all rates default to 0
        assert not any(
            schedule.task_failure("map", t, a)
            for t in range(20) for a in range(1, 4)
        )
        assert schedule.straggler("reduce", 0, 1) == 0.0

    def test_rates_roughly_hold(self):
        schedule = FaultSchedule(3, ChaosConfig(task_failure_rate=0.25))
        hits = sum(
            schedule.task_failure("map", t, 1) for t in range(2000)
        )
        assert 300 < hits < 700  # ~500 expected

    def test_straggler_delay_bounds(self):
        schedule = FaultSchedule(
            5, ChaosConfig(straggler_rate=1.0, straggler_delay=0.2)
        )
        for task in range(50):
            delay = schedule.straggler("map", task, 1)
            assert 0.2 <= delay < 0.4

    def test_bound_methods_pickle(self):
        """Schedules must cross the process-executor boundary intact."""
        schedule = FaultSchedule(11, ChaosConfig(task_failure_rate=0.3))
        clone = pickle.loads(pickle.dumps(schedule.task_failure))
        for task in range(50):
            assert clone("map", task, 1) == schedule.task_failure("map", task, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"task_failure_rate": 1.5},
            {"straggler_rate": -0.1},
            {"straggler_delay": -1.0},
            {"net_fault_rate": 1.5},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ChaosConfig(**kwargs)


class TestChaosClock:
    def test_advances_only_on_demand(self):
        clock = ChaosClock()
        assert clock() == 0.0
        clock.advance(1.5)
        assert clock() == 1.5
        clock.sleep(0.5)  # sleep advances instead of blocking
        assert clock() == 2.0

    def test_cannot_go_backwards(self):
        with pytest.raises(ConfigError):
            ChaosClock().advance(-1.0)


class TestFaultInjector:
    def test_scheduled_kill_is_one_shot(self):
        injector = FaultInjector(FaultSchedule(1))
        dfs = injector.attach_dfs(InMemoryDFS())
        dfs.write("p", [(1, 2)])
        injector.schedule_kill("read", "p")
        with pytest.raises(DFSError, match="driver kill"):
            dfs.read("p")
        assert dfs.read("p") == [(1, 2)]  # armed once, fired once
        assert injector.report() == {"driver-kill": 1}

    def test_corrupt_records_event_and_breaks_digest(self):
        injector = FaultInjector(FaultSchedule(3))
        dfs = InMemoryDFS()
        dfs.write("p", [(1, 2)])
        injector.corrupt(dfs, "p")
        assert not dfs.verify("p")
        assert injector.report() == {"corruption": 1}

    def test_crash_replica_flaps_not_dies(self):
        class Node:
            name = "shard0/r0"
            fault_hook = None

        node = Node()
        injector = FaultInjector(FaultSchedule(4))
        injector.crash_replica(node, probes=2)
        for _ in range(2):
            with pytest.raises(ShardDownError):
                node.fault_hook(node)
        node.fault_hook(node)  # budget exhausted: probes succeed again
        assert injector.report() == {"replica-crash": 2}

    def test_fault_spans_carry_kind(self):
        tracer = Tracer()
        injector = FaultInjector(FaultSchedule(5), tracer)
        injector.record("driver-kill", "read:p", "killed here")
        (span,) = [s for s in tracer.spans() if s.phase == "fault"]
        assert span.attrs["kind"] == "driver-kill"
        assert span.attrs["target"] == "read:p"


SEEDS = (3, 11)
#: Base straggler delays: one whose slowdowns (at most twice the base) stay
#: under the runtime's ``STRAGGLER_THRESHOLD`` of 0.1 s, and one whose
#: slowdowns all race a speculative backup.
STRAGGLER_DELAYS = (0.05, 0.2)
FUNCS = (SimilarityFunction.JACCARD, SimilarityFunction.COSINE)


class TestRobustnessContract:
    """Satellite (d): the property matrix over seeded schedules.

    Each cell runs the full FS-Join pipeline under a seeded fault schedule
    (task deaths, stragglers, speculative execution racing them) and
    checks the only two permitted outcomes: pairs bit-identical to the
    fault-free twin, or a typed :class:`ReproError`.  Partial or silently
    wrong output is a failure in every cell.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("straggler_delay", STRAGGLER_DELAYS)
    @pytest.mark.parametrize("func", FUNCS)
    def test_faulted_join_is_exact_or_typed(self, seed, straggler_delay,
                                            func):
        records = make_corpus("wiki", 60, seed=seed)
        config = FSJoinConfig(theta=0.7, func=func)
        baseline = FSJoin(config).run(records)

        schedule = FaultSchedule(
            seed,
            ChaosConfig(task_failure_rate=0.15, straggler_rate=0.25,
                        straggler_delay=straggler_delay),
        )
        cluster = SimulatedCluster(
            ClusterSpec(executor="serial"),
            failure_injector=schedule.task_failure,
            straggler_injector=schedule.straggler,
        )
        try:
            result = FSJoin(config, cluster).run(records)
        except ReproError:
            return  # typed failure: the contract's permitted escape hatch
        assert result.result_pairs == baseline.result_pairs
        assert result.result_set() == baseline.result_set()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_replay_is_bit_identical(self, seed):
        """Same seed twice: the same faults, the same recovery, same pairs."""
        records = make_corpus("wiki", 60, seed=seed)
        config = FSJoinConfig(theta=0.7)
        schedule = FaultSchedule(
            seed, ChaosConfig(task_failure_rate=0.15, straggler_rate=0.2)
        )

        def run():
            cluster = SimulatedCluster(
                ClusterSpec(executor="serial"),
                failure_injector=schedule.task_failure,
                straggler_injector=schedule.straggler,
            )
            result = FSJoin(config, cluster).run(records)
            return result.result_pairs, result.counters().as_dict()

        assert run() == run()


class TestScenarios:
    def test_join_scenario_recovers(self):
        report = run_join_scenario(7, n_records=80)
        assert report.ok
        assert report.matched
        assert report.faults.get("driver-kill") == 1
        assert report.faults.get("corruption") == 1
        # The corrupted filter checkpoint was re-run, not resumed.
        assert "filter" not in report.detail["resumed_jobs"]
        assert "ordering" in report.detail["resumed_jobs"]

    def test_cluster_scenario_recovers(self):
        report = run_cluster_scenario(7)
        assert report.ok
        assert report.matched
        assert report.detail["victim_tripped"]
        assert report.detail["victim_rejoined"]
        assert report.detail["typed_failure_when_shard_down"]
        assert report.detail["partial_flagged"]
        assert report.detail["mismatches"] == 0

    def test_search_scenario_recovers(self, tmp_path):
        report = run_search_scenario(7)
        assert report.ok
        assert report.detail["corruption_detected"]
        assert report.detail["deadline_typed"]

    def test_ingest_scenario_recovers(self):
        report = run_ingest_scenario(7)
        assert report.ok
        assert report.matched
        # One kill per compaction kill-point: wal-tear, pre-, post-commit.
        assert report.faults.get("driver-kill") == 3
        for point in ("wal-tear", "pre-commit", "post-commit"):
            detail = report.detail[point]
            assert detail["killed"]
            assert detail["torn_whole"]
            assert detail["probes_ok"]
            assert detail["structural_ok"]

    def test_net_scenario_recovers(self):
        report = run_net_scenario(7)
        assert report.ok
        assert report.matched
        # Every probe answered and answered exactly, despite the faults.
        assert report.detail["mismatches"] == 0
        assert report.detail["answered"] == 20
        # The garbage header was rejected typed before the drop.
        assert report.detail["garbage_typed"]
        assert report.detail["garbage_dropped"]
        assert report.faults.get("garbage-header") == 1
        assert report.detail["counters"]["protocol_errors"] >= 1
        # Every stalled peer was timed out and counted.
        assert (report.detail["stalls_dropped"]
                == report.detail["stalls_injected"])

    def test_heal_scenario_self_heals(self):
        tracer = Tracer()
        report = run_heal_scenario(7, tracer=tracer)
        assert report.ok
        assert report.matched
        # A hard kill plus a silent rot, both repaired, zero wrong answers.
        assert report.faults.get("replica-kill") == 1
        assert report.faults.get("replica-rot") == 1
        assert report.detail["mismatches"] == 0
        assert report.detail["full_replication"]
        assert report.detail["rebuilds"] >= 2
        assert report.detail["quarantines"] >= 1
        # No operator action: every rebuild came from the control plane.
        kinds = {event[1] for event in report.detail["health_events"]}
        assert {"dead", "quarantine", "rebuild-start", "readmit"} <= kinds
        # The trace shows the repair, not just the damage.
        actions = {
            span.attrs.get("action")
            for span in tracer.spans() if span.phase == "recovery"
        }
        assert "quarantine" in actions
        assert "replica-rebuild" in actions
        assert "readmit" in actions
        assert any(span.phase == "health" for span in tracer.spans())

    def test_heal_scenario_replay_is_identical(self):
        a = run_heal_scenario(11)
        b = run_heal_scenario(11)
        assert a.matched and b.matched
        # Same seed -> identical fault log and health event log (the
        # acceptance bar: two runs, byte-identical repair history).
        assert a.faults == b.faults
        assert a.detail == b.detail
        assert a.as_dict() == b.as_dict()

    def test_net_scenario_replay_is_identical(self):
        a = run_net_scenario(11)
        b = run_net_scenario(11)
        assert a.matched and b.matched
        # Same seed -> same results, counters, and fault log.
        assert a.faults == b.faults
        assert a.detail == b.detail

    def test_net_fault_schedule_is_deterministic(self):
        config = ChaosConfig(net_fault_rate=0.5)
        a = FaultSchedule(3, config)
        b = FaultSchedule(3, config)
        picks = [a.net_fault(i) for i in range(40)]
        assert picks == [b.net_fault(i) for i in range(40)]
        fired = [kind for kind in picks if kind is not None]
        assert fired, "rate 0.5 over 40 draws must fire"
        assert set(fired) <= set(FaultSchedule.NET_FAULT_KINDS)
        # Different seed, different plan.
        other = FaultSchedule(4, config)
        assert picks != [other.net_fault(i) for i in range(40)]

    def test_recovery_report_is_deterministic(self):
        a = run_recovery_report(9, scenario="search")
        b = run_recovery_report(9, scenario="search")
        assert a.as_dict() == b.as_dict()
        assert a.ok

    def test_recovery_report_all_runs_every_scenario(self):
        tracer = Tracer()
        report = run_recovery_report(7, tracer=tracer)
        assert [s.scenario for s in report.scenarios] == [
            "join", "cluster", "search", "ingest", "gateway", "net", "heal",
        ]
        assert report.ok
        assert report.total_faults() > 0
        # The whole report is pinned: what `repro chaos --seed 7 --trace`
        # prints, byte for byte (traced, so the recovery maps are filled).
        assert json.dumps(report.as_dict(), indent=2) + "\n" == (
            GOLDEN / "chaos_seed7.json"
        ).read_text()
        # Every fault span names its kind; every recovery span its action.
        for span in tracer.spans():
            if span.phase == "fault":
                assert "kind" in span.attrs
            if span.phase == "recovery":
                assert "action" in span.attrs

    def test_unknown_scenario_is_typed(self):
        with pytest.raises(ConfigError):
            run_recovery_report(1, scenario="nope")
