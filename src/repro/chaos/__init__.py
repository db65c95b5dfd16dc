"""Deterministic chaos harness: seeded faults, verified recovery.

One seed fixes every fault the harness injects — task deaths, stragglers,
driver kills, checkpoint and snapshot corruption, replica flaps, kills
and rot, torn frames, stalled sockets and killed connections — and the
scenarios in :mod:`repro.chaos.harness` drive each layer
of the stack through them, checking the repo's robustness contract: the
run either recovers to **bit-identical** output, or fails with a typed
:class:`~repro.errors.ReproError` (or an explicitly flagged partial
result).  ``repro chaos --seed N`` runs the drill from the CLI and prints
the recovery report.

See :mod:`repro.chaos.schedule` for the fault model and
:mod:`repro.chaos.harness` for the scenarios.
"""

from repro.chaos.harness import (
    RecoveryReport,
    ScenarioReport,
    run_cluster_scenario,
    run_gateway_scenario,
    run_heal_scenario,
    run_ingest_scenario,
    run_join_scenario,
    run_net_scenario,
    run_recovery_report,
    run_search_scenario,
)
from repro.chaos.schedule import (
    ChaosClock,
    ChaosConfig,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
)

__all__ = [
    "ChaosClock",
    "ChaosConfig",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "RecoveryReport",
    "ScenarioReport",
    "run_cluster_scenario",
    "run_gateway_scenario",
    "run_heal_scenario",
    "run_ingest_scenario",
    "run_join_scenario",
    "run_net_scenario",
    "run_recovery_report",
    "run_search_scenario",
]
