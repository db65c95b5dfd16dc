"""Self-healing control plane: detect, scrub, repair — deterministically.

The cluster built in PRs 4–9 routes *around* damage: circuit breakers
skip crashed replicas and hedged scatter hides stragglers, but a dead
replica stays dead until an operator calls ``restore()``, and a replica
whose postings were silently bit-rotted keeps serving wrong answers
forever (the breaker never trips — the probes *succeed*, they are just
wrong).  :class:`ControlPlane` closes both gaps with three loops, all
driven by an explicit :meth:`~ControlPlane.tick` so a chaos run can
interleave them deterministically with traffic:

1. **Failure detection** — every tick pings every target (each replica,
   and the ingest node when one is attached) and reads a replica's
   breaker.  A target that misses (ping fails or breaker OPEN) becomes
   ``SUSPECT``; after ``miss_budget`` consecutive misses it is declared
   ``DEAD`` and queued for repair.  A suspect that answers again before
   the budget runs out recovers silently (flapping is not death).

2. **Anti-entropy scrubbing** — every ``scrub_interval`` ticks, each
   serving replica's per-fragment content digests (sha256 over canonical
   posting content, see
   :meth:`repro.service.index.SegmentIndex.content_digests`) are
   compared against the shard's *baseline* — the majority digest vote
   captured when the plane attached (refreshed when the plan changes,
   e.g. after a rebalance migration).  A divergent replica is fenced on
   the spot (``QUARANTINED`` — it stops serving before its next probe)
   and queued for repair.  This is what catches chaos ``corrupt()``:
   the serving path cannot tell a wrong answer from a right one, the
   scrubber can.

3. **Repair** — queued targets are handed to the
   :class:`~repro.cluster.repair.RepairManager`.  A replica re-hydrates
   from a healthy peer clone or the digest-checked snapshot, catches up
   past the snapshot's epoch, then passes *verified readmission*
   (:meth:`~repro.cluster.router.ClusterRouter.readmit_replica`) — it
   rejoins rotation only after answering bit-identically to a healthy
   peer, which also force-closes its breaker.  The ingest node recovers
   from its WAL and generations on the DFS.  Both go through the same
   state machine and retry bookkeeping; only the rebuild call differs.

Everything observable is deterministic: events carry the tick number
(never wall time), repair order is queue order, digest comparisons and
verification probes are seeded — two runs of the same chaos schedule
produce byte-identical event logs (``tests/test_chaos.py`` diffs them).
"""

from __future__ import annotations

import enum
import time
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import DefaultDict, Deque, Dict, List, Optional, Tuple, Union

from repro.errors import ClusterError, ConfigError
from repro.observability.tracer import NOOP_TRACER, Tracer
from repro.service.index import differing_fragments

from repro.cluster.failover import BreakerState
from repro.cluster.repair import RepairManager
from repro.cluster.router import ClusterRouter

HEALTH_GROUP = "cluster.health"
#: Events a control plane keeps (the newest): a ``repro serve --heal``
#: process ticks for its whole life, and its journal must not grow with it.
EVENT_LOG_LIMIT = 1_000
#: Repairs drained per tick, so detection never starves behind rebuilds.
MAX_REPAIRS_PER_TICK = 2
#: Failed rebuilds of one target before it is abandoned (state stays
#: terminal, event ``rebuild-abandoned``).
MAX_REBUILD_ATTEMPTS = 3

#: A repair target: a replica's ``(shard, replica)`` or :data:`INGEST`.
Target = Union[Tuple[int, int], Tuple[str]]
#: The router's ingest node as a target.
INGEST: Target = ("ingest",)


class ReplicaState(str, enum.Enum):
    """What the control plane currently believes about one target."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    DEAD = "dead"
    QUARANTINED = "quarantined"
    REBUILDING = "rebuilding"


@dataclass(frozen=True)
class HealthConfig:
    """Shape of the control plane's three loops.

    ``miss_budget`` — consecutive missed heartbeats before a suspect is
    declared dead.  ``scrub_interval`` — ticks between anti-entropy
    digest sweeps.  ``verify_probes`` — seeded probes per readmission
    verification.  Every tick drains up to :data:`MAX_REPAIRS_PER_TICK`
    queued repairs, and a target is abandoned after
    :data:`MAX_REBUILD_ATTEMPTS` failed rebuilds.
    """

    miss_budget: int = 3
    scrub_interval: int = 4
    verify_probes: int = 4

    def __post_init__(self) -> None:
        if self.miss_budget < 1:
            raise ConfigError("miss_budget must be >= 1")
        if self.scrub_interval < 1:
            raise ConfigError("scrub_interval must be >= 1")
        if self.verify_probes < 1:
            raise ConfigError("verify_probes must be >= 1")


@dataclass(frozen=True)
class HealthEvent:
    """One control-plane decision, replay-comparable.

    Carries the tick number, never a wall-clock time, so two seeded runs
    of the same fault schedule produce identical event logs.
    """

    tick: int
    kind: str
    target: str
    detail: str = ""

    def line(self) -> str:
        """The one-line typed form ``repro serve --heal`` logs to stderr
        for every decision the control plane makes."""
        suffix = f" ({self.detail})" if self.detail else ""
        return f"health: [{self.tick}] {self.kind} {self.target}{suffix}"


class ControlPlane:
    """The cluster's health brain: detector + scrubber + repair driver."""

    def __init__(
        self,
        router: ClusterRouter,
        config: Optional[HealthConfig] = None,
        repair: Optional[RepairManager] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if router.control is not None:
            raise ClusterError("a control plane is already attached")
        self.router = router
        self.config = config if config is not None else HealthConfig()
        self.repair = repair if repair is not None else RepairManager(router)
        self.tracer = tracer if tracer is not None else router.tracer
        if self.tracer is None:  # pragma: no cover - defensive
            self.tracer = NOOP_TRACER
        self.metrics = router.metrics
        self._tick = 0
        self.scrub_epoch = 0
        #: target → belief, consecutive missed heartbeats, failed rebuilds.
        self._states: DefaultDict[Target, ReplicaState] = defaultdict(
            lambda: ReplicaState.HEALTHY
        )
        self._misses: DefaultDict[Target, int] = defaultdict(int)
        self._attempts: DefaultDict[Target, int] = defaultdict(int)
        #: repair queue of targets, FIFO.
        self._queue: List[Target] = []
        #: the newest :data:`EVENT_LOG_LIMIT` events, oldest first.
        self.events: Deque[HealthEvent] = deque(maxlen=EVENT_LOG_LIMIT)
        #: events emitted over the plane's life, kept or not.
        self._emitted = 0
        #: the events the current tick emitted.
        self._tick_events: List[HealthEvent] = []
        #: shard → fragment → majority content digest at attach time.
        self._baseline: List[Dict[int, str]] = []
        self._plan_print: Tuple = ()
        self._capture_baseline()
        router.control = self

    # -- baselines ------------------------------------------------------
    def _plan_fingerprint(self) -> Tuple:
        return tuple(sorted(self.router.plan.assignment.items()))

    def _capture_baseline(self) -> None:
        """Majority digest vote per fragment, over serving replicas.

        Ties break deterministically toward the digest held by the
        lowest-numbered replica — replica 0 is the copy snapshots are
        written from, so at replication 2 a plane attached *after* one
        replica rotted still votes the intact content in.  With replicas
        sharing one slice the vote is unanimous by construction.
        """
        self._baseline = []
        for shard in range(self.router.n_shards):
            #: fragment → digest → [vote count, first replica seen on].
            votes: Dict[int, Dict[str, List[int]]] = {}
            for rep in range(self.router.replication):
                node = self.router.replica(shard, rep)
                if not node.ping():
                    continue
                for fragment, digest in node.slice.content_digests().items():
                    tally = votes.setdefault(fragment, {})
                    entry = tally.setdefault(digest, [0, rep])
                    entry[0] += 1
            self._baseline.append({
                fragment: max(
                    tally.items(),
                    key=lambda kv: (kv[1][0], -kv[1][1]),
                )[0]
                for fragment, tally in votes.items()
            })
        self._plan_print = self._plan_fingerprint()

    # -- the tick -------------------------------------------------------
    def tick(self) -> List[HealthEvent]:
        """One control-plane round: detect → scrub → repair.

        Returns the events this tick emitted (also appended to
        :attr:`events`, which keeps the newest :data:`EVENT_LOG_LIMIT`).
        Emits one ``phase="health"`` span per tick so a
        trace shows when the plane looked and what it decided.
        """
        self._tick += 1
        emitted = self._tick_events = []
        start = time.perf_counter()
        self._detect()
        if self._tick % self.config.scrub_interval == 0:
            self._scrub()
        self._drain_repairs()
        self.tracer.add(
            "health-tick", "health",
            start=start, duration=time.perf_counter() - start,
            tick=self._tick, events=len(emitted),
            pending_repairs=len(self._queue),
        )
        self.metrics.increment(HEALTH_GROUP, "ticks")
        return emitted

    # -- loop 1: failure detection --------------------------------------
    def _targets(self) -> List[Target]:
        """Every replica in ``(shard, replica)`` order, then the ingest
        node when one is attached."""
        targets: List[Target] = [
            (shard, rep)
            for shard in range(self.router.n_shards)
            for rep in range(self.router.replication)
        ]
        if self.router.ingest is not None:
            targets.append(INGEST)
        return targets

    def _node(self, target: Target):
        if target == INGEST:
            return self.router.ingest
        return self.router.replica(*target)

    def _detect(self) -> None:
        budget = self.config.miss_budget
        for target in self._targets():
            state = self._states[target]
            if state in (ReplicaState.DEAD, ReplicaState.QUARANTINED,
                         ReplicaState.REBUILDING):
                continue
            node = self._node(target)
            breaker_open = target != INGEST and (
                self.router.breaker(*target).state is BreakerState.OPEN
            )
            if node.ping() and not breaker_open:
                if state is ReplicaState.SUSPECT:
                    self._event("recovered", node.name,
                                f"after {self._misses[target]} misses")
                    self.metrics.increment(HEALTH_GROUP, "recoveries")
                self._states[target] = ReplicaState.HEALTHY
                self._misses[target] = 0
                continue
            self._misses[target] += 1
            misses = self._misses[target]
            why = "breaker open" if breaker_open else "ping failed"
            if state is ReplicaState.HEALTHY:
                self._states[target] = ReplicaState.SUSPECT
                self._event("suspect", node.name,
                            f"{why}; miss 1/{budget}")
                self.metrics.increment(HEALTH_GROUP, "suspects")
            if misses >= budget and (
                    self._states[target] is ReplicaState.SUSPECT):
                self._states[target] = ReplicaState.DEAD
                self._event("dead", node.name,
                            f"{why}; missed {misses} heartbeats")
                self.metrics.increment(HEALTH_GROUP, "deaths")
                self._enqueue(target)

    # -- loop 2: anti-entropy scrubbing ---------------------------------
    def _scrub(self) -> None:
        """Digest every serving replica against the shard baseline."""
        if self._plan_fingerprint() != self._plan_print:
            # The plan moved (rebalance migration): the old baseline
            # describes ownership that no longer exists.  Re-vote instead
            # of quarantining every replica of the migrated fragments.
            self._capture_baseline()
            self._event("baseline-refresh", "plan",
                        "placement changed; digests re-voted")
            self.metrics.increment(HEALTH_GROUP, "baseline_refreshes")
        self.scrub_epoch += 1
        start = time.perf_counter()
        checked = quarantined = 0
        for shard in range(self.router.n_shards):
            baseline = self._baseline[shard]
            for rep in range(self.router.replication):
                if self._states[shard, rep] is not ReplicaState.HEALTHY:
                    continue
                node = self.router.replica(shard, rep)
                if not node.ping():
                    continue
                checked += 1
                bad = differing_fragments(
                    node.slice.content_digests(), baseline
                )
                if not bad:
                    continue
                node.fence()
                self._states[shard, rep] = ReplicaState.QUARANTINED
                quarantined += 1
                self._event("quarantine", node.name,
                            f"fragment digests diverge: {bad}")
                self.metrics.increment(HEALTH_GROUP, "quarantines")
                self.tracer.add(
                    f"quarantine:{node.name}", "recovery",
                    start=time.perf_counter(), duration=0.0,
                    action="quarantine", shard=shard, replica=rep,
                    fragments=str(bad),
                )
                self._enqueue((shard, rep))
        self.tracer.add(
            "scrub", "health",
            start=start, duration=time.perf_counter() - start,
            epoch=self.scrub_epoch, checked=checked,
            quarantined=quarantined,
        )
        self.metrics.increment(HEALTH_GROUP, "scrubs")

    # -- loop 3: repair -------------------------------------------------
    def _enqueue(self, target: Target) -> None:
        if target not in self._queue:
            self._queue.append(target)

    def _drain_repairs(self) -> None:
        budget = MAX_REPAIRS_PER_TICK
        while self._queue and budget > 0:
            budget -= 1
            self._repair(self._queue.pop(0))

    def _repair(self, target: Target) -> None:
        node = self._node(target)
        prior = self._states[target]
        self._states[target] = ReplicaState.REBUILDING
        self._event("rebuild-start", node.name, f"was {prior.value}")
        start = time.perf_counter()
        try:
            if target == INGEST:
                detail = self.repair.rebuild_ingest()
                attrs = {"action": "ingest-rebuild"}
            else:
                shard, rep = target
                detail = self.repair.rebuild_replica(
                    shard, rep,
                    baseline=self._baseline[shard],
                    probes=self.config.verify_probes,
                )
                attrs = {"action": "replica-rebuild", "shard": shard,
                         "replica": rep}
        except ClusterError as exc:
            self._rebuild_failed(target, prior, node.name, str(exc))
            return
        self._states[target] = ReplicaState.HEALTHY
        self._misses[target] = 0
        self._attempts.pop(target, None)
        self._event("readmit", node.name, detail)
        self.metrics.increment(HEALTH_GROUP, "rebuilds")
        self.tracer.add(
            f"rebuild:{node.name}", "recovery",
            start=start, duration=time.perf_counter() - start,
            **attrs, detail=detail,
        )

    def _rebuild_failed(self, target: Target, prior: ReplicaState,
                        name: str, why: str) -> None:
        """Count a failed rebuild and retry or give the target up: the
        path a ``repro serve --heal`` repair takes when its source is bad."""
        self._attempts[target] += 1
        attempts = self._attempts[target]
        self.metrics.increment(HEALTH_GROUP, "rebuild_failures")
        self._states[target] = prior
        if attempts < MAX_REBUILD_ATTEMPTS:
            self._event("rebuild-failed", name,
                        f"attempt {attempts}: {why}")
            self._enqueue(target)
        else:
            self._event("rebuild-abandoned", name,
                        f"after {attempts} attempts: {why}")
            self.metrics.increment(HEALTH_GROUP, "rebuilds_abandoned")

    # -- introspection --------------------------------------------------
    def _event(self, kind: str, target: str, detail: str = "") -> None:
        event = HealthEvent(self._tick, kind, target, detail)
        self.events.append(event)
        self._tick_events.append(event)
        self._emitted += 1

    @property
    def ticks(self) -> int:
        return self._tick

    def replica_states(self) -> List[List[str]]:
        """``result[shard][replica]`` is the plane's belief (string form)."""
        return [
            [self._states[shard, rep].value
             for rep in range(self.router.replication)]
            for shard in range(self.router.n_shards)
        ]

    def ingest_state(self) -> Optional[str]:
        """The plane's belief about the ingest node, ``None`` without one
        (the ``self_heal.ingest.state`` of ``repro serve --heal --ingest``
        status)."""
        if self.router.ingest is None:
            return None
        return self._states[INGEST].value

    def all_healthy(self) -> bool:
        """Full replication restored: every target serving and believed
        healthy, nothing queued for repair."""
        return not self._queue and all(
            self._states[target] is ReplicaState.HEALTHY
            and self._node(target).ping()
            for target in self._targets()
        )

    @property
    def events_dropped(self) -> int:
        """Events emitted but no longer kept (older than the newest
        :data:`EVENT_LOG_LIMIT`)."""
        return self._emitted - len(self.events)

    def event_log(self) -> List[Tuple[int, str, str, str]]:
        """The kept decision log as plain tuples — what replay runs diff."""
        return [(e.tick, e.kind, e.target, e.detail) for e in self.events]

    def summary(self) -> Dict[str, object]:
        """JSON-safe control-plane state for ``status()`` surfaces: the
        ``self_heal`` block of a ``repro serve --heal`` status frame."""
        return {
            "tick": self._tick,
            "scrub_epoch": self.scrub_epoch,
            "pending_repairs": [list(item) for item in self._queue],
            "events": self._emitted,
            "events_dropped": self.events_dropped,
            "all_healthy": self.all_healthy(),
            "health_counters": self.metrics.group(HEALTH_GROUP),
        }
