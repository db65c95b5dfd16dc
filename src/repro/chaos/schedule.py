"""Seeded, deterministic fault schedules and their injection plumbing.

The chaos harness's contract is **exact replayability**: one integer seed
fixes every fault the harness will inject — which task attempts die,
which attempts straggle and by how much, which wire requests meet which
socket fault.  Every decision is a pure function of ``(seed, stable
key)`` through :func:`~repro.mapreduce.shuffle.stable_hash`; no global
RNG, no wall clock.  Running the same seed twice injects the
same faults in the same places, so a failure found in CI reproduces on a
laptop from nothing but the seed.

Three pieces:

* :class:`ChaosConfig` — the knobs (rates and delays);
* :class:`FaultSchedule` — a frozen ``(seed, config)`` pair whose methods
  answer the per-site questions (*should this attempt fail?* *how slow is
  this task?*).  It is picklable, and its bound methods plug directly
  into :class:`~repro.mapreduce.runtime.SimulatedCluster` as failure /
  straggler injectors — which matters under the process executor, where
  the injector crosses a process boundary;
* :class:`FaultInjector` — the driver-side arm that attaches schedule
  decisions to live components (scheduled driver kills on DFS calls,
  replica crashes, kills and rot, checkpoint corruption) and records
  every injection as a :class:`FaultEvent` plus a ``phase="fault"``
  span, so a trace shows exactly what was done to the system next to how
  it recovered.

:class:`ChaosClock` is the harness's time source: a manual clock that
advances only when told to, injected into circuit breakers, retry sleeps
and deadlines so time-dependent recovery is tested without real waiting —
and identically on every run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError, DFSError, ShardDownError
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.shuffle import stable_hash
from repro.observability.tracer import NOOP_TRACER, Tracer

#: Draw resolution: rates are compared against ``hash % RESOLUTION``.
RESOLUTION = 1_000_000


@dataclass(frozen=True)
class ChaosConfig:
    """Fault rates and magnitudes; all decisions still come from the seed.

    Attributes:
        task_failure_rate: Probability an individual task *attempt* is
            declared dead before commit (retried by the runtime).
        straggler_rate: Probability a task attempt runs slow.
        straggler_delay: Base injected slowdown in simulated seconds for a
            straggling attempt (actual delay varies in
            ``[delay, 2·delay)``, seeded) — what speculative execution
            races against.
        net_fault_rate: Probability one wire request is subjected to a
            socket fault (torn frame, stalled connection, or mid-request
            connection kill — the kind is a second seeded draw; see
            :meth:`FaultSchedule.net_fault`).
    """

    task_failure_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_delay: float = 0.25
    net_fault_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("task_failure_rate", "straggler_rate",
                     "net_fault_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.straggler_delay < 0:
            raise ConfigError("injected delays must be >= 0")


@dataclass(frozen=True)
class FaultSchedule:
    """Every fault decision for one seed, as pure functions.

    Frozen and picklable: bound methods (``schedule.task_failure``,
    ``schedule.straggler``) are handed to the MapReduce runtime as its
    failure/straggler injectors and survive the trip into worker
    processes, where they keep making byte-identical decisions.
    """

    seed: int
    config: ChaosConfig = field(default_factory=ChaosConfig)

    def _unit(self, *key: Any) -> float:
        """A deterministic draw in ``[0, 1)`` for one decision site."""
        return stable_hash((self.seed,) + key) % RESOLUTION / RESOLUTION

    # -- MapReduce runtime hooks ---------------------------------------
    def task_failure(self, phase: str, task_id: int, attempt: int) -> bool:
        """``FailureInjector``: does this task attempt die before commit?"""
        return (
            self._unit("task-fail", phase, task_id, attempt)
            < self.config.task_failure_rate
        )

    def straggler(self, phase: str, task_id: int, attempt: int) -> float:
        """``StragglerInjector``: injected slowdown for this attempt."""
        if (
            self._unit("straggle", phase, task_id, attempt)
            < self.config.straggler_rate
        ):
            magnitude = self._unit("straggle-mag", phase, task_id, attempt)
            return self.config.straggler_delay * (1.0 + magnitude)
        return 0.0

    # -- wire decisions ------------------------------------------------
    #: Wire faults :meth:`net_fault` rotates through (seeded second draw).
    NET_FAULT_KINDS = ("torn-frame", "stalled-connection", "connection-kill")

    def net_fault(self, request_index: int) -> Optional[str]:
        """Which socket fault (if any) hits the ``request_index``-th wire
        request — ``None``, or one of :data:`NET_FAULT_KINDS`."""
        if self._unit("net", request_index) >= self.config.net_fault_rate:
            return None
        kinds = self.NET_FAULT_KINDS
        draw = self._unit("net-kind", request_index)
        return kinds[int(draw * len(kinds)) % len(kinds)]


class ChaosClock:
    """A manual monotonic clock: time moves only via :meth:`advance`.

    Injected wherever the production code reads time — circuit-breaker
    reset timeouts, retry backoff sleeps, request deadlines — so the
    harness controls exactly when "later" happens.  ``sleep`` advances
    instead of blocking, which also makes retry backoff free in tests.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ConfigError("the chaos clock cannot move backwards")
        self.now += seconds

    def sleep(self, seconds: float) -> None:
        self.advance(max(0.0, seconds))


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded by the driver-side injector."""

    kind: str
    target: str
    detail: str = ""

    def as_dict(self) -> Dict[str, str]:
        return {"kind": self.kind, "target": self.target, "detail": self.detail}


class FaultInjector:
    """Wire a :class:`FaultSchedule` into live components and keep the log.

    The injector is strictly driver-side: it records the faults *it*
    injects (driver kills, corruption, replica crashes, kills and rot,
    plus whatever a scenario logs through :meth:`record`) as
    :class:`FaultEvent` entries and ``phase="fault"`` spans.  Task-level
    faults live inside worker processes and are accounted by the runtime
    instead (retry counters, ``status="retried"`` spans), so nothing is
    double-counted and nothing is lost under the process executor.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        tracer: Tracer = NOOP_TRACER,
    ) -> None:
        self.schedule = schedule
        self.tracer = tracer
        self.events: List[FaultEvent] = []
        self._kills: Dict[Tuple[str, str], int] = {}

    # -- recording -----------------------------------------------------
    def record(self, kind: str, target: str, detail: str = "") -> None:
        self.events.append(FaultEvent(kind, target, detail))
        if self.tracer.enabled:
            self.tracer.add(
                f"{kind}:{target}", "fault",
                start=time.perf_counter(), duration=0.0,
                kind=kind, target=target, detail=detail,
            )

    def report(self) -> Dict[str, int]:
        """Injected-fault counts by kind."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # -- DFS faults ----------------------------------------------------
    def attach_dfs(self, dfs: InMemoryDFS) -> InMemoryDFS:
        """Subject a DFS to this injector's scheduled kills
        (:meth:`schedule_kill`); returns the same DFS for chaining."""
        dfs.fault_hook = self._dfs_hook
        return dfs

    def _dfs_hook(self, op: str, path: str) -> None:
        if (op, path) in self._kills:
            if self._kills[(op, path)] > 0:
                self._kills[(op, path)] -= 1
            else:
                del self._kills[(op, path)]
                self.record("driver-kill", f"{op}:{path}",
                            "pipeline driver killed at this operation")
                raise DFSError(
                    f"injected driver kill during {op} of {path!r} "
                    f"(chaos seed {self.schedule.seed})"
                )

    def schedule_kill(self, op: str, path: str, after: int = 0) -> None:
        """Arm a one-shot driver kill: the next ``op`` on ``path`` raises.

        This is how the harness murders a pipeline *mid-run* at a precise,
        replayable point — everything materialised before the kill
        survives on the DFS, which is exactly what ``resume`` recovers
        from.  ``after=N`` lets the first N matching operations through
        before firing, which is how the ingest drill tears a WAL batch:
        with ``after=1`` the batch's record append lands but its commit
        marker dies, leaving an uncommitted tail for replay to discard."""
        self._kills[(op, path)] = after

    def corrupt(self, dfs: InMemoryDFS, path: str) -> None:
        """Silently corrupt one DFS file (digest left stale) and log it."""
        dfs.corrupt(path)
        self.record("corruption", path,
                    "bit-flip in place; recorded digest now stale")

    # -- replica faults ------------------------------------------------
    def crash_replica(self, node, probes: int) -> None:
        """Make a replica fail its next N probe contacts, then recover.

        Models a *flapping* node: liveness pings still pass, but the next
        ``probes`` probe attempts die mid-flight with
        :class:`ShardDownError` — enough consecutive failures to trip the
        replica's circuit breaker — after which the node serves normally
        again, so the breaker's half-open trial finds it healthy and it
        rejoins rotation.
        """
        state = {"left": probes}
        injector = self

        def hook(target) -> None:
            if state["left"] > 0:
                state["left"] -= 1
                injector.record(
                    "replica-crash", target.name,
                    f"{state['left']} injected failures remaining",
                )
                raise ShardDownError(
                    f"{target.name}: injected crash "
                    f"(chaos seed {injector.schedule.seed})"
                )

        node.fault_hook = hook

    def kill_replica(self, node) -> None:
        """Hard-kill a replica: dead until something rebuilds it.

        Unlike :meth:`crash_replica` this is not a flap — ``alive`` goes
        False and stays False, so liveness pings fail and the only way
        back into rotation is the control plane's rebuild + verified
        readmission (or an operator's ``restore()`` + ``readmit_replica``).
        """
        node.fail()
        self.record("replica-kill", node.name,
                    "hard kill; alive=False until rebuilt")

    def corrupt_replica(self, node, fragment: Optional[int] = None) -> int:
        """Silently bit-rot one owned fragment of a replica's slice.

        The fragment's posting runs are wiped wholesale (record metadata
        left intact), so the replica keeps *answering* probes — just
        wrongly, missing every candidate that fragment would have
        produced.  Nothing on the serving path can notice: no exception,
        no breaker trip.  Only the anti-entropy scrubber's cross-replica
        digest comparison catches it.  The victim fragment is a seeded
        pick among the replica's non-empty owned fragments unless given
        explicitly; returns the fragment id.
        """
        from repro.service.columnar import FragmentPostings

        slice_ = node.slice
        if fragment is None:
            candidates = sorted(
                v for v in slice_.owned_fragments
                if len(slice_._postings[v])
            )
            if not candidates:
                raise ConfigError(
                    f"{node.name} has no non-empty fragment to corrupt"
                )
            draw = stable_hash((self.schedule.seed, "replica-rot", node.name))
            fragment = candidates[draw % len(candidates)]
        slice_._postings[fragment] = FragmentPostings()
        self.record("replica-rot", node.name,
                    f"fragment {fragment} postings silently wiped")
        return fragment
