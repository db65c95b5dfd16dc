"""Seeded, deterministic fault schedules and their injection plumbing.

The chaos harness's contract is **exact replayability**: one integer seed
fixes every fault the harness will inject — which task attempts die, which
attempts straggle and by how much, which DFS calls error, when a replica
crashes and for how long.  Every decision is a pure function of
``(seed, stable key)`` through :func:`~repro.mapreduce.shuffle.stable_hash`;
no global RNG, no wall clock.  Running the same seed twice injects the
same faults in the same places, so a failure found in CI reproduces on a
laptop from nothing but the seed.

Three pieces:

* :class:`ChaosConfig` — the knobs (rates, delays, crash lengths);
* :class:`FaultSchedule` — a frozen ``(seed, config)`` pair whose methods
  answer the per-site questions (*should this attempt fail?* *how slow is
  this task?*).  It is picklable, and its bound methods plug directly
  into :class:`~repro.mapreduce.runtime.SimulatedCluster` as failure /
  straggler injectors — which matters under the process executor, where
  the injector crosses a process boundary;
* :class:`FaultInjector` — the driver-side arm that attaches schedule
  decisions to live components (DFS hooks, replica fault hooks, scheduled
  driver kills, checkpoint corruption) and records every injection as a
  :class:`FaultEvent` plus a ``phase="fault"`` span, so a trace shows
  exactly what was done to the system next to how it recovered.

:class:`ChaosClock` is the harness's time source: a manual clock that
advances only when told to, injected into circuit breakers, retry sleeps
and deadlines so time-dependent recovery is tested without real waiting —
and identically on every run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

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
        dfs_read_error_rate: Probability a DFS read call fails.
        dfs_write_error_rate: Probability a DFS write call fails.
        replica_crash_probes: How many consecutive probes a crashed
            replica fails before it comes back (a *flap*, not permanent
            death — long enough to trip a breaker, short enough to test
            the rejoin path).
        latency_rate: Probability one replica probe hits a latency spike.
        latency_spike: Seconds charged to the chaos clock per spike (what
            request deadlines trip against).
        net_fault_rate: Probability one wire request is subjected to a
            socket fault (torn frame, stalled connection, or mid-request
            connection kill — the kind is a second seeded draw; see
            :meth:`FaultSchedule.net_fault`).
    """

    task_failure_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_delay: float = 0.25
    dfs_read_error_rate: float = 0.0
    dfs_write_error_rate: float = 0.0
    replica_crash_probes: int = 2
    latency_rate: float = 0.0
    latency_spike: float = 0.05
    net_fault_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("task_failure_rate", "straggler_rate",
                     "dfs_read_error_rate", "dfs_write_error_rate",
                     "latency_rate", "net_fault_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.straggler_delay < 0 or self.latency_spike < 0:
            raise ConfigError("injected delays must be >= 0")
        if self.replica_crash_probes < 0:
            raise ConfigError("replica_crash_probes must be >= 0")


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

    # -- DFS / replica decisions ---------------------------------------
    def dfs_failure(self, op: str, path: str, call_index: int) -> bool:
        """Does the ``call_index``-th ``op`` on ``path`` fail?"""
        if op == "read":
            rate = self.config.dfs_read_error_rate
        elif op in ("write", "append"):
            rate = self.config.dfs_write_error_rate
        else:
            return False
        return self._unit("dfs", op, path, call_index) < rate

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

    def latency_spike(self, shard: int, replica: int, probe_index: int) -> float:
        """Chaos-clock seconds this replica probe is delayed by."""
        if (
            self._unit("latency", shard, replica, probe_index)
            < self.config.latency_rate
        ):
            return self.config.latency_spike
        return 0.0


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
    injects (DFS errors, driver kills, corruption, replica crashes and
    latency spikes) as :class:`FaultEvent` entries and ``phase="fault"``
    spans.  Task-level faults live inside worker processes and are
    accounted by the runtime instead (retry counters, ``status="retried"``
    spans), so nothing is double-counted and nothing is lost under the
    process executor.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        tracer: Tracer = NOOP_TRACER,
        clock: Optional[ChaosClock] = None,
    ) -> None:
        self.schedule = schedule
        self.tracer = tracer
        self.clock = clock if clock is not None else ChaosClock()
        self.events: List[FaultEvent] = []
        self._dfs_calls: Dict[Tuple[str, str], int] = {}
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
        """Subject a DFS to this schedule's read/write error rates (plus
        any scheduled kills); returns the same DFS for chaining."""
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
        key = (op, path)
        index = self._dfs_calls.get(key, 0)
        self._dfs_calls[key] = index + 1
        if self.schedule.dfs_failure(op, path, index):
            self.record("dfs-error", f"{op}:{path}", f"call {index}")
            raise DFSError(
                f"injected {op} failure on {path!r} "
                f"(chaos seed {self.schedule.seed}, call {index})"
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
    def crash_replica(self, node, probes: Optional[int] = None) -> None:
        """Make a replica fail its next N probe contacts, then recover.

        Models a *flapping* node: liveness pings still pass, but the next
        ``probes`` probe attempts die mid-flight with
        :class:`ShardDownError` — enough consecutive failures to trip the
        replica's circuit breaker — after which the node serves normally
        again, so the breaker's half-open trial finds it healthy and it
        rejoins rotation.
        """
        budget = (
            probes if probes is not None
            else self.schedule.config.replica_crash_probes
        )
        state = {"left": budget}
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
        readmission (or an operator's ``restore_replica``).
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

    def spike_replica(self, node) -> None:
        """Subject a replica's probes to seeded latency spikes.

        Spikes advance the chaos clock (not real time), so a router or
        service sharing this injector's clock sees its request deadlines
        overrun deterministically.
        """
        state = {"probe": 0}
        injector = self

        def hook(target) -> None:
            index = state["probe"]
            state["probe"] = index + 1
            delay = injector.schedule.latency_spike(
                target.shard_id, target.replica_id, index
            )
            if delay:
                injector.record(
                    "latency-spike", target.name, f"+{delay:.3f}s"
                )
                injector.clock.advance(delay)

        node.fault_hook = hook
