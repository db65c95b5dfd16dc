"""Failover primitives: retry budgets with backoff and circuit breakers.

Two small, composable pieces the :class:`~repro.cluster.router.ClusterRouter`
uses instead of its original permanent-death failover:

* :class:`RetryPolicy` — a per-request retry budget with exponential
  backoff and *deterministic* jitter: the jitter factor for attempt ``i``
  of request ``key`` is a pure function of ``(seed, key, i)`` through
  :func:`~repro.mapreduce.shuffle.stable_hash`, so a replayed failure run
  waits exactly as long as the original did (the chaos harness depends on
  this for exact replays).

* :class:`CircuitBreaker` — the classic three-state machine, one per
  replica:

  ::

      CLOSED --(failure_threshold consecutive failures)--> OPEN
      OPEN   --(reset_timeout elapsed)-->                  HALF_OPEN
      HALF_OPEN --(probe succeeds)-->                      CLOSED
      HALF_OPEN --(probe fails)-->                         OPEN

  While OPEN the replica is skipped without being contacted (no timeout
  paid on a node known to be down).  HALF_OPEN admits exactly one probe
  at a time — the "ping" that decides whether a flapping replica rejoins
  rotation automatically.  The clock is injectable so state transitions
  are testable (and chaos-replayable) without real sleeps.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigError
from repro.mapreduce.shuffle import stable_hash


#: Growth of the backoff per retry attempt.
BACKOFF_MULTIPLIER = 2.0
#: Half-width of the jitter factor's range around 1.
BACKOFF_JITTER = 0.5


class BreakerState(str, enum.Enum):
    """Where a replica's circuit breaker currently stands."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and a retry budget.

    ``backoff(key, attempt)`` for attempt ``0..max_retries-1`` is::

        min(max_delay, base_delay * BACKOFF_MULTIPLIER**attempt) * jitter_factor

    where ``jitter_factor`` is drawn uniformly from
    ``[1-BACKOFF_JITTER, 1+BACKOFF_JITTER]`` by hashing ``(seed, key,
    attempt)`` — no global RNG state, so two requests (or two runs) with
    the same key wait identically.
    """

    max_retries: int = 1
    base_delay: float = 0.005
    max_delay: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigError("backoff delays must be >= 0")

    def backoff(self, key: Any, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (0-based)."""
        raw = min(self.max_delay,
                  self.base_delay * BACKOFF_MULTIPLIER ** attempt)
        unit = stable_hash((self.seed, key, attempt)) % 10_000 / 10_000.0
        return raw * (1.0 - BACKOFF_JITTER + 2.0 * BACKOFF_JITTER * unit)


@dataclass(frozen=True)
class HedgeConfig:
    """Shape of deadline-aware hedged scatter.

    When a shard leg is still unanswered after the rolling p95 of
    observed leg latencies (clamped to ``[min_delay, max_delay]``), the
    router fires one backup probe on the next healthy replica and takes
    whichever answer lands first.  Replicas of a shard serve identical
    slices, so the winner's answer is bit-identical either way and the
    claim rule keeps the gather dedup-free.  ``min_observations`` is how
    many legs must be on record before the p95 is trusted; until then
    ``min_delay`` is used.
    """

    min_delay: float = 0.005
    max_delay: float = 0.5
    min_observations: int = 16

    def __post_init__(self) -> None:
        if self.min_delay < 0 or self.max_delay < 0:
            raise ConfigError("hedge delays must be >= 0")
        if self.max_delay < self.min_delay:
            raise ConfigError("max_delay must be >= min_delay")
        if self.min_observations < 1:
            raise ConfigError("min_observations must be >= 1")


@dataclass(frozen=True)
class BreakerConfig:
    """Shape of the per-replica circuit breakers a router builds."""

    failure_threshold: int = 3
    reset_timeout: float = 0.05

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigError("failure_threshold must be >= 1")
        if self.reset_timeout < 0:
            raise ConfigError("reset_timeout must be >= 0")

    def build(self, clock: Callable[[], float] = time.monotonic) -> "CircuitBreaker":
        return CircuitBreaker(
            failure_threshold=self.failure_threshold,
            reset_timeout=self.reset_timeout,
            clock=clock,
        )


class CircuitBreaker:
    """Per-replica failure gate: closed → open → half-open → closed.

    Thread-safe; all transitions happen under one lock.  ``allow()`` is
    the single admission question ("may I send this replica a probe right
    now?") and is what flips OPEN to HALF_OPEN once ``reset_timeout`` has
    elapsed.  HALF_OPEN admits one in-flight probe: concurrent callers
    are refused until :meth:`record_success` or :meth:`record_failure`
    resolves the trial.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigError("failure_threshold must be >= 1")
        if reset_timeout < 0:
            raise ConfigError("reset_timeout must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False
        #: lifetime transition counts, for reports: opened/half_opened/closed.
        self.transitions = {"opened": 0, "half_opened": 0, "closed": 0}

    # -- state ---------------------------------------------------------
    @property
    def state(self) -> BreakerState:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        """OPEN → HALF_OPEN once the reset timeout has elapsed (lock held)."""
        if (
            self._state is BreakerState.OPEN
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = BreakerState.HALF_OPEN
            self._probing = False
            self.transitions["half_opened"] += 1

    # -- the admission question ----------------------------------------
    def allow(self) -> bool:
        """May the caller contact this replica right now?

        CLOSED: always.  OPEN: no (until the timeout flips it to
        HALF_OPEN).  HALF_OPEN: exactly one caller at a time — the trial
        probe whose outcome decides the next state.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    # -- outcomes ------------------------------------------------------
    def record_success(self) -> bool:
        """Note a successful probe; returns True if this *closed* the breaker
        (i.e. a previously-failed replica just rejoined rotation)."""
        with self._lock:
            recovered = self._state is not BreakerState.CLOSED
            self._state = BreakerState.CLOSED
            self._consecutive_failures = 0
            self._probing = False
            if recovered:
                self.transitions["closed"] += 1
            return recovered

    def reset(self) -> bool:
        """Force-close the breaker after *verified* readmission.

        The half-open trial exists because the router cannot know whether
        a tripped replica healed; the control plane's rebuild path *does*
        know — it just compared the replica's answers bit-for-bit against
        a healthy peer — so a readmitted replica rejoins rotation
        immediately instead of waiting out the reset timeout.  Returns
        True if the breaker was not already closed (counted as a
        ``closed`` transition).
        """
        with self._lock:
            recovered = self._state is not BreakerState.CLOSED
            self._state = BreakerState.CLOSED
            self._consecutive_failures = 0
            self._probing = False
            if recovered:
                self.transitions["closed"] += 1
            return recovered

    def record_failure(self) -> bool:
        """Note a failed probe; returns True if this *opened* the breaker."""
        with self._lock:
            self._consecutive_failures += 1
            tripping = (
                self._state is BreakerState.HALF_OPEN
                or (
                    self._state is BreakerState.CLOSED
                    and self._consecutive_failures >= self.failure_threshold
                )
            )
            if tripping:
                self._state = BreakerState.OPEN
                self._opened_at = self._clock()
                self._probing = False
                self.transitions["opened"] += 1
            return tripping
