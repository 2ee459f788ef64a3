"""Fault-tolerance policies: deadlines, retries, circuit breakers.

These are the small, independently-testable building blocks of the serving
layer's failure semantics (see the README's "Failure semantics" section):

* :class:`Deadline` — an absolute point on the monotonic clock derived from a
  request's ``deadline_ms`` budget.  It is threaded from the coalescer
  through the planner into the batch executor's traversal loop, so expired
  work stops *before* burning a full traversal.
* :class:`RetryPolicy` — capped exponential backoff with jitter for
  idempotent per-shard reads.  Every query in this system is a read, so a
  transient worker failure is always safe to retry.
* :class:`CircuitBreaker` — a per-shard closed/open/half-open breaker.  A
  shard that keeps failing is declared sick: its portion of every fan-out is
  shed instantly (no retry storm against a dead shard) until the cool-off
  elapses, after which a bounded number of half-open probes test recovery.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from repro.exceptions import DeadlineExceededError


class Deadline:
    """An absolute expiry on the monotonic clock.

    Cheap to check (one clock read, one comparison); the executor checks it
    between traversal chunks, the fan-out layer between retries, and the
    coalescer before flushing a bucket.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float):
        self.expires_at = float(expires_at)

    @classmethod
    def after_ms(cls, budget_ms: float) -> "Deadline":
        """A deadline ``budget_ms`` milliseconds from now."""
        return cls(time.monotonic() + float(budget_ms) / 1000.0)

    def remaining_ms(self) -> float:
        """Milliseconds until expiry (negative once expired)."""
        return (self.expires_at - time.monotonic()) * 1000.0

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` when expired."""
        overrun_ms = -self.remaining_ms()
        if overrun_ms >= 0.0:
            raise DeadlineExceededError(
                f"{what} deadline exceeded ({overrun_ms:.1f} ms past expiry)"
            )

    def __repr__(self) -> str:
        return f"Deadline(remaining_ms={self.remaining_ms():.1f})"


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with full jitter for idempotent reads.

    Attempt ``i`` (0-based) sleeps ``min(base * multiplier**i, cap)``
    milliseconds, scaled by a uniform random factor in ``[1 - jitter, 1]`` so
    synchronized failures do not retry in lockstep.  ``max_attempts`` counts
    the initial call: ``max_attempts=3`` means at most two retries.
    """

    max_attempts: int = 3
    base_delay_ms: float = 10.0
    max_delay_ms: float = 100.0
    multiplier: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_ms < 0.0 or self.max_delay_ms < 0.0:
            raise ValueError("retry delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    @classmethod
    def from_config(cls, config) -> "RetryPolicy":
        """The policy described by a :class:`~repro.config.RuntimeConfig`."""
        return cls(
            max_attempts=config.shard_retry_attempts,
            base_delay_ms=config.shard_retry_base_ms,
            max_delay_ms=config.shard_retry_max_ms,
        )

    def delay_seconds(self, attempt: int, rand: Callable[[], float] = random.random) -> float:
        """Backoff before retry number ``attempt`` (0-based), in seconds."""
        delay_ms = min(
            self.base_delay_ms * (self.multiplier ** attempt), self.max_delay_ms
        )
        scale = 1.0 - self.jitter * rand()
        return (delay_ms * scale) / 1000.0


class BreakerState(str, Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """A closed/open/half-open breaker guarding one shard.

    ``failure_threshold`` *consecutive* failed calls open the breaker; while
    open, :meth:`allow` answers ``False`` instantly (the fan-out sheds the
    shard's portion without touching it).  After ``reset_timeout_ms`` the
    breaker admits up to ``half_open_probes`` concurrent probe calls: one
    success closes it, one failure re-opens it for another full cool-off.
    Thread-safe; concurrent queries share the same instance.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout_ms: float = 1000.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_ms < 0.0:
            raise ValueError("reset_timeout_ms must be >= 0")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout_s = float(reset_timeout_ms) / 1000.0
        self.half_open_probes = int(half_open_probes)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0

    @classmethod
    def from_config(cls, config) -> "CircuitBreaker":
        return cls(
            failure_threshold=config.breaker_failure_threshold,
            reset_timeout_ms=config.breaker_reset_timeout_ms,
        )

    @property
    def state(self) -> BreakerState:
        """Current state (OPEN reported even if the cool-off has elapsed —
        the transition to HALF_OPEN happens on the next :meth:`allow`)."""
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a call be issued right now?

        CLOSED always allows.  OPEN allows nothing until the cool-off
        elapses, then flips to HALF_OPEN.  HALF_OPEN admits up to
        ``half_open_probes`` calls whose outcomes decide the next state.
        """
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                if self._clock() - self._opened_at < self.reset_timeout_s:
                    return False
                self._state = BreakerState.HALF_OPEN
                self._probes_in_flight = 0
            if self._probes_in_flight < self.half_open_probes:
                self._probes_in_flight += 1
                return True
            return False

    def shedding(self) -> bool:
        """Non-mutating fast check: is the breaker open and still cooling off?

        Unlike :meth:`allow` this never consumes a half-open probe slot, so
        admission paths can consult it without influencing recovery.
        """
        with self._lock:
            return (
                self._state is BreakerState.OPEN
                and self._clock() - self._opened_at < self.reset_timeout_s
            )

    def release_probe(self) -> None:
        """Give back a slot :meth:`allow` handed out for a call that ended
        with no outcome (never issued, or cut off by the caller's deadline).

        A no-op unless the breaker is still HALF_OPEN, i.e. once any call
        has recorded a success or a failure.
        """
        with self._lock:
            if self._state is BreakerState.HALF_OPEN and self._probes_in_flight:
                self._probes_in_flight -= 1

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probes_in_flight = 0
            self._state = BreakerState.CLOSED

    def record_failure(self) -> bool:
        """Record one failed call; returns ``True`` when this opened the breaker."""
        with self._lock:
            now = self._clock()
            if self._state is BreakerState.HALF_OPEN:
                self._state = BreakerState.OPEN
                self._opened_at = now
                self._probes_in_flight = 0
                return True
            self._consecutive_failures += 1
            if (
                self._state is BreakerState.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = BreakerState.OPEN
                self._opened_at = now
                return True
            return False

    def retry_after_ms(self) -> float:
        """Milliseconds until the breaker would admit a half-open probe."""
        with self._lock:
            if self._state is not BreakerState.OPEN:
                return 0.0
            remaining = self.reset_timeout_s - (self._clock() - self._opened_at)
            return max(0.0, remaining * 1000.0)

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state.value}, "
            f"failures={self._consecutive_failures})"
        )
