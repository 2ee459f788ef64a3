"""Fault injection for chaos-testing the serving layer.

A :class:`FaultPlan` is a list of :class:`FaultSpec` rules installed on a
:class:`~repro.service.sharded.ShardedDatabase` (``db.fault_plan = plan`` or
``serve --fault-plan``).  Every per-shard fan-out call site consults the plan
through one zero-overhead-when-disabled hook (a single ``is None`` check on
the hot path); a matching rule then raises, delays, or hangs the call —
exactly where a real worker failure would surface — so the retry, breaker,
partial-coverage and deadline paths can all be driven deterministically.

Spec strings (CLI / smoke-script friendly) are ``;``-separated rules of
``key=value`` pairs::

    shard=1,kind=raise                      # shard 1 always fails
    shard=0,op=aknn_batch,kind=delay,delay_ms=50,after=2,count=3
    kind=raise,count=1                      # first call to any shard fails

``op`` names the fan-out operation (``aknn``, ``aknn_batch``, ``range``,
``reverse_filter``, ``reverse_verify``, ``wal_append``; omit to match all).
``after`` skips the first N matching calls, ``count`` bounds how many
times the rule fires (omit for "forever").  ``kind=hang`` sleeps
``hang_ms`` (default 30 s) to emulate a stuck worker — pair it with request
deadlines.  :meth:`FaultPlan.random` builds a seeded randomized plan for the
chaos smoke job.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.exceptions import FaultInjectedError, InvalidQueryError

#: Operation names the sharded fan-out reports to the plan.  ``wal_append``
#: is invoked by a durable shard immediately before each WAL write, so a
#: matching ``raise`` rule emulates a crash mid-append (the torn-tail case
#: the recovery tests exercise).
FAULT_OPERATIONS = (
    "aknn",
    "aknn_batch",
    "range",
    "reverse_filter",
    "reverse_verify",
    "wal_append",
)

_KINDS = ("raise", "delay", "hang")

_DEFAULT_HANG_MS = 30_000.0


@dataclass
class FaultSpec:
    """One injection rule: *where* it applies and *what* it does.

    ``shard``/``op`` of ``None`` match every shard / operation.  The rule
    fires on matching calls number ``after`` .. ``after + count - 1``
    (0-based, per rule); ``count=None`` fires forever once triggered.
    """

    kind: str = "raise"
    shard: Optional[int] = None
    op: Optional[str] = None
    after: int = 0
    count: Optional[int] = None
    delay_ms: float = 10.0
    hang_ms: float = _DEFAULT_HANG_MS
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidQueryError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.op is not None and self.op not in FAULT_OPERATIONS:
            raise InvalidQueryError(
                f"unknown fault op {self.op!r}; expected one of {FAULT_OPERATIONS}"
            )
        if self.after < 0:
            raise InvalidQueryError("after must be >= 0")
        if self.count is not None and self.count < 1:
            raise InvalidQueryError("count must be >= 1 (or None for forever)")

    def matches(self, shard: int, op: str) -> bool:
        return (self.shard is None or self.shard == int(shard)) and (
            self.op is None or self.op == op
        )


class FaultPlan:
    """An installable set of fault rules with thread-safe trigger accounting.

    The plan records how often each rule fired (:attr:`fired`) and how many
    calls it saw, so chaos tests can assert that the intended failure paths
    actually ran.  All bookkeeping happens under one lock — the plan is only
    ever consulted on fan-out calls that are about to do real index work, so
    the lock is not a hot path.
    """

    def __init__(self, specs: Sequence[FaultSpec]):
        self.specs: List[FaultSpec] = list(specs)
        self._lock = threading.Lock()
        self._seen: List[int] = [0] * len(self.specs)
        self.fired: List[int] = [0] * len(self.specs)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a ``;``-separated spec string (see the module docstring)."""
        specs: List[FaultSpec] = []
        for rule in text.split(";"):
            rule = rule.strip()
            if not rule:
                continue
            kwargs: Dict[str, object] = {}
            for pair in rule.split(","):
                if "=" not in pair:
                    raise InvalidQueryError(
                        f"malformed fault rule {rule!r}: expected key=value pairs"
                    )
                key, value = (part.strip() for part in pair.split("=", 1))
                if key in ("shard", "after", "count"):
                    kwargs[key] = int(value)
                elif key in ("delay_ms", "hang_ms"):
                    kwargs[key] = float(value)
                elif key in ("kind", "op", "message"):
                    kwargs[key] = value
                else:
                    raise InvalidQueryError(f"unknown fault rule key {key!r}")
            specs.append(FaultSpec(**kwargs))
        if not specs:
            raise InvalidQueryError(f"fault plan {text!r} contains no rules")
        return cls(specs)

    @classmethod
    def random(
        cls,
        rng,
        n_shards: int,
        n_rules: int = 4,
        transient_count: int = 2,
        delay_ms: float = 5.0,
    ) -> "FaultPlan":
        """A seeded randomized plan of transient faults (chaos smoke).

        Every rule is *transient* (bounded ``count``) so a retried workload
        eventually succeeds; rules mix raises and small delays across random
        shards and operations.
        """
        specs = []
        for _ in range(max(1, int(n_rules))):
            kind = "raise" if rng.random() < 0.7 else "delay"
            specs.append(
                FaultSpec(
                    kind=kind,
                    shard=int(rng.integers(0, n_shards)),
                    op=None if rng.random() < 0.5 else str(
                        FAULT_OPERATIONS[int(rng.integers(0, len(FAULT_OPERATIONS)))]
                    ),
                    after=int(rng.integers(0, 3)),
                    count=int(rng.integers(1, transient_count + 1)),
                    delay_ms=delay_ms,
                )
            )
        return cls(specs)

    # ------------------------------------------------------------------
    # The injection hook
    # ------------------------------------------------------------------
    def invoke(self, shard: int, op: str) -> None:
        """Apply the first matching armed rule for this call, if any.

        Called by the sharded fan-out immediately before each per-shard
        operation.  ``raise`` rules raise :class:`FaultInjectedError`;
        ``delay``/``hang`` rules sleep.  A call matches at most one rule
        (first in spec order wins), so plans compose predictably.
        """
        action: Optional[FaultSpec] = None
        with self._lock:
            for index, spec in enumerate(self.specs):
                if not spec.matches(shard, op):
                    continue
                seen = self._seen[index]
                self._seen[index] = seen + 1
                armed = seen >= spec.after and (
                    spec.count is None or seen < spec.after + spec.count
                )
                if armed:
                    self.fired[index] += 1
                    action = spec
                    break
        if action is None:
            return
        if action.kind == "raise":
            raise FaultInjectedError(
                f"{action.message} (shard {shard}, op {op})"
            )
        sleep_ms = action.delay_ms if action.kind == "delay" else action.hang_ms
        time.sleep(sleep_ms / 1000.0)

    def total_fired(self) -> int:
        with self._lock:
            return sum(self.fired)

    def __repr__(self) -> str:
        return f"FaultPlan({len(self.specs)} rules, fired={self.fired})"
