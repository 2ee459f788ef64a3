"""One query surface: typed requests and plans.

Every query the system answers is described by one frozen request dataclass —
:class:`AknnRequest`, :class:`RangeRequest`, :class:`SweepRequest` (the
paper's alpha-range kNN) and :class:`ReverseRequest` — carrying its full
parameterisation: the query fuzzy object, ``k`` / ``radius`` / ``alpha``, and
(AKNN and sweep) a method *enum* instead of a magic string.  Engines expose exactly two entry
points, ``execute`` and ``execute_batch``::

    from repro import AknnRequest, RangeRequest, ReverseRequest

    result = db.execute(AknnRequest(query, k=20, alpha=0.5))
    results = db.execute_batch([
        AknnRequest(q1, k=20, alpha=0.5),
        AknnRequest(q2, k=20, alpha=0.5),      # same bucket: shares a traversal
        ReverseRequest(q3, k=8, alpha=0.5),
        RangeRequest(q4, alpha=0.5, radius=3.0),
    ])

A batch may mix request types freely.  :func:`execute_plan` — the shared
``execute_batch`` implementation behind both engines (:class:`Engine`, the
base of :class:`~repro.core.database.FuzzyDatabase` and
:class:`~repro.service.sharded.ShardedDatabase`) and
:class:`~repro.service.query_service.QueryService` — groups the submission
into per-type, per-:meth:`~QueryRequest.bucket_key` sub-batches, hands each
group to the engine's bucket hook for its request type (``_HOOKS``), and
scatters the results back into submission order.  Requests sharing a bucket
key are answered through the corresponding shared pass (one R-tree traversal
for an AKNN or a range bucket, one filter pass against a cached k-th MaxDist
table + one verification traversal for a reverse bucket); the same keys
drive the query service's coalescer, so a request type defined once
coalesces correctly at every layer.  The four families are the paper's; the
table is closed.

Nothing on this path is drawn at random: Lemma 1's query sample is evenly
spaced over the cut, and ``rep(A)`` was fixed when the index was built, so
a request's answer and counts depend only on the request and the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from repro.exceptions import DeadlineExceededError, InvalidQueryError
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.metrics.counters import MetricsCollector


# ----------------------------------------------------------------------
# Method enums (no more stringly-typed ``method=`` kwargs)
# ----------------------------------------------------------------------
class AknnMethod(str, Enum):
    """AKNN search variants (Section 3): each adds one optimisation."""

    BASIC = "basic"
    LB = "lb"
    LB_LP = "lb_lp"
    LB_LP_UB = "lb_lp_ub"


class SweepMethod(str, Enum):
    """Alpha-range kNN sweep variants (Section 4, Algorithms 3-5)."""

    BASIC = "basic"
    RSS = "rss"
    RSS_ICR = "rss_icr"


def _coerce_enum(enum_cls: Type[Enum], value: Any, what: str) -> Enum:
    """Accept either the enum member or its string value."""
    if isinstance(value, enum_cls):
        return value
    try:
        return enum_cls(str(value))
    except ValueError:
        options = tuple(member.value for member in enum_cls)
        raise InvalidQueryError(
            f"unknown {what} {value!r}; expected one of {options}"
        ) from None


# ----------------------------------------------------------------------
# Request dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryRequest:
    """Base of every typed query request.

    Frozen: a request is an immutable value that can be hashed into the
    coalescer's bucket table, retried, or logged without defensive copies.
    Subclasses normalise their parameters in ``__post_init__`` (ints, floats,
    enums) so :meth:`bucket_key` is stable across spellings — ``k=20`` and
    ``k=np.int64(20)`` land in the same bucket.

    Every request additionally carries its failure-semantics envelope
    (keyword-only, never part of the bucket key):

    * ``deadline_ms`` — total time budget from submission.  An expired
      request fails with :class:`~repro.exceptions.DeadlineExceededError`
      instead of occupying a traversal; ``None`` means unbounded.
    * ``require_full`` — opt back into fail-closed execution.  By default a
      query against a sharded engine degrades to a partial answer (with a
      :class:`~repro.core.results.Coverage` descriptor) when shards are
      down; with ``require_full=True`` it raises
      :class:`~repro.exceptions.ShardUnavailableError` instead.
    """

    query: FuzzyObject
    deadline_ms: Optional[float] = field(default=None, kw_only=True)
    require_full: bool = field(default=False, kw_only=True)

    def __post_init__(self) -> None:
        self._validate_envelope()

    def _validate_envelope(self) -> None:
        if self.deadline_ms is not None:
            object.__setattr__(self, "deadline_ms", float(self.deadline_ms))
            if self.deadline_ms <= 0.0:
                raise InvalidQueryError(
                    f"deadline_ms must be positive, got {self.deadline_ms}"
                )
        object.__setattr__(self, "require_full", bool(self.require_full))

    def bucket_key(self) -> Tuple:
        """Hashable key grouping requests that may share one execution.

        Requests with equal keys are answered together by the planner (one
        shared traversal where the engine supports it) and coalesce into the
        same service bucket.  The key never includes the query object itself
        — only the parameters execution sharing depends on.  Deadlines and
        ``require_full`` are deliberately excluded: they shape failure
        handling per request, not the shared execution.
        """
        raise NotImplementedError

    def _validate_alpha(self, alpha: float) -> None:
        if not 0.0 < alpha <= 1.0:
            raise InvalidQueryError(f"alpha must be in (0, 1], got {alpha}")

    def _validate_k(self, k: int) -> None:
        if k <= 0:
            raise InvalidQueryError(f"k must be positive, got {k}")


@dataclass(frozen=True)
class AknnRequest(QueryRequest):
    """Ad-hoc kNN query (Definition 4) at one probability threshold."""

    k: int = 1
    alpha: float = 0.5
    method: AknnMethod = AknnMethod.LB_LP_UB

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(
            self, "method", _coerce_enum(AknnMethod, self.method, "AKNN method")
        )
        self._validate_k(self.k)
        self._validate_alpha(self.alpha)
        self._validate_envelope()

    def bucket_key(self) -> Tuple:
        return ("aknn", self.k, self.alpha, self.method.value)


@dataclass(frozen=True)
class RangeRequest(QueryRequest):
    """All objects within ``radius`` of the query at threshold ``alpha``."""

    alpha: float = 0.5
    radius: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "radius", float(self.radius))
        self._validate_alpha(self.alpha)
        if not np.isfinite(self.radius) or self.radius < 0.0:
            raise InvalidQueryError(
                f"radius must be finite and non-negative, got {self.radius}"
            )
        self._validate_envelope()

    def bucket_key(self) -> Tuple:
        # The radius is per-request data, like the query: one bucket answers
        # every radius with one descent.
        return ("range", self.alpha)


@dataclass(frozen=True)
class SweepRequest(QueryRequest):
    """The paper's alpha-range kNN query (Definition 5): sweep a threshold
    interval and report, per qualifying object, its qualifying sub-ranges."""

    k: int = 1
    alpha_range: Tuple[float, float] = (0.4, 0.6)
    method: SweepMethod = SweepMethod.RSS_ICR
    aknn_method: AknnMethod = AknnMethod.LB_LP_UB

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", int(self.k))
        start, end = (float(self.alpha_range[0]), float(self.alpha_range[1]))
        object.__setattr__(self, "alpha_range", (start, end))
        object.__setattr__(
            self, "method", _coerce_enum(SweepMethod, self.method, "sweep method")
        )
        object.__setattr__(
            self,
            "aknn_method",
            _coerce_enum(AknnMethod, self.aknn_method, "AKNN method"),
        )
        self._validate_k(self.k)
        if not 0.0 < start <= 1.0 or not 0.0 < end <= 1.0:
            raise InvalidQueryError(
                f"alpha range endpoints must be in (0, 1], got {self.alpha_range}"
            )
        if end < start:
            raise InvalidQueryError(
                f"alpha range start {start} exceeds end {end}"
            )
        self._validate_envelope()

    def bucket_key(self) -> Tuple:
        return (
            "sweep",
            self.k,
            self.alpha_range[0],
            self.alpha_range[1],
            self.method.value,
            self.aknn_method.value,
        )


@dataclass(frozen=True)
class ReverseRequest(QueryRequest):
    """Reverse AKNN: objects counting the query among their own k nearest."""

    k: int = 1
    alpha: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "alpha", float(self.alpha))
        self._validate_k(self.k)
        self._validate_alpha(self.alpha)
        self._validate_envelope()

    def bucket_key(self) -> Tuple:
        return ("reverse", self.k, self.alpha)


# ----------------------------------------------------------------------
# Request type -> the engine's bucket hook
# ----------------------------------------------------------------------
#: Each hook answers one homogeneous bucket (equal ``bucket_key()``) as
#: ``engine.<hook>(bucket, deadline=...)`` and returns one result per
#: request, in bucket order; ``deadline`` is a
#: :class:`~repro.service.policy.Deadline` or ``None``.
_HOOKS = {
    AknnRequest: "_execute_aknn_bucket",
    RangeRequest: "_execute_range_bucket",
    SweepRequest: "_execute_sweep_bucket",
    ReverseRequest: "_execute_reverse_bucket",
}


def group_requests(
    requests: Sequence[QueryRequest],
) -> List[Tuple[Type[QueryRequest], Tuple, List[int]]]:
    """Stable per-type, per-bucket grouping of a mixed submission.

    Returns ``(request type, bucket key, original indices)`` triples in
    first-seen order; within a group the indices preserve submission order,
    which planners rely on when distributing shared-batch results.
    """
    groups: Dict[Tuple[Type[QueryRequest], Tuple], List[int]] = {}
    for index, request in enumerate(requests):
        if not isinstance(request, QueryRequest):
            raise InvalidQueryError(
                f"expected a QueryRequest, got {type(request).__name__}"
            )
        groups.setdefault((type(request), request.bucket_key()), []).append(index)
    return [(rtype, key, indices) for (rtype, key), indices in groups.items()]


def request_deadlines(requests: Sequence[QueryRequest]) -> List[Optional[Any]]:
    """Materialise each request's ``deadline_ms`` budget as an absolute
    :class:`~repro.service.policy.Deadline`, counting from *now*.

    Called at submission time (service admission, or entry into
    ``execute_batch`` for direct engine calls) so the budget covers queue
    wait as well as execution.
    """
    from repro.service.policy import Deadline

    return [
        None if request.deadline_ms is None else Deadline.after_ms(request.deadline_ms)
        for request in requests
    ]


def execute_plan(
    engine: Any,
    requests: Sequence[QueryRequest],
    deadlines: Optional[Sequence[Optional[Any]]] = None,
    on_error: str = "raise",
) -> List[Any]:
    """The shared ``execute_batch`` implementation.

    Groups the submission with :func:`group_requests`, runs the engine's
    bucket hook per group, and scatters the per-group answers back into
    submission order.  When the engine carries a ``metrics`` collector, the
    plan shape is recorded under the ``plan_groups`` / ``plan_requests``
    counters — the observable evidence that requests sharing a bucket key
    were answered by one shared sub-batch.

    ``deadlines`` is an optional parallel sequence of absolute
    :class:`~repro.service.policy.Deadline` objects (``None`` entries =
    unbounded); when omitted it is derived from each request's
    ``deadline_ms`` counting from now.  Members already expired are answered
    with :class:`~repro.exceptions.DeadlineExceededError` without running;
    each group's shared execution is bounded by its *latest* member deadline
    (the point past which nobody in the bucket wants the answer), and
    hooks receive it as the ``deadline`` keyword.

    A result slot may come back as an :class:`Exception` instance (deadline
    expiry, or a failed shard under ``require_full``).  With
    ``on_error="raise"`` (the default — direct engine calls) the first such
    slot is raised; with ``on_error="return"`` (the query service, which
    routes each slot to its own future) exception slots are returned in
    place.
    """
    requests = list(requests)
    if not requests:
        return []
    if on_error not in ("raise", "return"):
        raise InvalidQueryError(
            f"on_error must be 'raise' or 'return', got {on_error!r}"
        )
    grouped = group_requests(requests)
    if deadlines is None:
        deadlines = request_deadlines(requests)
    else:
        deadlines = list(deadlines)
        if len(deadlines) != len(requests):
            raise InvalidQueryError(
                f"got {len(deadlines)} deadlines for {len(requests)} requests"
            )
    metrics = getattr(engine, "metrics", None)
    if metrics is not None:
        metrics.increment(MetricsCollector.PLAN_GROUPS, len(grouped))
        metrics.increment(MetricsCollector.PLAN_REQUESTS, len(requests))
    results: List[Any] = [None] * len(requests)
    for request_type, _key, indices in grouped:
        hook = _HOOKS.get(request_type)
        if hook is None:
            raise InvalidQueryError(
                f"no bucket hook for request type {request_type.__name__}; "
                f"known types: {sorted(t.__name__ for t in _HOOKS)}"
            )
        live: List[int] = []
        for index in indices:
            deadline = deadlines[index]
            if deadline is not None and deadline.expired():
                results[index] = DeadlineExceededError(
                    f"{request_type.__name__} expired before execution"
                )
                if metrics is not None:
                    metrics.increment(MetricsCollector.DEADLINE_EXPIRED)
            else:
                live.append(index)
        if not live:
            continue
        # The shared execution is aborted only once *every* member is past
        # its expiry: the latest member deadline (unbounded if any member
        # carries none).  Individual members are re-checked on scatter.
        member_deadlines = [deadlines[i] for i in live]
        if any(d is None for d in member_deadlines):
            bucket_deadline = None
        else:
            bucket_deadline = max(member_deadlines, key=lambda d: d.expires_at)
        bucket = [requests[i] for i in live]
        try:
            answers = getattr(engine, hook)(bucket, deadline=bucket_deadline)
        except DeadlineExceededError as error:
            answers = [error] * len(bucket)
            if metrics is not None:
                metrics.increment(MetricsCollector.DEADLINE_EXPIRED, len(bucket))
        if len(answers) != len(bucket):
            raise InvalidQueryError(
                f"{hook} for {request_type.__name__} returned {len(answers)} "
                f"results for {len(bucket)} requests"
            )
        for index, answer in zip(live, answers):
            deadline = deadlines[index]
            if (
                not isinstance(answer, Exception)
                and deadline is not None
                and deadline.expired()
            ):
                answer = DeadlineExceededError(
                    f"{request_type.__name__} expired during execution"
                )
                if metrics is not None:
                    metrics.increment(MetricsCollector.DEADLINE_EXPIRED)
            results[index] = answer
    if on_error == "raise":
        for answer in results:
            if isinstance(answer, Exception):
                raise answer
    return results


# ----------------------------------------------------------------------
# What both engines share
# ----------------------------------------------------------------------
class Engine:
    """The request surface and update listeners of both engines.

    A subclass defines, in its own body, the four bucket hooks ``_HOOKS``
    names, ``insert`` / ``delete`` (which call :meth:`_notify_insert` /
    :meth:`_notify_delete` once a mutation is applied) and ``close``, and
    sets ``self._update_listeners = []``.
    """

    def execute(self, request: QueryRequest):
        """Answer one typed request."""
        return execute_plan(self, [request])[0]

    def execute_batch(self, requests: Iterable[QueryRequest]) -> List:
        """Answer a submission that may mix request types freely.

        The planner groups the submission into per-type, per-``bucket_key()``
        sub-batches; requests sharing a key are answered through one shared
        pass (an AKNN bucket: a radius from stored bounds, one traversal per
        part, then two rank tests and two probe passes; a range bucket: one
        descent and one probe pass per part; a reverse bucket: one filter
        pass against a cached k-th MaxDist table + one verification traversal
        per part).  Results come back in submission order.
        """
        return execute_plan(self, list(requests))

    def add_update_listener(self, listener) -> None:
        """Register ``listener`` for post-apply mutation notifications.

        The listener must expose ``notify_insert(obj)`` and
        ``notify_delete(object_id)`` (see
        :class:`~repro.service.subscriptions.SubscriptionEngine`).  Both are
        called synchronously once the mutation is fully applied; on the
        sharded engine, after the owning shard's write lock is released and
        the epoch has advanced, so a listener that re-queries (the
        subscription engine's delete path) sees the post-mutation state and
        cannot deadlock against the mutation's lock.
        """
        self._update_listeners.append(listener)

    def remove_update_listener(self, listener) -> None:
        try:
            self._update_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_insert(self, obj: FuzzyObject) -> None:
        for listener in list(self._update_listeners):
            listener.notify_insert(obj)

    def _notify_delete(self, object_id: int) -> None:
        for listener in list(self._update_listeners):
            listener.notify_delete(object_id)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
