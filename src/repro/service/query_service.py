"""A concurrent query front end with request coalescing.

:class:`QueryService` turns the batch engines' throughput into a serving
story: concurrent callers submit typed requests
(:mod:`repro.core.requests`) and receive futures::

    future = service.submit_request(AknnRequest(query, k=20, alpha=0.5))
    result = future.result()

Behind the scenes one generic coalescer groups requests by their
``bucket_key()`` — the same key every request type defines for execution
sharing — and flushes each bucket through the database's ``execute_batch``
on the first of four triggers: **size** (``max_batch`` requests),
**window** (its oldest request waited ``window_ms``), **deadline** (its
earliest member deadline leaves one window to execute) and **blocked caller**
(Nagle's rule, RFC 896: a bucket holding a request of a caller blocked in
``execute`` / ``execute_batch`` flushes as soon as the flusher is free — at
once when it is idle, else right after the running flush, with every other
blocked request that arrived meanwhile).  A blocked caller can add nothing to
its own bucket, so the window would only delay it; under load the flusher is
busy and blocked callers batch anyway.  ``submit_request`` streams keep the
window, since their caller may still be submitting companions: the window is
a maximum wait for company, never a minimum.  A flushed bucket is homogeneous
by construction, so the planner answers it through the shared engine for its
type: one R-tree traversal for an AKNN bucket, one candidate filter pass
against a cached k-th MaxDist table + one verification traversal for a
reverse bucket.  New request families coalesce correctly with zero service
edits — the bucket table never switches on request types.  Since
``bucket_key()`` carries each request's full method parameterisation, a
per-request method override simply lands in its own bucket.

The service itself answers ``execute`` / ``execute_batch`` (submit and
wait), as the databases do, so callers can
swap a database for a coalescing service without code changes.

Admission control bounds the number of requests waiting across all buckets
(``queue_depth``); submissions beyond the bound fail fast with
:class:`~repro.exceptions.ServiceOverloadedError` instead of queueing
without limit.  Every completed request records its end-to-end latency
(submit to future resolution), from which the service reports p50/p99.

The service works over a :class:`~repro.service.sharded.ShardedDatabase`
(each flush fans out across shards) or a plain
:class:`~repro.core.database.FuzzyDatabase`; live ``insert``/``delete``
passes straight through to the underlying database, whose shard write locks
keep in-flight flushes consistent.

Standing queries ride the same mutation path: :meth:`QueryService.subscribe`
registers an ``AknnRequest`` or ``RangeRequest`` with the shared
:class:`~repro.service.subscriptions.SubscriptionEngine` and returns a
buffered delta stream; consumers that stop pulling are shed at
their queue depth instead of stalling writers.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.config import (
    DEFAULT_COALESCE_MAX_BATCH,
    DEFAULT_COALESCE_WINDOW_MS,
    DEFAULT_SERVICE_QUEUE_DEPTH,
)
from repro.core.requests import QueryRequest, execute_plan
from repro.exceptions import (
    DeadlineExceededError,
    InvalidQueryError,
    ServiceOverloadedError,
    ServiceStoppedError,
)
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.metrics.counters import MetricsCollector, SharedMetricsCollector
from repro.service.policy import Deadline
from repro.service.subscriptions import DeliverySubscription, SubscriptionEngine

# Buckets are keyed by QueryRequest.bucket_key(): a hashable tuple carrying
# the request type tag and its full sharing-relevant parameterisation.
_BucketKey = Tuple

# Number of recent per-request latencies kept for the percentile telemetry.
LATENCY_WINDOW = 8192


class _Pending:
    __slots__ = ("request", "future", "submitted_at", "deadline")

    def __init__(
        self,
        request: QueryRequest,
        submitted_at: float,
        deadline: Optional[Deadline],
    ):
        self.request = request
        self.future: "Future" = Future()
        self.submitted_at = submitted_at
        self.deadline = deadline

    def resolve(self, result) -> None:
        """Set the result, tolerating a future cancelled by the caller."""
        try:
            self.future.set_result(result)
        except InvalidStateError:
            pass

    def fail(self, error: BaseException) -> None:
        """Set the exception, tolerating a future cancelled by the caller."""
        try:
            self.future.set_exception(error)
        except InvalidStateError:
            pass


class _Bucket:
    __slots__ = ("key", "requests", "opened_at", "expires_at", "blocked")

    def __init__(self, key: _BucketKey, opened_at: float):
        self.key = key
        self.requests: List[_Pending] = []
        self.opened_at = opened_at
        # A member's caller is blocked on it: due at the flusher's next turn.
        self.blocked = False
        # Earliest member deadline (monotonic), or None while every member
        # is unbounded; the flusher brings the flush forward so a bounded
        # member still has time to execute.
        self.expires_at: Optional[float] = None

    def note_deadline(self, deadline: Optional[Deadline]) -> None:
        if deadline is None:
            return
        if self.expires_at is None or deadline.expires_at < self.expires_at:
            self.expires_at = deadline.expires_at


@dataclass
class ServiceStats:
    """A point-in-time summary of the service's serving behaviour."""

    requests_submitted: int = 0
    requests_completed: int = 0
    requests_shed: int = 0
    requests_failed: int = 0
    batches_flushed: int = 0
    coalesced_queries: int = 0
    max_batch_size: int = 0
    mean_batch_size: float = 0.0
    p50_latency_ms: float = 0.0
    p99_latency_ms: float = 0.0
    mean_latency_ms: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        payload = {
            "requests_submitted": self.requests_submitted,
            "requests_completed": self.requests_completed,
            "requests_shed": self.requests_shed,
            "requests_failed": self.requests_failed,
            "batches_flushed": self.batches_flushed,
            "coalesced_queries": self.coalesced_queries,
            "max_batch_size": self.max_batch_size,
            "mean_batch_size": self.mean_batch_size,
            "p50_latency_ms": self.p50_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "mean_latency_ms": self.mean_latency_ms,
        }
        payload.update(self.counters)
        return payload


class QueryService:
    """Coalescing, admission-controlled front end over a database.

    Parameters
    ----------
    database:
        A :class:`ShardedDatabase` or a plain :class:`FuzzyDatabase`;
        ``insert``/``delete`` are forwarded when present.
    window_ms:
        The longest a ``submit_request`` bucket waits for company (default
        ``DEFAULT_COALESCE_WINDOW_MS``); a blocked caller's bucket does not.
    max_batch:
        Bucket size that triggers an immediate flush.
    queue_depth:
        Maximum requests pending across all buckets; submissions beyond it
        are shed with :class:`~repro.exceptions.ServiceOverloadedError`.
    """

    def __init__(
        self,
        database,
        window_ms: Optional[float] = None,
        max_batch: int = DEFAULT_COALESCE_MAX_BATCH,
        queue_depth: int = DEFAULT_SERVICE_QUEUE_DEPTH,
    ):
        self.database = database
        self.window_seconds = (
            DEFAULT_COALESCE_WINDOW_MS if window_ms is None else float(window_ms)
        ) / 1000.0
        self.max_batch = int(max_batch)
        self.queue_depth = int(queue_depth)
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.metrics = SharedMetricsCollector()
        # EWMA of flush throughput (requests/second); feeds the retry-after
        # estimate handed back with ServiceOverloadedError.
        self._drain_rate = 0.0
        self._cv = threading.Condition()
        self._buckets: Dict[_BucketKey, _Bucket] = {}
        self._pending = 0
        self._running = False
        self._flusher: Optional[threading.Thread] = None
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._submitted = 0
        self._completed = 0
        self._shed = 0
        self._failed = 0
        self._batches = 0
        self._coalesced = 0
        self._max_batch_seen = 0
        # Standing queries: one shared SubscriptionEngine (registered as the
        # database's update listener on first use) plus the per-consumer
        # delivery queues, tracked for shedding and shutdown.
        self._sub_lock = threading.Lock()
        self._subscriptions: Optional[SubscriptionEngine] = None
        self._deliveries: Dict[int, DeliverySubscription] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "QueryService":
        """Start the background flusher; idempotent."""
        with self._cv:
            if self._running:
                return self
            self._running = True
        self._flusher = threading.Thread(
            target=self._flush_loop, name="query-service-flusher", daemon=True
        )
        self._flusher.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the service.

        ``drain=True`` flushes every waiting bucket before returning, so all
        outstanding futures resolve; ``drain=False`` fails them with
        :class:`ServiceStoppedError`.
        """
        with self._cv:
            if not self._running and self._flusher is None:
                return
            self._running = False
            if not drain:
                for bucket in self._buckets.values():
                    for request in bucket.requests:
                        request.fail(
                            ServiceStoppedError("query service stopped before flush")
                        )
                self._pending = 0
                self._buckets.clear()
            self._cv.notify_all()
        if self._flusher is not None:
            self._flusher.join()
            self._flusher = None
        # A clean flusher exit drains every bucket; anything still queued
        # means it died mid-flight.  No submitted future may hang forever,
        # so sweep the leftovers into ServiceStoppedError.
        with self._cv:
            leftovers = [
                pending
                for bucket in self._buckets.values()
                for pending in bucket.requests
            ]
            self._buckets.clear()
            self._pending = 0
        for pending in leftovers:
            pending.fail(ServiceStoppedError("query service stopped before flush"))
        # Close every standing query so no consumer blocks on a dead stream,
        # and detach the engine so a stopped service stops paying for
        # subscription maintenance on later mutations.
        with self._sub_lock:
            deliveries = list(self._deliveries.values())
            self._deliveries.clear()
            engine, self._subscriptions = self._subscriptions, None
        for delivery in deliveries:
            if engine is not None and delivery.subscription is not None:
                engine.unsubscribe(delivery.subscription)
            delivery.close()
        if engine is not None:
            detach = getattr(self.database, "remove_update_listener", None)
            if detach is not None:
                detach(engine)

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # ------------------------------------------------------------------
    # Request path (execute / execute_batch + futures)
    # ------------------------------------------------------------------
    def submit_request(self, request: QueryRequest) -> "Future":
        """Enqueue one typed request; returns a future for its result.

        Requests sharing a ``bucket_key()`` coalesce into one bucket flushed
        through the database's ``execute_batch`` (one shared traversal for an
        AKNN bucket, one shared filter + verification pass for a reverse
        bucket).  Raises :class:`ServiceOverloadedError` when the queue is
        full and :class:`ServiceStoppedError` when the service is not
        running.
        """
        return self._submit(request).future

    def _deadline_for(self, request: QueryRequest) -> Optional[Deadline]:
        """The request's absolute deadline (``None`` when it carries no budget)."""
        if request.deadline_ms is None:
            return None
        return Deadline.after_ms(request.deadline_ms)

    def _retry_after_ms(self) -> float:
        """How long a shed caller should back off (caller holds ``_cv``).

        The backlog needs roughly ``pending / drain_rate`` seconds to clear;
        before the first flush establishes a rate, one coalescing window is
        the best available floor.
        """
        window_ms = self.window_seconds * 1000.0
        if self._drain_rate <= 0.0:
            return max(window_ms, 1.0)
        return max(window_ms, (self._pending / self._drain_rate) * 1000.0, 1.0)

    def _submit(self, request: QueryRequest) -> _Pending:
        if not isinstance(request, QueryRequest):
            raise TypeError(
                f"submit_request expects a QueryRequest, got {type(request).__name__}"
            )
        key: _BucketKey = request.bucket_key()
        now = time.monotonic()
        pending = _Pending(request, now, self._deadline_for(request))
        with self._cv:
            if not self._running:
                raise ServiceStoppedError("query service is not running")
            if self._pending >= self.queue_depth:
                self._shed += 1
                self.metrics.increment(MetricsCollector.SHED_REQUESTS)
                raise ServiceOverloadedError(
                    f"queue depth {self.queue_depth} exceeded; request shed",
                    retry_after_ms=self._retry_after_ms(),
                )
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = _Bucket(key, now)
                self._buckets[key] = bucket
            bucket.requests.append(pending)
            bucket.note_deadline(pending.deadline)
            self._pending += 1
            self._submitted += 1
            self._cv.notify_all()
        return pending

    def _withdraw(self, submitted: List[_Pending]) -> None:
        """Pull not-yet-flushed requests back out of their buckets.

        Used when a multi-request submission fails part-way (admission
        control): without this the already-enqueued futures would be
        dropped unreferenced while the flusher still paid to answer them —
        amplifying exactly the overload that shed the submission.  Requests
        whose bucket already flushed are left to finish.
        """
        with self._cv:
            for pending in submitted:
                key = pending.request.bucket_key()
                bucket = self._buckets.get(key)
                if bucket is None or pending not in bucket.requests:
                    continue  # already flushing/flushed; let it complete
                bucket.requests.remove(pending)
                if not bucket.requests:
                    del self._buckets[key]
                self._pending -= 1
                self._shed += 1
                self.metrics.increment(MetricsCollector.SHED_REQUESTS)
                pending.future.cancel()

    def execute(self, request: QueryRequest, *, timeout: Optional[float] = None):
        """Synchronously answer one request: ``execute_batch`` of one."""
        return self.execute_batch([request], timeout=timeout)[0]

    def execute_batch(self, requests, *, timeout: Optional[float] = None) -> List:
        """Submit a mixed-type batch and wait for every result.

        Each request lands in its ``bucket_key()`` bucket, so a mixed
        submission is answered as per-type, per-bucket shared sub-batches —
        the same plan :meth:`FuzzyDatabase.execute_batch` would build, plus
        coalescing with any concurrent callers' compatible requests.  If a
        submission is shed part-way by admission control, the requests
        already enqueued by this call are withdrawn from their buckets
        (counted as shed) before the error propagates, so the overloaded
        service does not pay for answers nobody can retrieve.  Once the
        whole submission is enqueued, every bucket holding one of its
        requests is marked blocked, so each flushes at the flusher's next
        turn (one batch per key) instead of waiting out the window.
        ``timeout`` is one deadline for the whole batch, not per future;
        when it expires, still-queued requests are withdrawn before the
        :class:`TimeoutError` propagates.
        """
        submitted: List[_Pending] = []
        try:
            for request in requests:
                submitted.append(self._submit(request))
        except BaseException:
            self._withdraw(submitted)
            raise
        with self._cv:
            for pending in submitted:
                bucket = self._buckets.get(pending.request.bucket_key())
                if bucket is not None and not bucket.blocked:
                    bucket.blocked = pending in bucket.requests
            self._cv.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        results = []
        for pending in submitted:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            try:
                results.append(pending.future.result(timeout=remaining))
            except BaseException:
                self._withdraw(submitted)
                raise
        return results

    # ------------------------------------------------------------------
    # Live updates (forwarded to the database)
    # ------------------------------------------------------------------
    def insert(self, obj: FuzzyObject) -> int:
        """Insert into the underlying database (shard write locks apply)."""
        object_id = self.database.insert(obj)
        self.metrics.increment(MetricsCollector.LIVE_INSERTS)
        return object_id

    def delete(self, object_id: int) -> None:
        """Delete from the underlying database (shard write locks apply)."""
        self.database.delete(object_id)
        self.metrics.increment(MetricsCollector.LIVE_DELETES)

    # ------------------------------------------------------------------
    # Standing queries
    # ------------------------------------------------------------------
    def _subscription_engine(self) -> SubscriptionEngine:
        """The shared engine, registered as a DB update listener on first use."""
        with self._sub_lock:
            if self._subscriptions is None:
                register = getattr(self.database, "add_update_listener", None)
                if register is None:
                    raise InvalidQueryError(
                        "the underlying engine does not expose update "
                        "listeners; standing queries need a FuzzyDatabase or "
                        "ShardedDatabase"
                    )
                engine = SubscriptionEngine(self.database, metrics=self.metrics)
                register(engine)
                self._subscriptions = engine
            return self._subscriptions

    def subscribe(
        self, request: QueryRequest, depth: Optional[int] = None
    ) -> DeliverySubscription:
        """Register a standing query; returns its buffered delta stream.

        The first delta is the request's full current answer; every
        subsequent mutation that changes the answer queues an incremental
        delta.  A consumer that lets ``depth`` deltas pile up (default:
        :class:`DeliverySubscription`'s) is shed: its stream closes with
        ``shed=True`` and the subscription is torn down, so one stuck
        consumer cannot stall mutations or grow memory without bound.
        """
        engine = self._subscription_engine()
        delivery = DeliverySubscription() if depth is None else DeliverySubscription(depth)
        delivery._on_overflow = lambda: self._shed_subscriber(delivery)
        delivery.subscription = engine.subscribe(request, listener=delivery.deliver)
        with self._sub_lock:
            self._deliveries[delivery.id] = delivery
        return delivery

    def unsubscribe(self, delivery: DeliverySubscription) -> None:
        """Tear one standing query down and close its delta stream."""
        self._drop_subscription(delivery)
        delivery.close()

    def _shed_subscriber(self, delivery: DeliverySubscription) -> None:
        """Overflow callback: count the shed and tear the subscription down."""
        self.metrics.increment(MetricsCollector.SUBSCRIBERS_SHED)
        self._drop_subscription(delivery)

    def _drop_subscription(self, delivery: DeliverySubscription) -> None:
        sub = delivery.subscription
        with self._sub_lock:
            engine = self._subscriptions
            if sub is not None:
                self._deliveries.pop(sub.id, None)
        if engine is not None and sub is not None:
            engine.unsubscribe(sub)

    @property
    def subscriptions(self) -> int:
        """Number of live standing queries."""
        with self._sub_lock:
            return len(self._deliveries)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Current serving statistics (latency percentiles in milliseconds)."""
        with self._cv:
            latencies = list(self._latencies)
            stats = ServiceStats(
                requests_submitted=self._submitted,
                requests_completed=self._completed,
                requests_shed=self._shed,
                requests_failed=self._failed,
                batches_flushed=self._batches,
                coalesced_queries=self._coalesced,
                max_batch_size=self._max_batch_seen,
                mean_batch_size=(
                    self._coalesced / self._batches if self._batches else 0.0
                ),
                counters=self.metrics.as_dict(),
            )
        if latencies:
            millis = np.asarray(latencies) * 1000.0
            stats.p50_latency_ms = float(np.percentile(millis, 50))
            stats.p99_latency_ms = float(np.percentile(millis, 99))
            stats.mean_latency_ms = float(millis.mean())
        return stats

    @property
    def pending(self) -> int:
        """Requests currently waiting in coalescer buckets."""
        with self._cv:
            return self._pending

    # ------------------------------------------------------------------
    # Flusher
    # ------------------------------------------------------------------
    def _flush_at(self, bucket: _Bucket) -> float:
        """When this bucket must flush: now if a caller is blocked on it (the
        loop pops due buckets only between flushes, so "now" is the
        flusher's next turn), else its window, brought forward so the
        earliest member deadline still leaves one window's worth of time to
        execute."""
        if bucket.blocked:
            return bucket.opened_at
        at = bucket.opened_at + self.window_seconds
        if bucket.expires_at is not None:
            at = min(at, bucket.expires_at - self.window_seconds)
        return at

    def _due_buckets(self, now: float, flush_all: bool) -> List[_Bucket]:
        """Pop the buckets ready to execute (size, window, deadline, blocked)."""
        due: List[_Bucket] = []
        for key in list(self._buckets):
            bucket = self._buckets[key]
            if (
                flush_all
                or now >= self._flush_at(bucket)
                or len(bucket.requests) >= self.max_batch
            ):
                due.append(self._buckets.pop(key))
        for bucket in due:
            self._pending -= len(bucket.requests)
        return due

    def _next_deadline(self) -> Optional[float]:
        if not self._buckets:
            return None
        return min(self._flush_at(b) for b in self._buckets.values())

    def _flush_loop(self) -> None:
        while True:
            with self._cv:
                now = time.monotonic()
                due = self._due_buckets(now, flush_all=not self._running)
                if not due:
                    if not self._running:
                        return
                    deadline = self._next_deadline()
                    timeout = None if deadline is None else max(0.0, deadline - now)
                    self._cv.wait(timeout=timeout)
                    continue
            for bucket in due:
                try:
                    self._execute(bucket)
                except BaseException as exc:  # the loop must survive anything
                    with self._cv:
                        self._failed += len(bucket.requests)
                    for pending in bucket.requests:
                        pending.fail(exc)
            # Yield before the next turn, so callers just answered can submit
            # again and join it instead of trailing it as a flush of their own.
            time.sleep(0)

    def _withdraw_expired(self, bucket: _Bucket) -> List[_Pending]:
        """Fail members whose deadline lapsed in the queue; return the rest.

        An expired member gets :class:`DeadlineExceededError` without
        touching the database — the whole point of deadline propagation is
        not paying for answers nobody is waiting for any more.
        """
        live: List[_Pending] = []
        expired: List[_Pending] = []
        for pending in bucket.requests:
            if pending.deadline is not None and pending.deadline.expired():
                expired.append(pending)
            else:
                live.append(pending)
        if expired:
            with self._cv:
                self._failed += len(expired)
            self.metrics.increment(
                MetricsCollector.REQUESTS_WITHDRAWN_EXPIRED, len(expired)
            )
            self.metrics.increment(MetricsCollector.DEADLINE_EXPIRED, len(expired))
            for pending in expired:
                pending.fail(
                    DeadlineExceededError(
                        f"{type(pending.request).__name__} expired waiting in queue"
                    )
                )
        return live

    def _execute(self, bucket: _Bucket) -> None:
        # The bucket is homogeneous by construction (one bucket_key), so the
        # database's planner answers it through the shared engine registered
        # for its request type — no per-type dispatch here.  execute_plan is
        # called directly (rather than through database.execute_batch) so the
        # deadlines captured at submit time keep counting down, and so each
        # slot's failure lands on its own future instead of failing the whole
        # bucket (on_error="return").
        started = time.monotonic()
        live = self._withdraw_expired(bucket)
        if not live:
            return
        try:
            results = execute_plan(
                self.database,
                [pending.request for pending in live],
                deadlines=[pending.deadline for pending in live],
                on_error="return",
            )
        except BaseException as exc:  # propagate into the waiting futures
            with self._cv:
                self._failed += len(live)
            for pending in live:
                pending.fail(exc)
            return
        done = time.monotonic()
        size = len(live)
        completed = sum(
            1 for result in results if not isinstance(result, BaseException)
        )
        with self._cv:
            self._batches += 1
            self._coalesced += size
            self._max_batch_seen = max(self._max_batch_seen, size)
            self._completed += completed
            self._failed += size - completed
            for pending in live:
                self._latencies.append(done - pending.submitted_at)
            rate = size / max(done - started, 1e-6)
            self._drain_rate = (
                rate if self._drain_rate <= 0.0
                else 0.8 * self._drain_rate + 0.2 * rate
            )
        self.metrics.increment(MetricsCollector.COALESCED_BATCHES)
        self.metrics.increment(MetricsCollector.COALESCED_QUERIES, size)
        for pending, result in zip(live, results):
            if isinstance(result, BaseException):
                pending.fail(result)
            else:
                pending.resolve(result)
