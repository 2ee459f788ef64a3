"""Standing queries: registered requests maintained under live updates.

A client subscribes an :class:`~repro.core.requests.AknnRequest` or
:class:`~repro.core.requests.RangeRequest` and from then on receives
:class:`ResultDelta` messages whenever an insert or delete changes its
answer, instead of re-polling the full query.  The maintenance work per
update is deliberately small:

*Insert.*  A new object can only enter a kNN answer whose current k-th
distance it beats (or that is not full yet), and a range answer whose radius
it reaches.  ``MinDist`` between each subscription's query alpha-cut box
and the new object's support box (:func:`min_dist_to_boxes`, the Equation-1
kernel the tree traversal already uses) lower-bounds the exact
alpha-distance, and each threshold (that k-th distance, ``inf`` while not
full, or the radius) is kept in an array refreshed when members change, so
one ``may_reach(bounds, thresholds)`` (the descent's prune) screens every
subscription without touching the object's point set (SUB_SCREENED_OUT).  Only survivors pay one
exact closest-pair evaluation (SUB_EVALUATIONS).

*Delete.*  A delete can only change answers the object currently belongs
to.  A range subscription just drops the member (the delta is exact without
re-execution).  A kNN subscription must back-fill its k-th slot, which
requires a targeted re-query — routed through the engine's typed ``execute``
surface (SUB_REQUERIES), so on a sharded database the re-query is the normal
fan-out + cross-shard merge and the delta is correct across shards.  A
delete only improves the survivors' ranks: they keep the distances their
subscriber was delivered, and only a new member confirmed from its bounds
is read (:func:`resolve_exact` with the known distances).

Parity invariant (pinned by the tests): after *every* mutation, replaying a
subscription's delta stream from empty reproduces exactly the result of
re-executing its request from scratch.

:class:`SubscriptionEngine` registers as an update listener on the database
(:meth:`~repro.core.database.FuzzyDatabase.add_update_listener`); the service
layer wraps subscriptions in a bounded :class:`DeliverySubscription` queue
and sheds consumers that fall behind (SUBSCRIBERS_SHED).
"""

from __future__ import annotations

import bisect
import queue
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..core.requests import AknnRequest, QueryRequest, RangeRequest
from ..core.results import resolve_exact
from ..exceptions import EmptyAlphaCutError, InvalidQueryError
from ..fuzzy.alpha_distance import alpha_distance_points
from ..fuzzy.fuzzy_object import FuzzyObject
from ..index.soa import min_dist_to_boxes
from ..metrics.counters import MetricsCollector
from ..predicates import may_reach


@dataclass(frozen=True)
class ResultDelta:
    """One change notification for a standing query.

    ``added`` holds ``(object_id, distance)`` pairs entering the answer,
    ``removed`` the object ids leaving it.  ``seq`` increases by one per
    delta of a subscription (gap-free, so consumers can detect loss), and
    ``cause`` names the mutation that produced the delta (``"initial"``,
    ``"insert"``, ``"delete"``).
    """

    subscription_id: int
    seq: int
    added: Tuple[Tuple[int, float], ...] = ()
    removed: Tuple[int, ...] = ()
    cause: str = "initial"


class Subscription:
    """One registered standing query and its maintained answer."""

    def __init__(
        self,
        subscription_id: int,
        request: Union[AknnRequest, RangeRequest],
        listener: Optional[Callable[[ResultDelta], None]] = None,
    ) -> None:
        self.id = int(subscription_id)
        self.request = request
        self.listener = listener
        self.alpha = float(request.alpha)
        # The query alpha-cut is fixed for the subscription's lifetime;
        # materialise it (and its box) once.
        self.query_cut = np.asarray(request.query.alpha_cut(self.alpha), dtype=float)
        if self.query_cut.shape[0] == 0:
            raise EmptyAlphaCutError(
                f"query alpha-cut at alpha={self.alpha} is empty"
            )
        self.query_lower = self.query_cut.min(axis=0)
        self.query_upper = self.query_cut.max(axis=0)
        # Current answer: {object_id: exact alpha-distance}; a kNN answer also
        # keeps its (distance, id) pairs ascending, so the worst member (the
        # larger id among equal distances) is the last pair.
        self.members: Dict[int, float] = {}
        self.ranked: List[Tuple[float, int]] = []
        self.seq = 0
        self.active = True

    # ------------------------------------------------------------------

    @property
    def is_aknn(self) -> bool:
        return isinstance(self.request, AknnRequest)

    @property
    def threshold(self) -> float:
        """Largest exact distance a new insert must beat to matter.

        kNN: the k-th member distance (``inf`` while the answer is not yet
        full — any insert may enter).  Range: the radius.
        """
        if self.is_aknn:
            if len(self.ranked) < self.request.k:
                return float("inf")
            return self.ranked[-1][0]
        return float(self.request.radius)

    def set_members(self, members: Dict[int, float]) -> None:
        """Replace the whole answer (a fresh or re-executed request)."""
        self.members = members
        if self.is_aknn:
            self.ranked = sorted((d, oid) for oid, d in members.items())

    def distance_of(self, obj: FuzzyObject) -> float:
        """Exact alpha-distance between the query and ``obj``."""
        cut = np.asarray(obj.alpha_cut(self.alpha), dtype=float)
        return alpha_distance_points(cut, self.query_cut)

    # ------------------------------------------------------------------

    def emit(self, added, removed, cause: str) -> Optional[ResultDelta]:
        added = tuple(sorted(added))
        removed = tuple(sorted(removed))
        if not added and not removed:
            return None
        delta = ResultDelta(
            subscription_id=self.id,
            seq=self.seq,
            added=added,
            removed=removed,
            cause=cause,
        )
        self.seq += 1
        if self.listener is not None:
            self.listener(delta)
        return delta


class SubscriptionEngine:
    """Maintains every registered standing query under inserts and deletes.

    Implements the update-listener protocol (:meth:`notify_insert`,
    :meth:`notify_delete`) and is meant to be attached with
    ``database.add_update_listener(engine)`` so every mutation — whether it
    enters through the database, the sharded fan-out or the query service —
    triggers maintenance exactly once, after the mutation is applied.
    """

    def __init__(
        self,
        engine,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        self.engine = engine
        self.metrics = metrics if metrics is not None else getattr(engine, "metrics", None)
        self._subs: Dict[int, Subscription] = {}
        self._next_id = 0
        # Reentrant: delta listeners run under this lock, and a listener
        # may call back into unsubscribe() on the same thread (the delivery
        # queue sheds its subscription on overflow).
        self._lock = threading.RLock()
        # The insert screen: the subscriptions, their stacked (S, d) query
        # boxes, (S,) thresholds and each one's row; rebuilt lazily after
        # subscribe/unsubscribe, a threshold refreshed when members change.
        self._screen: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def subscribe(
        self,
        request: QueryRequest,
        listener: Optional[Callable[[ResultDelta], None]] = None,
    ) -> Subscription:
        """Register ``request`` and emit its initial answer as a delta."""
        if not isinstance(request, (AknnRequest, RangeRequest)):
            raise InvalidQueryError(
                "standing queries support AknnRequest and RangeRequest, got "
                f"{type(request).__name__}"
            )
        with self._lock:
            sub = Subscription(self._next_id, request, listener)
            self._next_id += 1
            sub.set_members(self._execute_members(sub))
            self._subs[sub.id] = sub
            self._screen = None
            self._count(MetricsCollector.SUBSCRIPTIONS)
            delta = sub.emit(
                [(oid, d) for oid, d in sub.members.items()], [], "initial"
            )
            if delta is not None:
                self._count(MetricsCollector.SUB_DELTAS)
        return sub

    def unsubscribe(self, subscription: Union[Subscription, int]) -> None:
        sub_id = subscription.id if isinstance(subscription, Subscription) else int(subscription)
        with self._lock:
            sub = self._subs.pop(sub_id, None)
            if sub is not None:
                sub.active = False
                self._screen = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._subs)

    # ------------------------------------------------------------------
    # Update-listener protocol
    # ------------------------------------------------------------------

    def notify_insert(self, obj: FuzzyObject) -> None:
        """Maintain every subscription after ``obj`` was inserted."""
        with self._lock:
            if not self._subs:
                return
            object_id = int(obj.object_id)
            support = obj.support_mbr()
            subs, lower, upper, thresholds, _ = self._screen_arrays()
            # MinDist(query alpha-cut box, object support box) lower-bounds
            # the exact alpha-distance at every alpha, so one (S, 1) kernel
            # call and one comparison screen all subscriptions at once.
            bounds = min_dist_to_boxes(
                lower,
                upper,
                support.lower[None, :],
                support.upper[None, :],
            )[:, 0]
            passed = np.flatnonzero(may_reach(bounds, thresholds)).tolist()
            if len(subs) > len(passed):
                self._count(MetricsCollector.SUB_SCREENED_OUT, len(subs) - len(passed))
            for sub in (subs[row] for row in passed):
                if not sub.active:  # a listener unsubscribed it meanwhile
                    continue
                self._count(MetricsCollector.SUB_EVALUATIONS)
                try:
                    distance = sub.distance_of(obj)
                except EmptyAlphaCutError:
                    # No point of the object reaches this alpha: it cannot
                    # belong to any alpha-cut answer.
                    continue
                self._apply_insert(sub, object_id, distance)

    def notify_delete(self, object_id: int) -> None:
        """Maintain every subscription after ``object_id`` was deleted."""
        object_id = int(object_id)
        with self._lock:
            for sub in list(self._subs.values()):
                if object_id not in sub.members:
                    continue
                if sub.is_aknn:
                    # The k-th slot must be back-filled: targeted re-query
                    # through the typed surface (fans out + merges across
                    # shards on a sharded engine), then diff.  Survivors keep
                    # their delivered distances; only a new member is read.
                    self._count(MetricsCollector.SUB_REQUERIES)
                    fresh = self._execute_members(sub, known=sub.members)
                    added = [
                        (oid, d) for oid, d in fresh.items() if oid not in sub.members
                    ]
                    removed = [oid for oid in sub.members if oid not in fresh]
                    sub.set_members(fresh)
                    self._refresh_threshold(sub)
                    if sub.emit(added, removed, "delete") is not None:
                        self._count(MetricsCollector.SUB_DELTAS)
                else:
                    sub.members.pop(object_id)
                    sub.emit([], [object_id], "delete")
                    self._count(MetricsCollector.SUB_DELTAS)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _apply_insert(self, sub: Subscription, object_id: int, distance: float) -> None:
        if sub.is_aknn:
            entry, removed = (distance, object_id), []
            if len(sub.ranked) >= sub.request.k:
                if entry >= sub.ranked[-1]:
                    return
                removed.append(sub.ranked.pop()[1])
                sub.members.pop(removed[0])
            bisect.insort(sub.ranked, entry)
            sub.members[object_id] = distance
            self._refresh_threshold(sub)
            sub.emit([entry[::-1]], removed, "insert")
            self._count(MetricsCollector.SUB_DELTAS)
            return
        if distance <= sub.request.radius:
            sub.members[object_id] = distance
            sub.emit([(object_id, distance)], [], "insert")
            self._count(MetricsCollector.SUB_DELTAS)

    def _execute_members(self, sub: Subscription, known=None) -> Dict[int, float]:
        """Run the subscription's request and return exact ``{id: distance}``.

        A member in ``known`` keeps that distance.  Any other member
        confirmed through bounds alone (kNN neighbours and range matches)
        carries ``distance=None``; the maintained state needs exact
        distances, so each is read once here.
        """
        result = self.engine.execute(sub.request)
        return resolve_exact(result, sub.request.query, sub.alpha, self.engine.get_object, known)

    def _screen_arrays(self):
        if self._screen is None:
            subs = list(self._subs.values())
            self._screen = (
                subs,
                np.stack([s.query_lower for s in subs]),
                np.stack([s.query_upper for s in subs]),
                np.array([s.threshold for s in subs]),
                {s.id: row for row, s in enumerate(subs)},
            )
        return self._screen

    def _refresh_threshold(self, sub: Subscription) -> None:
        if self._screen is not None and sub.active:
            *_, thresholds, rows = self._screen
            thresholds[rows[sub.id]] = sub.threshold

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.increment(name, amount)


class DeliverySubscription:
    """A subscription whose deltas are buffered for a pulling consumer.

    The service layer hands these out: deltas queue up to ``depth``; a
    consumer that falls further behind is *shed* — the subscription is
    cancelled, the counter bumped, and the stream closed.  A closed stream
    still yields what it queued, then ends instead of waiting forever (a
    full queue has no room for the end-of-stream sentinel, so the consumer
    stops waiting once ``closed`` is set and the queue is empty).
    """

    _CLOSE = object()

    def __init__(self, depth: int = 256) -> None:
        self._queue: "queue.Queue" = queue.Queue(maxsize=max(1, int(depth)))
        self.subscription: Optional[Subscription] = None
        self.shed = False
        self.closed = False
        self._on_overflow: Optional[Callable[[], None]] = None

    @property
    def id(self) -> int:
        assert self.subscription is not None
        return self.subscription.id

    # -- producer side -------------------------------------------------

    def deliver(self, delta: ResultDelta) -> None:
        try:
            self._queue.put_nowait(delta)
        except queue.Full:
            self.shed = True
            self.close()
            if self._on_overflow is not None:
                self._on_overflow()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                # Wakes a consumer blocked on the empty queue.
                self._queue.put_nowait(self._CLOSE)
            except queue.Full:
                # Consumer will still observe `closed` once it drains.
                pass

    # -- consumer side -------------------------------------------------

    def _take(self, block: bool, timeout: Optional[float] = None) -> Optional[ResultDelta]:
        """Next queued delta; ``None`` when the stream ended or none came.

        A closed stream never waits: every delta it will hold is queued.  A
        consumer that blocked before the close is woken by the sentinel, or,
        when the queue was full, has a delta to take instead.
        """
        try:
            item = self._queue.get(block and not self.closed, timeout)
        except queue.Empty:
            return None
        return None if item is self._CLOSE else item

    def poll(self, timeout: Optional[float] = None) -> Optional[ResultDelta]:
        """Next delta, ``None`` when the stream ended (or ``timeout`` hit)."""
        return self._take(timeout is not None, timeout)

    def drain(self) -> List[ResultDelta]:
        """Every currently queued delta, without blocking."""
        deltas: List[ResultDelta] = []
        while True:
            delta = self.poll()
            if delta is None:
                return deltas
            deltas.append(delta)

    def __iter__(self) -> Iterator[ResultDelta]:
        while True:
            item = self._take(True)
            if item is None:
                return
            yield item
