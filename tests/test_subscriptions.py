"""Standing-query tests.

The invariant every test leans on: after *any* mutation, folding a
subscription's delta stream into an (initially empty) member map reproduces
exactly what re-executing its request from scratch returns.  On top of that
the suite pins the efficiency contract (inserts are screened by the
vectorised bound kernel, deletes of non-members cost nothing, only member
deletes of kNN answers re-query) and the service-layer lifecycle (bounded
delivery queues, slow-consumer shedding, detach on stop).
"""

import threading
import time

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.core.database import FuzzyDatabase
from repro.core.requests import AknnRequest, RangeRequest, SweepRequest
from repro.exceptions import InvalidQueryError
from repro.metrics.counters import MetricsCollector
from repro.service.query_service import QueryService
from repro.service.sharded import ShardedDatabase
from repro.service.subscriptions import SubscriptionEngine

from tests.conftest import make_fuzzy_object


def fold(deltas):
    """Replay a delta stream into the member map it describes."""
    members = {}
    seqs = []
    for delta in deltas:
        seqs.append(delta.seq)
        for object_id in delta.removed:
            members.pop(object_id, None)
        for object_id, distance in delta.added:
            members[object_id] = distance
    assert seqs == list(range(len(seqs))), f"delta stream has gaps: {seqs}"
    return members


def read_to_end(delivery, timeout=5.0):
    """Iterate ``delivery`` in a thread: the deltas read, or ``None`` when
    the iteration was still waiting after ``timeout`` seconds."""
    read = []
    reader = threading.Thread(target=lambda: read.extend(delivery), daemon=True)
    reader.start()
    reader.join(timeout)
    return None if reader.is_alive() else read


def reference_members(engine, sub):
    """Re-execute the subscription's request from scratch (the oracle).

    A member confirmed by its bounds (an unprobed neighbour, a range match
    within the radius by its upper bound) carries no distance; it gets its
    exact one here.
    """
    result = engine.execute(sub.request)
    if hasattr(result, "neighbors"):
        pairs = [(neighbor.object_id, neighbor.distance) for neighbor in result.neighbors]
    else:
        pairs = result.matches
    out = {}
    for object_id, distance in pairs:
        if distance is None:
            distance = sub.distance_of(engine.get_object(object_id))
        out[int(object_id)] = float(distance)
    return out


def assert_members_match(actual, expected):
    assert sorted(actual) == sorted(expected)
    for object_id, distance in expected.items():
        assert actual[object_id] == pytest.approx(distance, abs=1e-9)


def _database(seed: int, n: int = 16):
    rng = np.random.default_rng(seed)
    objects = [make_fuzzy_object(rng, object_id=i) for i in range(n)]
    return FuzzyDatabase.build(objects), rng


class TestSubscriptionEngine:
    def _attach(self, db):
        engine = SubscriptionEngine(db, metrics=MetricsCollector())
        db.add_update_listener(engine)
        return engine

    def test_parity_after_every_mutation(self):
        db, rng = _database(61)
        engine = self._attach(db)
        query = make_fuzzy_object(rng, center=[5.0, 5.0])
        deltas = {"aknn": [], "range": []}
        aknn = engine.subscribe(
            AknnRequest(query, k=4, alpha=0.4), deltas["aknn"].append
        )
        rng_sub = engine.subscribe(
            RangeRequest(query, alpha=0.5, radius=4.0), deltas["range"].append
        )
        # Initial deltas already delivered the opening answers.
        assert_members_match(fold(deltas["aknn"]), reference_members(db, aknn))

        live = list(db.object_ids())
        next_id = 100
        for step in range(24):
            if step % 4 == 3 and len(live) > 6:
                victim = live.pop(int(rng.integers(0, len(live))))
                db.delete(victim)
            else:
                db.insert(make_fuzzy_object(rng, object_id=next_id))
                live.append(next_id)
                next_id += 1
            # THE invariant: delta stream == re-execution, after every op.
            assert_members_match(fold(deltas["aknn"]), reference_members(db, aknn))
            assert_members_match(fold(deltas["range"]), reference_members(db, rng_sub))
        db.close()

    def test_far_inserts_are_screened_without_evaluation(self):
        db, rng = _database(62)
        engine = self._attach(db)
        query = make_fuzzy_object(rng, center=[5.0, 5.0])
        sub = engine.subscribe(AknnRequest(query, k=3, alpha=0.4))
        assert len(sub.members) == 3  # full answer -> finite threshold
        before = engine.metrics.as_dict()
        for j in range(5):
            db.insert(make_fuzzy_object(rng, center=[500.0, 500.0], object_id=200 + j))
        after = engine.metrics.as_dict()
        assert (
            after[MetricsCollector.SUB_SCREENED_OUT]
            - before.get(MetricsCollector.SUB_SCREENED_OUT, 0)
            == 5
        )
        assert after.get(MetricsCollector.SUB_EVALUATIONS, 0) == before.get(
            MetricsCollector.SUB_EVALUATIONS, 0
        )
        db.close()

    def test_member_delete_triggers_targeted_requery(self):
        db, rng = _database(63)
        engine = self._attach(db)
        query = make_fuzzy_object(rng, center=[5.0, 5.0])
        deltas = []
        sub = engine.subscribe(AknnRequest(query, k=3, alpha=0.4), deltas.append)
        member = sorted(sub.members)[0]
        before = engine.metrics.get(MetricsCollector.SUB_REQUERIES)
        db.delete(member)
        assert engine.metrics.get(MetricsCollector.SUB_REQUERIES) == before + 1
        assert member in deltas[-1].removed
        assert member not in sub.members
        assert_members_match(fold(deltas), reference_members(db, sub))
        db.close()

    def test_non_member_delete_is_free(self):
        db, rng = _database(64)
        engine = self._attach(db)
        query = make_fuzzy_object(rng, center=[5.0, 5.0])
        sub = engine.subscribe(AknnRequest(query, k=3, alpha=0.4))
        non_member = next(i for i in db.object_ids() if i not in sub.members)
        seq_before = sub.seq
        requeries_before = engine.metrics.get(MetricsCollector.SUB_REQUERIES)
        db.delete(non_member)
        assert sub.seq == seq_before  # no delta emitted
        assert engine.metrics.get(MetricsCollector.SUB_REQUERIES) == requeries_before
        db.close()

    def test_range_member_delete_needs_no_requery(self):
        db, rng = _database(65)
        engine = self._attach(db)
        query = make_fuzzy_object(rng, center=[5.0, 5.0])
        deltas = []
        sub = engine.subscribe(
            RangeRequest(query, alpha=0.5, radius=6.0), deltas.append
        )
        assert sub.members, "radius too small for the fixture"
        member = sorted(sub.members)[0]
        before = engine.metrics.get(MetricsCollector.SUB_REQUERIES)
        db.delete(member)
        assert engine.metrics.get(MetricsCollector.SUB_REQUERIES) == before
        assert deltas[-1].removed == (member,)
        assert_members_match(fold(deltas), reference_members(db, sub))
        db.close()

    def test_unsupported_request_type_rejected(self):
        db, rng = _database(66, n=6)
        engine = self._attach(db)
        query = make_fuzzy_object(rng)
        with pytest.raises(InvalidQueryError):
            engine.subscribe(SweepRequest(query, k=2, alpha_range=(0.2, 0.8)))
        db.close()

    def test_unsubscribe_stops_maintenance(self):
        db, rng = _database(67)
        engine = self._attach(db)
        query = make_fuzzy_object(rng, center=[5.0, 5.0])
        deltas = []
        sub = engine.subscribe(AknnRequest(query, k=3, alpha=0.4), deltas.append)
        engine.unsubscribe(sub)
        assert len(engine) == 0
        count = len(deltas)
        db.insert(make_fuzzy_object(rng, center=[5.0, 5.0], object_id=300))
        assert len(deltas) == count
        db.close()


class TestServiceSubscriptions:
    """The QueryService wrapper: delivery queues, shedding, lifecycle."""

    def _sharded_service(self, seed: int, depth=None):
        rng = np.random.default_rng(seed)
        objects = [make_fuzzy_object(rng, object_id=i) for i in range(18)]
        config = RuntimeConfig(service_shards=3)
        db = ShardedDatabase.build(objects, n_shards=3, config=config)
        service = QueryService(db).start()
        return service, db, rng

    def test_parity_through_the_service_over_shards(self):
        service, db, rng = self._sharded_service(71)
        query = make_fuzzy_object(rng, center=[5.0, 5.0])
        request = AknnRequest(query, k=4, alpha=0.4)
        delivery = service.subscribe(request)
        sub = delivery.subscription
        stream = []  # the full delta history, drained incrementally
        live = list(db.object_ids())
        next_id = 100
        for step in range(18):
            if step % 4 == 3 and len(live) > 6:
                victim = live.pop(int(rng.integers(0, len(live))))
                service.delete(victim)
            else:
                service.insert(make_fuzzy_object(rng, object_id=next_id))
                live.append(next_id)
                next_id += 1
            stream.extend(delivery.drain())
            # The coalescing executor answers the oracle query; deltas came
            # through the bounded delivery queue — both must agree.
            assert_members_match(fold(stream), reference_members(db, sub))
        service.stop()
        db.close()

    def test_slow_consumer_is_shed(self):
        service, db, rng = self._sharded_service(72)
        query = make_fuzzy_object(rng, center=[5.0, 5.0])
        delivery = service.subscribe(AknnRequest(query, k=3, alpha=0.4), depth=1)
        assert service.subscriptions == 1
        # The initial delta fills the depth-1 queue; the next delta overflows.
        inserted = 400
        while not delivery.shed and inserted < 420:
            service.insert(make_fuzzy_object(rng, center=[5.0, 5.0], object_id=inserted))
            inserted += 1
        assert delivery.shed and delivery.closed
        assert service.subscriptions == 0
        assert service.metrics.get(MetricsCollector.SUBSCRIBERS_SHED) == 1
        # Further mutations are fine — the dead subscription is gone.
        service.insert(make_fuzzy_object(rng, object_id=999))
        service.stop()
        db.close()

    def test_shed_stream_ends_after_its_queued_delta(self):
        """A shed queue is full, so no end-of-stream sentinel fits: the
        stream still yields what it queued, then ends."""
        service, db, rng = self._sharded_service(74)
        query = make_fuzzy_object(rng, center=[5.0, 5.0])
        delivery = service.subscribe(AknnRequest(query, k=3, alpha=0.4), depth=1)
        inserted = 400
        while not delivery.shed and inserted < 420:
            service.insert(make_fuzzy_object(rng, center=[5.0, 5.0], object_id=inserted))
            inserted += 1
        assert delivery.shed
        read = read_to_end(delivery)
        assert read is not None, "iterating a shed stream never ended"
        assert [delta.seq for delta in read] == [0]
        started = time.monotonic()
        assert delivery.poll(timeout=5.0) is None
        assert time.monotonic() - started < 1.0
        service.stop()
        db.close()

    def test_unsubscribe_of_a_full_stream_ends_it(self):
        service, db, rng = self._sharded_service(75)
        query = make_fuzzy_object(rng, center=[5.0, 5.0])
        # The initial delta fills the depth-1 queue.
        delivery = service.subscribe(AknnRequest(query, k=3, alpha=0.4), depth=1)
        service.unsubscribe(delivery)
        read = read_to_end(delivery)
        assert read is not None, "iterating an unsubscribed full stream never ended"
        assert [delta.seq for delta in read] == [0]
        service.stop()
        db.close()

    def test_unsubscribe_and_stop_detach_cleanly(self):
        service, db, rng = self._sharded_service(73)
        query = make_fuzzy_object(rng, center=[5.0, 5.0])
        first = service.subscribe(AknnRequest(query, k=3, alpha=0.4))
        second = service.subscribe(RangeRequest(query, alpha=0.5, radius=4.0))
        assert service.subscriptions == 2
        service.unsubscribe(first)
        assert service.subscriptions == 1
        assert first.closed
        first.drain()  # queued deltas still readable, then the stream ends
        assert first.poll() is None
        service.stop()
        assert service.subscriptions == 0
        second.drain()  # closed stream drains without blocking
        # The engine detached from the database: mutations notify nobody.
        seq_before = second.subscription.seq
        db.insert(make_fuzzy_object(rng, object_id=800))
        assert second.subscription.seq == seq_before
        db.close()

    def test_subscribe_requires_listener_support(self):
        class Plain:
            """No add_update_listener: standing queries are impossible."""

            config = RuntimeConfig()

        service = QueryService.__new__(QueryService)
        # Only exercise the guard, not the full service lifecycle.
        service.database = Plain()
        service.metrics = MetricsCollector()
        import threading

        service._sub_lock = threading.Lock()
        service._subscriptions = None
        service._deliveries = {}
        query = make_fuzzy_object(np.random.default_rng(1))
        with pytest.raises(InvalidQueryError):
            service.subscribe(AknnRequest(query, k=2, alpha=0.5))
