"""What maintaining a standing query costs, update by update.

A member delete of an AKNN subscription re-queries it, but the survivors
keep the distances their subscriber was delivered: no surviving member is
read outside the re-query's own search, and the maintained map stays equal,
bit for bit, to the folded delta stream.  An insert is screened against
every subscription's threshold in one vector comparison; its screened-out
and evaluated counts equal a per-subscription loop kept here as the
reference, and the folded deltas equal re-execution after every step.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import RuntimeConfig
from repro.core.database import FuzzyDatabase
from repro.core.requests import AknnRequest, RangeRequest
from repro.core.results import resolve_exact
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.index.soa import min_dist_to_boxes
from repro.metrics.counters import MetricsCollector
from repro.service import ShardedDatabase
from repro.service.subscriptions import SubscriptionEngine
from repro.storage.object_store import ObjectStore

from tests.conftest import make_fuzzy_object

ENGINES = {
    "one_tree": lambda objects: FuzzyDatabase.build(
        objects, config=RuntimeConfig(rtree_max_entries=4)
    ),
    "three_space_shards": lambda objects: ShardedDatabase.build(
        objects, n_shards=3, placement="space",
        config=RuntimeConfig(rtree_max_entries=4, service_shards=3),
    ),
}


def fold(deltas):
    """The member map a delta stream describes (gap-free ``seq``)."""
    members = {}
    assert [delta.seq for delta in deltas] == list(range(len(deltas)))
    for delta in deltas:
        for object_id in delta.removed:
            members.pop(object_id, None)
        for object_id, distance in delta.added:
            members[object_id] = distance
    return members


def attach(db):
    engine = SubscriptionEngine(db, metrics=MetricsCollector())
    db.add_update_listener(engine)
    return engine


class ReadLog:
    """``store.get`` ids made outside the subscription re-queries' own
    searches (``db.execute``), and the members each re-query's answer
    confirmed without a distance."""

    def __init__(self, db, monkeypatch):
        self.searching = False
        self.outside, self.unprobed = [], []
        get, execute = ObjectStore.get, db.execute

        def logged_get(store, object_id):
            if not self.searching:
                self.outside.append(int(object_id))
            return get(store, object_id)

        def logged_execute(request):
            self.searching = True
            try:
                result = execute(request)
            finally:
                self.searching = False
            self.unprobed.append({i for i, d in result.matches if d is None})
            return result

        monkeypatch.setattr(ObjectStore, "get", logged_get)
        monkeypatch.setattr(db, "execute", logged_execute)

    def clear(self):
        self.outside, self.unprobed = [], []


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_a_member_delete_reads_no_survivor(engine_name, monkeypatch):
    rng = np.random.default_rng(44)
    objects = [make_fuzzy_object(rng, n_points=12, object_id=i) for i in range(30)]
    db = ENGINES[engine_name](objects)
    engine = attach(db)
    query = make_fuzzy_object(rng, n_points=12, center=[5.0, 5.0])
    streams = {k: [] for k in (3, 6)}
    subs = {
        k: engine.subscribe(AknnRequest(query, k=k, alpha=0.5), streams[k].append)
        for k in streams
    }
    log = ReadLog(db, monkeypatch)
    spared = 0  # survivors a re-query confirmed without a read
    next_id = 100
    for step in range(24):
        sub = subs[(3, 6)[step % 2]]
        before = {k: dict(s.members) for k, s in subs.items()}
        requeries = engine.metrics.get(MetricsCollector.SUB_REQUERIES)
        log.clear()
        if step % 3 == 2:
            db.insert(make_fuzzy_object(
                rng, n_points=12, center=[5.0, 5.0], spread=2.0, object_id=next_id
            ))
            next_id += 1
        else:
            victim = sorted(sub.members)[int(rng.integers(0, len(sub.members)))]
            db.delete(victim)
            hit = [k for k, members in before.items() if victim in members]
            assert engine.metrics.get(MetricsCollector.SUB_REQUERIES) == requeries + len(hit)
            # Outside the re-queries' searches only a new member is read ...
            new = set().union(*(set(s.members) - set(before[k]) for k, s in subs.items()))
            assert set(log.outside) - {victim} <= new, (sorted(log.outside), sorted(new))
            for k in hit:
                survivors = set(before[k]) - {victim}
                # ... and each survivor keeps the distance it was delivered,
                # bit for bit.
                for object_id in survivors & set(subs[k].members):
                    assert subs[k].members[object_id].hex() == before[k][object_id].hex()
            spared += sum(
                len(unprobed & (set(before[k]) - {victim}))
                for k, unprobed in zip(hit, log.unprobed)
            )
        for k, s in subs.items():
            assert s.members == fold(streams[k])
            want = resolve_exact(
                db.execute(s.request), query, s.alpha, db.get_object, s.members
            )
            assert sorted(s.members) == sorted(want)
    # Survivors the old path would have read back: the pin is not vacuous.
    assert spared > 0
    db.close()


# ---------------------------------------------------------------------------
# The vector screen against a per-subscription reference loop
# ---------------------------------------------------------------------------

REL = 1e-9


def reference_screen(subs, obj):
    """``(screened out, evaluated)`` of one insert, one subscription at a
    time, each threshold taken from the members as they are now."""
    support = obj.support_mbr()
    screened = evaluated = 0
    for sub in subs:
        bound = min_dist_to_boxes(
            sub.query_lower, sub.query_upper, support.lower[None], support.upper[None]
        )[0]
        if sub.is_aknn:
            full = len(sub.members) >= sub.request.k
            threshold = max(sub.members.values()) if full else np.inf
        else:
            threshold = sub.request.radius
        if bound > threshold:
            screened += 1
        else:
            evaluated += 1
    return screened, evaluated


def assert_same_answer(sub, members, db):
    """Folded members against re-execution: the same ids up to ties at the
    k-th distance, each distance the exact one."""
    want = resolve_exact(db.execute(sub.request), sub.request.query, sub.alpha, db.get_object)
    for object_id in set(members) & set(want):
        assert abs(members[object_id] - want[object_id]) <= REL * max(1.0, want[object_id])
    if set(members) == set(want):
        return
    assert sub.is_aknn and len(members) == len(want), (sorted(members), sorted(want))
    kth = max(want.values())
    for object_id in set(members) ^ set(want):
        distance = members.get(object_id, want.get(object_id))
        assert abs(distance - kth) <= REL * max(1.0, kth), (object_id, distance, kth)


operations = st.lists(
    st.one_of(
        st.tuples(st.just("near"), st.integers(0, 2**16)),
        st.tuples(st.just("far"), st.integers(0, 2**16)),
        st.tuples(st.just("twin"), st.integers(0, 2**16)),
        st.tuples(st.just("worst_twin"), st.integers(0, 2**16)),
        st.tuples(st.just("delete"), st.integers(0, 2**16)),
    ),
    min_size=1,
    max_size=14,
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 7),
    ks=st.lists(st.integers(1, 8), min_size=1, max_size=3),
    radius=st.floats(0.0, 4.0),
    ops=operations,
)
def test_the_vector_screen_counts_as_the_loop(seed, n, ks, radius, ops):
    rng = np.random.default_rng(seed)

    def cell():  # a coarse grid, so distances tie
        return rng.integers(0, 3, size=2) * 1.5

    objects = [
        make_fuzzy_object(rng, n_points=8, center=cell(), spread=0.5, object_id=i)
        for i in range(n)
    ]
    db = FuzzyDatabase.build(objects, config=RuntimeConfig(rtree_max_entries=4))
    engine = attach(db)
    query = make_fuzzy_object(rng, n_points=8, center=[1.6, 1.4], spread=0.5)
    requests = [AknnRequest(query, k=min(k, n + 1), alpha=0.5) for k in ks]
    requests.append(RangeRequest(query, alpha=0.5, radius=radius))
    streams = [[] for _ in requests]
    subs = [engine.subscribe(r, s.append) for r, s in zip(requests, streams)]
    live, next_id = list(range(n)), 1000
    for kind, draw in ops:
        if kind == "delete":
            if live:
                db.delete(live.pop(draw % len(live)))
        else:
            worst = [
                max(s.members.items(), key=lambda m: (m[1], m[0])) for s in subs[:-1] if s.members
            ]
            if kind == "worst_twin" and worst:
                # A second member at some subscription's worst distance: a
                # near-tie the larger id loses.
                original = db.get_object(worst[draw % len(worst)][0])
                obj = FuzzyObject(original.points, original.memberships, object_id=next_id)
            elif kind in ("twin", "worst_twin") and live:
                original = db.get_object(live[draw % len(live)])
                obj = FuzzyObject(original.points, original.memberships, object_id=next_id)
            else:
                center = cell() + (500.0 if kind == "far" else 0.0)
                obj = make_fuzzy_object(
                    rng, n_points=8, center=center, spread=0.5, object_id=next_id
                )
            want = reference_screen(subs, obj)
            names = (MetricsCollector.SUB_SCREENED_OUT, MetricsCollector.SUB_EVALUATIONS)
            before = [engine.metrics.get(name) for name in names]
            db.insert(obj)
            got = tuple(engine.metrics.get(n) - b for n, b in zip(names, before))
            assert got == want, (kind, got, want)
            live.append(next_id)
            next_id += 1
        for sub, stream in zip(subs, streams):
            members = fold(stream)
            assert members == sub.members
            assert_same_answer(sub, members, db)
            if sub.is_aknn:
                # The kept ranking is the members' (distance, id) order, so its
                # last pair is the worst: the larger id among equal distances.
                assert sub.ranked == sorted((d, i) for i, d in members.items())
    db.close()
