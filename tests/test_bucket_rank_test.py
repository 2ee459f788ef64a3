"""The AKNN bucket's rank test under ties: a generated property.

A bucket of many confirms neighbours from their bounds all at once
(:func:`repro.core.executor.rank_test`), so its count of objects that may
rank before a candidate is ``#{j != c : L_j <= U_c}``, not the single
search's strict ``<``.  The data here is built to make that difference
show: points on a half-unit grid (exact distance ties everywhere), some
nudged by one ulp (near ties), objects whose alpha-cut is one point (so
``MinDist == MaxDist`` and both bounds equal the distance), exact twins
under another id, query objects that coincide with stored ones, and ``k``
up to ``n + 2``.

The bucket probes in two passes: the most promising undecided candidates
first, then, after a second rank test on their exact distances, whatever
is still undecided.  For every method, on one tree and on three shards,
each bucket answer must hold the reference's id set (ties at the k-th rank
broken by id), every probed distance must equal the reference's, and every
confirmed neighbour's ``[lower_bound, upper_bound]`` must contain its exact
distance.  The bucket's reads are checked too: no ``store.get`` repeats an
id, and the distinct objects read are among the one-pass probe set (the
first rank test's undecided candidates, every survivor under ``basic``).
"""

from unittest import mock

import numpy as np
from hypothesis import Phase, given, settings, strategies as st

from repro import reference
from repro.config import RuntimeConfig
from repro.core import executor as executor_module
from repro.core.aknn import AKNN_METHODS
from repro.core.database import FuzzyDatabase
from repro.core.requests import AknnRequest
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.service import ShardedDatabase
from repro.storage.object_store import ObjectStore

CONFIG = RuntimeConfig(rtree_max_entries=4, cache_capacity=8)


def nudged(value, ulps):
    """``value`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        value = np.nextafter(value, np.copysign(np.inf, ulps))
    return float(value)


@st.composite
def points(draw):
    """A half-unit grid point, each coordinate maybe one ulp off."""
    return [
        nudged(draw(st.integers(-3, 3)) * 0.5, draw(st.sampled_from([0, 0, 1, -1])))
        for _ in range(2)
    ]


@st.composite
def fuzzy_objects(draw):
    """One to four points; the first is the kernel.  At ``alpha = 0.5`` a
    0.4-membership point drops out and at ``alpha = 1.0`` every non-kernel
    one does, so one-point cuts are common."""
    extra = draw(st.lists(st.tuples(points(), st.sampled_from([0.4, 0.7, 1.0])), max_size=3))
    coords = [draw(points())] + [xy for xy, _ in extra]
    memberships = [1.0] + [mu for _, mu in extra]
    return FuzzyObject(np.array(coords), np.array(memberships))


@st.composite
def databases(draw):
    """Up to ten objects with ids 0.., then exact twins of some of them."""
    originals = draw(st.lists(fuzzy_objects(), min_size=1, max_size=10))
    objects = [obj.with_id(i) for i, obj in enumerate(originals)]
    twinned = draw(st.lists(st.sampled_from(range(len(objects))), max_size=3, unique=True))
    for i in twinned:
        twin = FuzzyObject(objects[i].points.copy(), objects[i].memberships.copy())
        objects.append(twin.with_id(len(objects)))
    return objects


class BucketLog:
    """One bucket's ``store.get`` ids, traversal survivors and one-pass
    probe set (the first rank test's undecided candidates, by id)."""

    def __init__(self):
        self.reads, self.survivors, self.one_pass, self.rows = [], set(), None, None

    def patches(self):
        log = self
        get, traversal = ObjectStore.get, executor_module.shared_traversal
        rows, rank_test = executor_module.BoundTable.rows, executor_module.rank_test

        def logged_get(store, object_id):
            log.reads.append(int(object_id))
            return get(store, object_id)

        def logged_traversal(*args, **kwargs):
            per_query = traversal(*args, **kwargs)
            for ids in per_query:
                log.survivors.update(ids.tolist())
            return per_query

        def logged_rows(table, object_ids):
            log.rows = object_ids  # every valid candidate, row-major
            return rows(table, object_ids)

        def logged_rank_test(lower, upper, valid, k, tau):
            confirmed, probe = rank_test(lower, upper, valid, k, tau)
            if log.one_pass is None:
                log.one_pass = set(log.rows[probe[valid]].tolist())
            return confirmed, probe

        return (
            mock.patch.object(ObjectStore, "get", logged_get),
            mock.patch.object(executor_module, "shared_traversal", logged_traversal),
            mock.patch.object(executor_module.BoundTable, "rows", logged_rows),
            mock.patch.object(executor_module, "rank_test", logged_rank_test),
        )

    def check(self, method):
        assert len(self.reads) == len(set(self.reads)), sorted(self.reads)
        one_pass = self.survivors if method == "basic" else self.one_pass or set()
        assert set(self.reads) <= one_pass, (sorted(self.reads), sorted(one_pass))


def run_bucket(engine, requests):
    log = BucketLog()
    get, traversal, rows, rank_test = log.patches()
    with get, traversal, rows, rank_test:
        results = engine.execute_batch(requests)
    log.check(requests[0].method)
    return results


def check(result, objects, query, k, alpha):
    exact = dict(reference.aknn(objects, query, len(objects), alpha))
    want = reference.aknn(objects, query, k, alpha)
    assert sorted(result.object_ids) == sorted(object_id for object_id, _ in want)
    for neighbor in result.neighbors:
        d_alpha = exact[neighbor.object_id]
        if neighbor.probed:
            assert neighbor.distance == d_alpha, (neighbor, d_alpha)
        else:
            assert neighbor.lower_bound <= d_alpha <= neighbor.upper_bound, (
                neighbor, d_alpha,
            )


@given(
    objects=databases(),
    stored_queries=st.lists(st.integers(0, 12), max_size=2),
    fresh_queries=st.lists(fuzzy_objects(), max_size=3),
    alpha=st.sampled_from([0.5, 1.0]),
    data=st.data(),
)
# No explain phase: on a failure it can crash inside hypothesis (6.155)
# before the shrunk example is printed.
@settings(
    max_examples=150, deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
def test_bucket_answers_survive_ties(objects, stored_queries, fresh_queries, alpha, data):
    queries = [objects[i % len(objects)] for i in stored_queries] + fresh_queries
    if len(queries) < 2:
        queries = queries + [objects[0]] * (2 - len(queries))
    k = data.draw(st.integers(1, len(objects) + 2), label="k")
    engines = (
        FuzzyDatabase.build(list(objects), config=CONFIG),
        ShardedDatabase.build(list(objects), n_shards=3, placement="space", config=CONFIG),
    )
    try:
        for engine in engines:
            for method in AKNN_METHODS:
                results = run_bucket(
                    engine, [AknnRequest(q, k=k, alpha=alpha, method=method) for q in queries]
                )
                for query, result in zip(queries, results):
                    check(result, objects, query, k, alpha)
                    if method in ("basic", "lb"):
                        assert all(n.probed for n in result.neighbors)
    finally:
        for engine in engines:
            engine.close()
