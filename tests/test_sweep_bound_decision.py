"""The RSS-ICR sweep decides from the bounds at its range's two ends: a
generated property.

alpha-cuts nest, so ``d-_{alpha_start} <= d_alpha <= d+_{alpha_end}`` for
every alpha in the range, and one rank test on those bounds confirms
whole-range members and drops objects that cannot rank, with no read
(:meth:`repro.core.rknn.RKNNSearcher._search_decided` states the rules).
The data reuses the AKNN rank-test property's objects (half-unit grid
points, some one ulp off, one-point cuts, exact twins, stored objects used
as queries).  Range ends sit on the memberships' levels (the critical
probabilities of Definition 7), between them and one ulp off them;
``alpha_start == alpha_end`` is drawn on purpose, and ``k`` runs up to
``n + 2``, so ties at the k-th rank and ``k >= n`` both occur.

On one tree and on three space shards, for ``lb_lp`` and ``lb_lp_ub``,
every answer must match :func:`repro.reference.sweep` interval for
interval; inside one sweep no ``store.get`` repeats an id, and every id
read is one the first rank test left undecided.  The generated data
rarely holds an object whose distance grows inside the range enough to
lose its place, so two fixed sweeps pin that shape: a bound taken at the
wrong end of the range fails them.
"""

from unittest import mock

import numpy as np
from hypothesis import Phase, given, settings, strategies as st

from repro import reference
from repro.core import executor as executor_module
from repro.core import rknn as rknn_module
from repro.core.database import FuzzyDatabase
from repro.core.requests import SweepRequest
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.service import ShardedDatabase
from repro.storage.object_store import ObjectStore
from tests.conftest import assert_same_assignments
from tests.test_bucket_rank_test import CONFIG, databases, fuzzy_objects, nudged

# The objects' membership levels are 0.4, 0.7 and 1.0.
LEVELS = (0.4, 0.7, 1.0)
ENDS = sorted(
    {0.25, 0.55, 0.85}
    | {nudged(level, ulps) for level in LEVELS for ulps in (-1, 0, 1) if level + ulps < 1.0}
    | {1.0}
)


@st.composite
def alpha_ranges(draw):
    start = draw(st.sampled_from(ENDS))
    if draw(st.booleans()):
        return start, start
    return start, draw(st.sampled_from([end for end in ENDS if end >= start]))


class SweepLog:
    """One sweep's ``store.get`` ids and its first rank test's undecided ids."""

    def __init__(self):
        self.reads, self.survivors, self.undecided = [], [], None

    def run(self, answer):
        log = self
        get = ObjectStore.get
        traversal, rank_test = rknn_module.shared_traversal, executor_module.rank_test

        def logged_get(store, object_id):
            log.reads.append(int(object_id))
            return get(store, object_id)

        def logged_traversal(*args, **kwargs):
            hits = traversal(*args, **kwargs)
            log.survivors.extend(hits[1].tolist())  # parts in fan-out order
            return hits

        def logged_rank_test(lower, upper, valid, k, tau):
            confirmed, probe = rank_test(lower, upper, valid, k, tau)
            if log.undecided is None:
                log.undecided = set(np.asarray(log.survivors)[probe[0]].tolist())
            return confirmed, probe

        with mock.patch.object(ObjectStore, "get", logged_get), mock.patch.object(
            rknn_module, "shared_traversal", logged_traversal
        ), mock.patch.object(executor_module, "rank_test", logged_rank_test):
            result = answer()
        assert len(self.reads) == len(set(self.reads)), sorted(self.reads)
        assert set(self.reads) <= (self.undecided or set()), (
            sorted(self.reads), sorted(self.undecided or ()),
        )
        return result


@given(
    objects=databases(),
    stored_query=st.one_of(st.none(), st.integers(0, 12)),
    fresh_query=fuzzy_objects(),
    alpha_range=alpha_ranges(),
    aknn_method=st.sampled_from(["lb_lp", "lb_lp_ub"]),
    data=st.data(),
)
# No explain phase: on a failure it can crash inside hypothesis (6.155)
# before the shrunk example is printed.
@settings(
    max_examples=150, deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
def test_sweeps_read_only_what_the_end_bounds_leave_undecided(
    objects, stored_query, fresh_query, alpha_range, aknn_method, data
):
    query = fresh_query if stored_query is None else objects[stored_query % len(objects)]
    k = data.draw(st.integers(1, len(objects) + 2), label="k")
    truth = reference.sweep(objects, query, k, alpha_range)
    engines = (
        FuzzyDatabase.build(list(objects), config=CONFIG),
        ShardedDatabase.build(list(objects), n_shards=3, placement="space", config=CONFIG),
    )
    try:
        for engine in engines:
            request = SweepRequest(
                query, k=k, alpha_range=alpha_range, method="rss_icr",
                aknn_method=aknn_method,
            )
            result = SweepLog().run(lambda: engine.execute(request))
            assert_same_assignments(result.assignments, truth)
    finally:
        for engine in engines:
            engine.close()


def test_a_start_only_neighbour_is_not_confirmed_for_the_whole_range():
    """Two sweeps whose nearest object at ``alpha_start`` loses its place
    inside the range (k = 1, range (0.3, 0.7), a 0.4-membership point gives
    way): once on the stored side (A's own point), once on the query side
    (the query's point next to A).  A bound taken at ``alpha_start`` where
    one at ``alpha_end`` belongs would confirm A on the whole range."""
    kernel = np.array([1.0])
    cases = [
        (
            [
                FuzzyObject(np.array([[3.0, 0.0], [0.5, 0.0]]), np.array([1.0, 0.4])),
                FuzzyObject(np.array([[1.0, 0.0]]), kernel),
                FuzzyObject(np.array([[2.0, 0.0]]), kernel),
            ],
            FuzzyObject(np.array([[0.0, 0.0]]), kernel),
        ),
        (
            [
                FuzzyObject(np.array([[3.0, 0.0]]), kernel),
                FuzzyObject(np.array([[-1.0, 0.0]]), kernel),
            ],
            FuzzyObject(np.array([[0.0, 0.0], [3.0, 0.5]]), np.array([1.0, 0.4])),
        ),
    ]
    for stored, query in cases:
        objects = [obj.with_id(i) for i, obj in enumerate(stored)]
        truth = reference.sweep(objects, query, 1, (0.3, 0.7))
        assert sorted(truth) == [0, 1]
        engines = (
            FuzzyDatabase.build(list(objects), config=CONFIG),
            ShardedDatabase.build(list(objects), n_shards=3, placement="space", config=CONFIG),
        )
        try:
            for engine in engines:
                for aknn_method in ("lb_lp", "lb_lp_ub"):
                    request = SweepRequest(
                        FuzzyObject(query.points, query.memberships), k=1,
                        alpha_range=(0.3, 0.7), aknn_method=aknn_method,
                    )
                    result = SweepLog().run(lambda: engine.execute(request))
                    assert_same_assignments(result.assignments, truth)
        finally:
            for engine in engines:
                engine.close()
