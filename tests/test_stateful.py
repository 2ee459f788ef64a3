"""Both engines as state machines: live writes interleaved with every bucket.

The model is a dict of id -> object, and :mod:`repro.reference` answers every
query over it.  The same rules run against one ``FuzzyDatabase``, a one-shard
hash-placed ``ShardedDatabase`` and a three-shard space-placed one: inserts
with an automatic id, with an explicit id at or above the id watermark and
(rejected) below it, deletes of live and of missing ids, AKNN buckets of one
and of three for every method and of two to six for a drawn one, with ``k``
up to ``n + 2``, range buckets of two radii and reverse buckets of two to
six.  Objects sit on a coarse grid and may be exact twins, so distance ties (at the k-th rank too) are common.

After every step: AKNN ids equal the reference up to ties at the k-th
distance, a probed distance equals ``d_alpha`` and an unprobed neighbour's
bounds bracket it; range ids and distances equal the reference; a reverse
answer holds the reference's ids and probed distances, and ``d_alpha <= U``
for every member confirmed without a read; ``validate()`` passes, the
engine holds exactly the model's ids, and no id was ever handed out twice.  The budget is fixed in the settings
below.
"""

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro import reference
from repro.config import RuntimeConfig
from repro.core.aknn import AKNN_METHODS
from repro.core.database import FuzzyDatabase
from repro.core.requests import AknnRequest, RangeRequest, ReverseRequest
from repro.exceptions import ObjectNotFoundError, StorageError
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.service import ShardedDatabase

from tests.conftest import assert_reverse_answer, make_fuzzy_object

CONFIG = RuntimeConfig(rtree_max_entries=4, cache_capacity=8)
ALPHAS = (0.25, 0.5, 0.75, 1.0)
# Two computations of one distance (the engine's kernel, the reference's)
# may differ in the last bits; this is how far apart they may be.
REL = 1e-9


def close(a, b):
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


@st.composite
def stored_objects(draw):
    """Eight points around a cell of a 4 x 4 grid (pitch 1.5)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    cell = np.array(draw(st.tuples(st.integers(0, 3), st.integers(0, 3))))
    return make_fuzzy_object(rng, n_points=8, center=cell * 1.5, spread=0.6)


@st.composite
def query_objects(draw):
    """Off the grid, so a query never coincides with a stored object."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    cell = np.array(draw(st.tuples(st.integers(0, 3), st.integers(0, 3))))
    return make_fuzzy_object(rng, n_points=8, center=cell * 1.5 + 0.37, spread=0.6)


def check_aknn(result, objects, query, k, alpha):
    ranked = reference.aknn(objects, query, max(len(objects), 1), alpha)
    truth = dict(ranked)
    want = min(k, len(ranked))
    got = [neighbor.object_id for neighbor in result.neighbors]
    assert len(got) == len(set(got)) == want, (got, ranked[:want])
    if not want:
        return
    kth = ranked[want - 1][1]
    for neighbor in result.neighbors:
        exact = truth[neighbor.object_id]
        # nothing beyond the k-th distance, ties at it go either way
        assert exact <= kth or close(exact, kth), (neighbor, kth)
        if neighbor.probed:
            assert close(neighbor.distance, exact), (neighbor, exact)
        else:
            assert neighbor.lower_bound <= exact or close(neighbor.lower_bound, exact)
            assert exact <= neighbor.upper_bound or close(exact, neighbor.upper_bound)
    for object_id, exact in ranked:
        if exact < kth and not close(exact, kth):
            assert object_id in got, (object_id, exact, kth, got)


def check_range(result, objects, query, alpha, radius):
    truth = dict(reference.range_search(objects, query, alpha, np.inf))
    got = dict(result.matches)
    assert len(got) == len(result.matches)
    for object_id, exact in truth.items():
        if close(exact, radius):
            continue  # on the boundary: either answer is right
        assert (object_id in got) == (exact <= radius), (object_id, exact, radius)
    for object_id, distance in got.items():
        if distance is None:  # confirmed by its upper bound, never read
            bound = result.upper_bounds[object_id]
            assert truth[object_id] <= bound <= radius, (object_id, bound, radius)
        else:
            assert close(distance, truth[object_id]), (object_id, distance)


class EngineMachine(RuleBasedStateMachine):
    """One engine against the model; subclasses say which engine."""

    def build(self, objects):
        raise NotImplementedError

    def __init__(self):
        super().__init__()
        self.engine = None
        self.model = {}
        self.handed = set()
        self.watermark = 0

    @initialize(objects=st.lists(stored_objects(), max_size=6))
    def start(self, objects):
        objects = [obj.with_id(i) for i, obj in enumerate(objects)]
        self.engine = self.build(objects)
        self.model = {obj.object_id: obj for obj in objects}
        self.handed = set(self.model)
        self.watermark = len(objects)

    def teardown(self):
        if self.engine is not None:
            self.engine.close()

    def objects(self):
        return list(self.model.values())

    def admit(self, object_id, obj):
        assert object_id not in self.handed, f"id {object_id} handed out twice"
        self.handed.add(object_id)
        self.model[object_id] = obj.with_id(object_id)
        self.watermark = object_id + 1

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    @rule(obj=stored_objects())
    def insert_auto(self, obj):
        object_id = self.engine.insert(obj)
        assert object_id == self.watermark
        self.admit(object_id, obj)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def insert_twin(self, data):
        """A copy of a stored object under a new id: every distance ties."""
        original = self.model[data.draw(st.sampled_from(sorted(self.model)))]
        twin = FuzzyObject(original.points.copy(), original.memberships.copy())
        self.admit(self.engine.insert(twin), twin)

    @rule(obj=stored_objects(), gap=st.integers(0, 3))
    def insert_explicit(self, obj, gap):
        object_id = self.watermark + gap
        assert self.engine.insert(obj.with_id(object_id)) == object_id
        self.admit(object_id, obj)

    @precondition(lambda self: self.watermark > 0)
    @rule(obj=stored_objects(), data=st.data())
    def insert_below_watermark(self, obj, data):
        object_id = data.draw(st.integers(0, self.watermark - 1))
        with pytest.raises(StorageError):
            self.engine.insert(obj.with_id(object_id))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        object_id = data.draw(st.sampled_from(sorted(self.model)))
        self.engine.delete(object_id)
        del self.model[object_id]

    @rule(data=st.data())
    def delete_missing(self, data):
        gone = set(range(self.watermark + 4)).difference(self.model)
        object_id = data.draw(st.sampled_from(sorted(gone)))
        with pytest.raises(ObjectNotFoundError):
            self.engine.delete(object_id)

    # ------------------------------------------------------------------
    # Buckets
    # ------------------------------------------------------------------
    @rule(
        queries=st.lists(query_objects(), min_size=1, max_size=3).filter(
            lambda queries: len(queries) != 2
        ),
        alpha=st.sampled_from(ALPHAS),
        data=st.data(),
    )
    def aknn_bucket(self, queries, alpha, data):
        k = data.draw(st.integers(1, len(self.model) + 2), label="k")
        for method in AKNN_METHODS:
            results = self.engine.execute_batch(
                [AknnRequest(q, k=k, alpha=alpha, method=method) for q in queries]
            )
            for query, result in zip(queries, results):
                check_aknn(result, self.objects(), query, k, alpha)

    @rule(
        queries=st.lists(query_objects(), min_size=2, max_size=6),
        alpha=st.sampled_from(ALPHAS),
        method=st.sampled_from(AKNN_METHODS),
        data=st.data(),
    )
    def aknn_bucket_of_many(self, queries, alpha, method, data):
        """The lazy bucket pass: its bound table must follow every write."""
        k = data.draw(st.integers(1, len(self.model) + 2), label="k")
        results = self.engine.execute_batch(
            [AknnRequest(q, k=k, alpha=alpha, method=method) for q in queries]
        )
        for query, result in zip(queries, results):
            check_aknn(result, self.objects(), query, k, alpha)
            if method in ("basic", "lb"):
                assert all(neighbor.probed for neighbor in result.neighbors)

    @rule(
        queries=st.lists(query_objects(), min_size=2, max_size=2),
        radii=st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 6.0)),
        alpha=st.sampled_from(ALPHAS),
    )
    def range_bucket(self, queries, radii, alpha):
        results = self.engine.execute_batch(
            [RangeRequest(q, alpha=alpha, radius=r) for q, r in zip(queries, radii)]
        )
        for query, radius, result in zip(queries, radii, results):
            check_range(result, self.objects(), query, alpha, radius)

    @rule(
        queries=st.lists(query_objects(), min_size=2, max_size=6),
        k=st.integers(1, 4),
        alpha=st.sampled_from(ALPHAS),
    )
    def reverse_bucket(self, queries, k, alpha):
        """Counts over bounds: the candidates and neighbours read follow
        every write through the filter table and the traversal."""
        results = self.engine.execute_batch(
            [ReverseRequest(q, k=k, alpha=alpha) for q in queries]
        )
        for query, result in zip(queries, results):
            assert_reverse_answer(result, self.objects(), query, k, alpha)

    # ------------------------------------------------------------------
    # After every step
    # ------------------------------------------------------------------
    @invariant()
    def holds_the_model(self):
        self.engine.validate()
        assert len(self.engine) == len(self.model)
        assert sorted(self.engine.object_ids()) == sorted(self.model)


class OneTree(EngineMachine):
    def build(self, objects):
        return FuzzyDatabase.build(objects, config=CONFIG)


class OneShard(EngineMachine):
    def build(self, objects):
        return ShardedDatabase.build(objects, n_shards=1, placement="hash", config=CONFIG)


class ThreeSpaceShards(EngineMachine):
    def build(self, objects):
        return ShardedDatabase.build(objects, n_shards=3, placement="space", config=CONFIG)


BUDGET = settings(max_examples=120, stateful_step_count=30, deadline=None)

TestOneTree = OneTree.TestCase
TestOneTree.settings = BUDGET
TestOneShard = OneShard.TestCase
TestOneShard.settings = BUDGET
TestThreeSpaceShards = ThreeSpaceShards.TestCase
TestThreeSpaceShards.settings = BUDGET
