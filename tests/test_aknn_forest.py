"""One best-first search over every part: the forest AKNN as a property.

A sharded singleton AKNN seeds one frontier with every non-empty shard's
root and reads each object from the shard whose leaf held it.  Hypothesis
draws the partition set -- one to four parts, empty parts, hash or space
placement, exact twins under other ids -- every method, and ``k`` up to
beyond the object count.  Whatever it draws, the answer is checked against
:mod:`repro.reference`:

* the ids are the reference's k nearest, up to ties at the k-th distance;
* every neighbour's bounds bracket its alpha-distance, and a probed
  neighbour's distance is that alpha-distance;
* when shard 2's store fails its reads, the pass reruns on the survivors: an
  answer whose coverage names shard 2 is the survivors' answer, and one that
  does not never read shard 2.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro import reference
from repro.config import RuntimeConfig
from repro.core.aknn import AKNN_METHODS
from repro.core.database import FuzzyDatabase
from repro.core.requests import AknnRequest
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.service import ShardedDatabase

from tests.conftest import make_fuzzy_object

FAILING = 2
CONFIG = RuntimeConfig(rtree_max_entries=4, cache_capacity=8)
TOL = 1e-9


def make_objects(seed, n_objects, n_twins):
    """``n_objects`` overlapping objects, then exact twins of the first ones."""
    rng = np.random.default_rng(seed)
    objects = [
        make_fuzzy_object(rng, n_points=8, center=rng.random(2) * 4.0, spread=0.6,
                          object_id=i)
        for i in range(n_objects)
    ]
    twins = [
        FuzzyObject(obj.points.copy(), obj.memberships.copy(), object_id=100 + i)
        for i, obj in enumerate(objects[:n_twins])
    ]
    query = make_fuzzy_object(rng, n_points=10, center=rng.random(2) * 4.0, spread=0.6)
    return objects + twins, query


def close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def assert_answers(result, objects, query, k, alpha):
    """``result`` is a k-nearest answer over ``objects`` (ties at the k-th free)."""
    if not objects:  # every object lived on the failed shard
        assert result.neighbors == []
        return
    exact = dict(reference.aknn(objects, query, len(objects), alpha))
    ranked = sorted(exact.values())
    got = result.object_ids
    assert len(got) == len(set(got)) == min(k, len(objects))
    kth = ranked[len(got) - 1]
    for object_id, distance in exact.items():
        if distance < kth and not close(distance, kth):
            assert object_id in got, (object_id, distance, kth)
    for neighbor in result.neighbors:
        d_alpha = exact[neighbor.object_id]
        assert d_alpha <= kth or close(d_alpha, kth), (neighbor, kth)
        assert neighbor.lower_bound <= d_alpha or close(neighbor.lower_bound, d_alpha)
        assert d_alpha <= neighbor.upper_bound or close(neighbor.upper_bound, d_alpha)
        if neighbor.probed:
            assert close(neighbor.distance, d_alpha), (neighbor, d_alpha)
        else:
            assert neighbor.distance is None


def break_store(database, index):
    """Make shard ``index``'s reads fail; returns the list its attempts go to."""
    attempts = []

    def disk_gone(object_id):
        attempts.append(object_id)
        raise OSError("disk gone")

    database._shards[index].db.store.get = disk_gone
    return attempts


@st.composite
def forest_cases(draw):
    n_objects = draw(st.integers(1, 14))
    n_parts = draw(st.integers(1, 4))
    objects, query = make_objects(
        draw(st.integers(0, 2**32 - 1)), n_objects, draw(st.integers(0, min(3, n_objects)))
    )
    return dict(
        objects=objects,
        query=query,
        n_parts=n_parts,
        placement=draw(st.sampled_from(("hash", "space"))),
        method=draw(st.sampled_from(AKNN_METHODS)),
        k=draw(st.integers(1, len(objects) + 3)),
        alpha=draw(st.sampled_from((0.2, 0.5, 0.9, 1.0))),
        fail=n_parts > FAILING and draw(st.booleans()),
    )


@settings(max_examples=100, deadline=None)
@given(case=forest_cases())
def test_forest_search_answers_like_the_reference(case):
    objects, query, k, alpha = case["objects"], case["query"], case["k"], case["alpha"]
    database = ShardedDatabase.build(
        objects, n_shards=case["n_parts"], placement=case["placement"],
        config=CONFIG, rng=np.random.default_rng(0),
    )
    try:
        lost = {
            obj.object_id for obj in database._shards[FAILING].db.store.iter_objects(
                count_accesses=False
            )
        } if case["fail"] else set()
        attempts = break_store(database, FAILING) if case["fail"] else []
        result = database.execute(
            AknnRequest(query, k=k, alpha=alpha, method=case["method"])
        )
        event(f"empty parts: {database.shard_sizes().count(0)}")
        event(f"shard {FAILING} failed: {FAILING in result.coverage.failed}")
        event(f"unprobed neighbours: {any(not n.probed for n in result.neighbors)}")
        if FAILING in result.coverage.failed:
            assert attempts
            survivors = [obj for obj in objects if obj.object_id not in lost]
            assert_answers(result, survivors, query, k, alpha)
        else:
            assert not attempts and result.coverage.complete
            assert_answers(result, objects, query, k, alpha)
        if len(result.coverage.answered) > 1:
            shards = float(len(result.coverage.answered))
            assert result.stats.extra["shard_fanouts"] == shards
    finally:
        database.close()


@pytest.mark.parametrize("placement", ["hash", "space"])
def test_a_failed_read_mid_search_reruns_on_the_survivors(placement):
    """``basic`` at ``k = n`` reads every object, so shard 2 is read mid-search."""
    objects, query = make_objects(11, 24, 0)
    database = ShardedDatabase.build(objects, n_shards=3, placement=placement, config=CONFIG)
    survivors = [
        obj
        for shard in database._shards
        if shard.index != FAILING
        for obj in shard.db.store.iter_objects(count_accesses=False)
    ]
    twin = FuzzyDatabase.build(survivors, config=CONFIG)
    try:
        attempts = break_store(database, FAILING)
        request = AknnRequest(query, k=len(objects), alpha=0.5, method="basic")
        got = database.execute(request)
        want = twin.execute(request)
        assert attempts, "shard 2 was never read: the failure was not mid-search"
        assert got.coverage.failed == (FAILING,)
        assert "disk gone" in dict(got.coverage.reasons)[FAILING]
        assert sorted(got.object_ids) == sorted(want.object_ids)
        got_distances = dict((n.object_id, n.distance) for n in got.neighbors)
        for neighbor in want.neighbors:
            assert got_distances[neighbor.object_id] == pytest.approx(
                neighbor.distance, rel=TOL
            )
        assert_answers(got, survivors, query, len(objects), 0.5)
    finally:
        database.close()
        twin.close()
