"""Range buckets confirm matches from their upper bounds: a generated property.

After the shared descent every range hit gets an upper bound ``U``
(``MaxDist`` against ``M_A(alpha)*``, tightened by Lemma 1 where
``MaxDist`` leaves it open); a hit with ``U`` within the radius
(:func:`repro.predicates.confirms`, no slack) is a match without a read, and
only the undecided hits are probed.  The data reuses the AKNN
rank-test property's objects (half-unit grid points, some one ulp off,
one-point cuts, exact twins) and puts radii where a confirm test can slip:
0, every reference distance and every hit's ``U`` (``MaxDist`` alone and
tightened), each also one ulp either way; some queries are stored objects.

On one tree and on three space shards, each answer must hold the
reference's id set, every probed distance must equal the reference's, and
every confirmed match must have ``d_alpha <= U <= radius``.  Inside the
bucket every ``store.get`` reads an id that some query's bounds left
undecided (none that every query hitting it confirmed) and none repeats an
id.  The paper's basic range (``improved=False``) confirms nothing and
reads every traversal survivor.
"""

from unittest import mock

import numpy as np
from hypothesis import Phase, given, settings, strategies as st

from repro import reference
from repro.config import RuntimeConfig
from repro.core import range_search as range_module
from repro.core.database import FuzzyDatabase
from repro.core.executor import RepresentativeIndex
from repro.core.query import PreparedQuery
from repro.core.range_search import range_bucket
from repro.core.requests import RangeRequest
from repro.service import ShardedDatabase
from repro.storage.object_store import ObjectStore
from tests.test_bucket_rank_test import databases, fuzzy_objects, nudged

CONFIG = RuntimeConfig(rtree_max_entries=4, cache_capacity=8)


def edge_radii(objects, query, alpha):
    """0, every reference distance and every object's ``U`` (``MaxDist``
    alone and with Lemma 1), each exact and one ulp either way."""
    database = FuzzyDatabase.build(list(objects), config=CONFIG)
    try:
        index = RepresentativeIndex()
        table = index.bounds([database.tree], alpha)
        rows = np.arange(len(objects))[None]
        prepared = [PreparedQuery(query, alpha, CONFIG)]
        _, tight = table.bounds(prepared, rows)
        _, loose = table.bounds(prepared, rows, lemma1=False)
    finally:
        database.close()
    exact = [d for _, d in reference.range_search(objects, query, alpha, np.inf)]
    edges = exact + tight[0].tolist() + loose[0].tolist()
    nudges = {nudged(r, u) for r in edges for u in (-1, 0, 1)}
    return sorted({0.0} | {r for r in nudges if r >= 0.0})


class BucketLog:
    """A bucket's ``store.get`` ids and each query's traversal survivors."""

    def __init__(self, n_queries):
        self.reads, self.survivors = [], [set() for _ in range(n_queries)]

    def patches(self):
        log = self
        get, traversal = ObjectStore.get, range_module.shared_traversal

        def logged_get(store, object_id):
            log.reads.append(int(object_id))
            return get(store, object_id)

        def logged_traversal(*args, **kwargs):
            hits = traversal(*args, **kwargs)
            if kwargs.get("boxes"):  # flat: query index, id, boxes, reps, L
                for qi, object_id in zip(hits[0].tolist(), hits[1].tolist()):
                    log.survivors[qi].add(object_id)
            else:
                for seen, ids in zip(log.survivors, hits):
                    seen.update(ids.tolist())
            return hits

        return (
            mock.patch.object(ObjectStore, "get", logged_get),
            mock.patch.object(range_module, "shared_traversal", logged_traversal),
        )

    def run(self, answer):
        get, traversal = self.patches()
        with get, traversal:
            results = answer()
        assert len(self.reads) == len(set(self.reads)), sorted(self.reads)
        return results


def check(result, objects, query, alpha, radius):
    exact = dict(reference.range_search(objects, query, alpha, np.inf))
    want = reference.range_search(objects, query, alpha, radius)
    assert sorted(result.object_ids) == sorted(object_id for object_id, _ in want)
    for object_id, distance in result.matches:
        d_alpha = exact[object_id]
        if distance is None:
            bound = result.upper_bounds[object_id]
            assert d_alpha <= bound <= radius, (object_id, d_alpha, bound, radius)
        else:
            assert distance == d_alpha, (object_id, distance, d_alpha)


@given(
    objects=databases(),
    stored_queries=st.lists(st.integers(0, 12), max_size=2),
    fresh_queries=st.lists(fuzzy_objects(), max_size=2),
    alpha=st.sampled_from([0.5, 1.0]),
    data=st.data(),
)
# No explain phase: on a failure it can crash inside hypothesis (6.155)
# before the shrunk example is printed.
@settings(
    max_examples=150, deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
def test_range_buckets_confirm_only_what_their_bounds_settle(
    objects, stored_queries, fresh_queries, alpha, data
):
    queries = [objects[i % len(objects)] for i in stored_queries] + fresh_queries
    if not queries:
        queries = [objects[0]]
    radii = [
        data.draw(st.sampled_from(edge_radii(objects, query, alpha)), label="radius")
        for query in queries
    ]
    engines = (
        FuzzyDatabase.build(list(objects), config=CONFIG),
        ShardedDatabase.build(list(objects), n_shards=3, placement="space", config=CONFIG),
    )
    try:
        for engine in engines:
            requests = [RangeRequest(q, alpha=alpha, radius=r) for q, r in zip(queries, radii)]
            log = BucketLog(len(queries))
            results = log.run(lambda: engine.execute_batch(requests))
            undecided = set()
            for query, radius, result, hits in zip(queries, radii, results, log.survivors):
                check(result, objects, query, alpha, radius)
                undecided |= hits - set(result.upper_bounds)
            assert set(log.reads) <= undecided, (sorted(log.reads), sorted(undecided))

            sharded = isinstance(engine, ShardedDatabase)
            parts = [shard.db for shard in engine._shards] if sharded else [engine]
            local, merge = range_bucket(queries, alpha, radii, CONFIG, improved=False)
            log = BucketLog(len(queries))
            results = log.run(lambda: merge([local(part) for part in parts]))
            assert set(log.reads) == set().union(*log.survivors)
            for query, radius, result in zip(queries, radii, results):
                check(result, objects, query, alpha, radius)
                assert not result.upper_bounds
                assert all(distance is not None for _, distance in result.matches)
    finally:
        for engine in engines:
            engine.close()
