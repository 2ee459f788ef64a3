"""Tests for range search against the brute-force reference."""

import dataclasses
import time

import numpy as np
import pytest

from repro import reference
from repro.config import RuntimeConfig
from repro.core.database import FuzzyDatabase
from repro.core.range_search import AlphaRangeSearcher, collect_over_parts
from repro.core.executor import shared_traversal
from repro.core.query import PreparedQuery
from repro.core.requests import (
    AknnRequest,
    RangeRequest,
    ReverseRequest,
    SweepRequest,
    execute_plan,
)
from repro.datasets.builder import build_dataset
from repro.datasets.queries import generate_query_object
from repro.exceptions import DeadlineExceededError, InvalidQueryError
from repro.metrics.counters import MetricsCollector
from repro.service import FaultPlan, QueryService, ShardedDatabase
from tests.conftest import assert_range_answer, make_fuzzy_object, stored_objects


class TestCorrectness:
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    @pytest.mark.parametrize("radius", [0.0, 0.5, 1.5, 4.0])
    def test_matches_linear_scan(self, dense_database, dense_queries, alpha, radius):
        query = dense_queries[0]
        actual = dense_database.execute(RangeRequest(query, alpha=alpha, radius=radius))
        assert_range_answer(actual, stored_objects(dense_database), query, alpha, radius)

    def test_simple_bounds_variant_agrees(self, dense_database, dense_queries):
        query = dense_queries[1]
        searcher = AlphaRangeSearcher(dense_database.store, dense_database.tree)
        improved = searcher.search(query, 0.5, 2.0, use_improved_bounds=True)
        simple = searcher.search(query, 0.5, 2.0, use_improved_bounds=False)
        assert sorted(improved.object_ids) == sorted(simple.object_ids)

    def test_huge_radius_returns_everything(self, dense_database, dense_queries):
        result = dense_database.execute(
            RangeRequest(dense_queries[0], alpha=0.5, radius=1e6)
        )
        assert len(result) == len(dense_database)

    def test_negative_radius_rejected(self, dense_database, dense_queries):
        with pytest.raises(InvalidQueryError):
            dense_database.execute(
                RangeRequest(dense_queries[0], alpha=0.5, radius=-0.1)
            )

    def test_nan_radius_rejected_at_the_searcher(self, dense_database, dense_queries):
        query, nan = dense_queries[0], float("nan")
        with pytest.raises(InvalidQueryError):
            AlphaRangeSearcher(dense_database.store, dense_database.tree).search(
                query, 0.5, nan
            )
        one_part = lambda op, fn: [fn(dense_database)]  # noqa: E731
        with pytest.raises(InvalidQueryError):
            collect_over_parts(one_part, query, 0.5, nan, dense_database.config)
        # the sweep's unbounded radius stays legal: every object is a candidate
        found, _ = collect_over_parts(
            one_part, query, 0.5, float("inf"), dense_database.config
        )
        assert len(found) == len(dense_database)


class TestCollect:
    def test_collect_returns_probed_objects(self, dense_database, dense_queries):
        found, objects = collect_over_parts(
            lambda op, fn: [fn(dense_database)], dense_queries[0], 0.5, 2.0,
            dense_database.config,
        )
        assert found.matches
        assert set(objects.keys()) >= set(found.object_ids)
        for object_id in found.object_ids:
            assert objects[object_id].object_id == object_id

    def test_collect_reads_every_candidate(self, dense_database, dense_queries):
        """The sweep's profiles need every match: its collection reads each
        candidate whose lower bound survives the radius, a bound-confirmed
        match too, once."""
        query, alpha, radius = dense_queries[0], 0.5, 2.0
        before = dense_database.object_accesses
        found, objects = collect_over_parts(
            lambda op, fn: [fn(dense_database)], query, alpha, radius,
            dense_database.config,
        )
        reads = dense_database.object_accesses - before
        basic = AlphaRangeSearcher(dense_database.store, dense_database.tree).search(
            query, alpha, radius, use_improved_bounds=False
        )
        assert sorted(found.object_ids) == sorted(basic.object_ids)
        assert found.upper_bounds  # confirmed by bounds, read all the same
        assert set(objects) >= set(found.object_ids)
        prepared = PreparedQuery(query, alpha, dense_database.config)
        (candidates,) = shared_traversal(
            dense_database.tree, alpha, True, prepared.query_mbr.lower[None],
            prepared.query_mbr.upper[None], np.array([radius]), MetricsCollector(),
        )
        assert set(objects) == set(candidates.tolist())
        assert reads == len(candidates) == found.stats.object_accesses

    def test_matches_sorted_by_distance(self, dense_database, dense_queries):
        result = dense_database.execute(
            RangeRequest(dense_queries[0], alpha=0.5, radius=3.0)
        )
        assert result.upper_bounds  # some matches are bound-confirmed
        assert result.matches == sorted(result.matches, key=best_known(result))

    def test_stats(self, dense_database, dense_queries):
        dense_database.reset_statistics()
        result = dense_database.execute(
            RangeRequest(dense_queries[0], alpha=0.5, radius=1.0)
        )
        assert result.stats.range_calls == 1
        assert result.stats.object_accesses == dense_database.object_accesses
        assert result.stats.node_accesses >= 1

    def test_empty_tree(self):
        from repro.core.database import FuzzyDatabase
        from repro.fuzzy.fuzzy_object import FuzzyObject

        database = FuzzyDatabase.build([])
        result = database.execute(
            RangeRequest(FuzzyObject.single_point([0.0, 0.0]), alpha=0.5, radius=10.0)
        )
        assert len(result) == 0


# ----------------------------------------------------------------------
# A whole bucket: one descent and one probe pass per partition
# ----------------------------------------------------------------------
RADII = (0.0, 0.5, 1.5, 4.0)
ENGINES = [None, (1, "hash"), (1, "space"), (3, "hash"), (3, "space")]


@pytest.fixture(scope="module")
def bucket_objects():
    return build_dataset(
        kind="synthetic", n_objects=70, points_per_object=20, seed=8, space_size=8.0
    )


@pytest.fixture(scope="module")
def bucket_queries():
    rng = np.random.default_rng(808)
    return [
        generate_query_object(rng, kind="synthetic", space_size=8.0, points_per_object=20)
        for _ in range(len(RADII))
    ]


def best_known(result):
    """The sort key of a range answer: (best known distance, id)."""
    return lambda m: (result.upper_bounds[m[0]] if m[1] is None else m[1], m[0])


def mixed_bucket(queries):
    """One bucket: four radii, a duplicate request, a query nothing is near."""
    far = make_fuzzy_object(np.random.default_rng(3), center=[500.0, 500.0])
    requests = [RangeRequest(q, alpha=0.5, radius=r) for q, r in zip(queries, RADII)]
    return requests + [requests[2], RangeRequest(far, alpha=0.5, radius=4.0)]


def build_engine(objects, shape):
    config = RuntimeConfig(rtree_max_entries=8)
    if shape is None:
        return FuzzyDatabase.build(list(objects), config=config)
    n_shards, placement = shape
    return ShardedDatabase.build(
        list(objects), n_shards=n_shards, placement=placement, config=config
    )


def engine_objects(engine):
    if isinstance(engine, ShardedDatabase):
        return [obj for shard in engine._shards for obj in stored_objects(shard.db)]
    return stored_objects(engine)


def assert_bucket_answers(engine, requests):
    """One plan group, answered as the reference answers each request."""
    objects = engine_objects(engine)
    groups = engine.metrics.get("plan_groups")
    results = engine.execute_batch(requests)
    assert engine.metrics.get("plan_groups") - groups == 1
    for request, result in zip(requests, results):
        assert_range_answer(
            result, objects, request.query, request.alpha, request.radius
        )
        assert result.matches == sorted(result.matches, key=best_known(result))
        assert result.stats.range_calls == 1
    assert results[-1].matches == [] and results[3].matches
    assert results[4].matches == results[2].matches  # the duplicate
    # each object was read once however many queries probed it
    shared = results[0].stats.extra
    assert all(r.stats.extra["bucket_object_accesses"] == shared["bucket_object_accesses"]
               for r in results)
    assert shared["bucket_object_accesses"] <= len(objects)
    assert shared["bucket_distance_evaluations"] == sum(
        r.stats.distance_evaluations for r in results
    )
    assert shared["bucket_distance_evaluations"] > shared["bucket_object_accesses"]


class TestRangeBucket:
    @pytest.mark.parametrize(
        "shape", ENGINES, ids=["single", "1-hash", "1-space", "3-hash", "3-space"]
    )
    def test_one_bucket_matches_the_reference_before_and_after_churn(
        self, bucket_objects, bucket_queries, shape
    ):
        engine = build_engine(bucket_objects, shape)
        requests = mixed_bucket(bucket_queries)
        try:
            assert_bucket_answers(engine, requests)
            rng = np.random.default_rng(21)
            for _ in range(8):
                engine.insert(make_fuzzy_object(rng, n_points=20, center=rng.random(2) * 8.0))
            for object_id in engine.object_ids()[::9]:
                engine.delete(object_id)
            assert_bucket_answers(engine, requests)
        finally:
            engine.close()

    def test_a_sharded_bucket_is_one_fan_out(self, bucket_objects, bucket_queries):
        sharded = build_engine(bucket_objects, (3, "hash"))
        try:
            results = sharded.execute_batch(mixed_bucket(bucket_queries))
            assert sharded.metrics.get("shard_fanouts") == 3
            for result in results:
                assert result.coverage.complete
                assert result.stats.extra["shard_fanouts"] == 3.0
        finally:
            sharded.close()

    def test_the_service_coalesces_every_radius_into_one_group(
        self, bucket_objects, bucket_queries
    ):
        sharded = build_engine(bucket_objects, (3, "hash"))
        requests = mixed_bucket(bucket_queries)
        try:
            direct = sharded.execute_batch(requests)
            sharded.metrics.reset()
            with QueryService(sharded, window_ms=60.0, max_batch=64) as service:
                results = service.execute_batch(requests)
                stats = service.stats()
            assert stats.batches_flushed == 1
            assert sharded.metrics.get("plan_groups") == 1
            assert [r.matches for r in results] == [r.matches for r in direct]
        finally:
            sharded.close()

    def test_a_deadline_expiring_mid_bucket_fails_every_slot(
        self, bucket_objects, bucket_queries
    ):
        requests = [
            dataclasses.replace(r, deadline_ms=40.0) for r in mixed_bucket(bucket_queries)
        ]
        sharded = build_engine(bucket_objects, (2, "hash"))
        single = build_engine(bucket_objects, None)
        try:
            plan = FaultPlan.parse(
                "shard=0,op=range,kind=delay,delay_ms=120;"
                "shard=1,op=range,kind=delay,delay_ms=0"
            )
            sharded.fault_plan = plan
            answers = execute_plan(sharded, requests, on_error="return")
            assert all(isinstance(a, DeadlineExceededError) for a in answers)
            assert plan.fired == [1, 0]  # the bucket stopped at shard 0

            get = single.store.get
            stalled = []

            def first_read_stalls(object_id):
                if not stalled:
                    stalled.append(object_id)
                    time.sleep(0.12)
                return get(object_id)

            single.store.get = first_read_stalls
            answers = execute_plan(single, requests, on_error="return")
            assert stalled
            assert all(isinstance(a, DeadlineExceededError) for a in answers)
        finally:
            sharded.close()
            single.close()


# Reads of one mixed bucket per family on the objects above.  Range read 59
# before range buckets confirmed matches from their upper bounds, the sweep
# 17 before it decided from the bounds at its range's two ends, and reverse
# 18 before its verification counted over bounds.  AKNN never moved.
FAMILY_READS = {"sweep": 8, "reverse": 6, "aknn": 19}
PROBE_ALL_RANGE_READS = 59


@pytest.mark.parametrize("shape", [None, (3, "space")], ids=["single", "3-space"])
def test_only_range_reads_move_in_a_mixed_batch(bucket_objects, shape):
    rng = np.random.default_rng(808)
    queries = [
        generate_query_object(rng, kind="synthetic", space_size=8.0, points_per_object=20)
        for _ in range(8)
    ]
    requests = [RangeRequest(q, alpha=0.5, radius=r) for q, r in zip(queries, RADII[1:])]
    requests += [SweepRequest(q, k=3, alpha_range=(0.3, 0.7)) for q in queries[3:5]]
    requests += [ReverseRequest(q, k=2, alpha=0.5) for q in queries[5:7]]
    requests += [AknnRequest(q, k=4, alpha=0.5) for q in queries[:3]]
    engine = build_engine(bucket_objects, shape)
    reads = {}

    def counted(family, execute):
        def run(*args, **kwargs):
            before = engine.object_accesses
            answers = execute(*args, **kwargs)
            reads[family] = reads.get(family, 0) + engine.object_accesses - before
            return answers
        return run

    try:
        for family in ("aknn", "range", "sweep", "reverse"):
            name = f"_execute_{family}_bucket"
            setattr(engine, name, counted(family, getattr(engine, name)))
        engine.execute_batch(requests)
        assert {f: n for f, n in reads.items() if f != "range"} == FAMILY_READS
        assert reads["range"] < PROBE_ALL_RANGE_READS
    finally:
        engine.close()
