"""The unified query surface: typed requests and mixed-type batch plans.

Covers the acceptance criteria of the request-API redesign:

* a mixed-type ``execute_batch`` returns, per slot, what executing that
  request on its own returns, on every layer (single database, sharded
  database with live churn, coalescing service);
* a mixed-type submission shares traversals within each ``bucket_key()``
  group (verified through the ``plan_groups`` / ``plan_requests`` /
  ``batch_queries`` counters);
* the planner's table of bucket hooks is closed: an unknown request type
  and a hook that answers the wrong number of slots are rejected;
* lazy ``PreparedQuery.query_samples``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro import reference
from repro.config import RuntimeConfig
from repro.core.aknn import AKNNSearcher
from repro.core.database import FuzzyDatabase
from repro.core.query import PreparedQuery
from repro.core.requests import (
    AknnMethod,
    AknnRequest,
    QueryRequest,
    RangeRequest,
    ReverseRequest,
    SweepMethod,
    SweepRequest,
    execute_plan,
)
from repro.exceptions import InvalidQueryError
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.service.query_service import QueryService
from repro.service.sharded import ShardedDatabase
from tests.conftest import (
    assert_same_assignments,
    make_fuzzy_object,
    sorted_exact_distances,
    stored_objects,
)


# ----------------------------------------------------------------------
# Request dataclasses
# ----------------------------------------------------------------------
class TestRequestValidation:
    def query(self):
        return make_fuzzy_object(np.random.default_rng(0))

    def test_parameters_are_normalised(self):
        request = AknnRequest(self.query(), k=np.int64(7), alpha=np.float64(0.5))
        assert isinstance(request.k, int) and request.k == 7
        assert isinstance(request.alpha, float)
        assert request.method is AknnMethod.LB_LP_UB

    def test_method_strings_coerce_to_enums(self):
        query = self.query()
        assert AknnRequest(query, k=1, method="basic").method is AknnMethod.BASIC
        assert SweepRequest(query, k=1, method="rss").method is SweepMethod.RSS

    def test_invalid_parameters_raise(self):
        query = self.query()
        with pytest.raises(InvalidQueryError):
            AknnRequest(query, k=0, alpha=0.5)
        with pytest.raises(InvalidQueryError):
            AknnRequest(query, k=1, alpha=1.5)
        with pytest.raises(InvalidQueryError):
            AknnRequest(query, k=1, alpha=0.5, method="no_such_method")
        with pytest.raises(InvalidQueryError):
            RangeRequest(query, alpha=0.5, radius=-1.0)
        with pytest.raises(InvalidQueryError):
            RangeRequest(query, alpha=0.5, radius=float("nan"))
        with pytest.raises(InvalidQueryError):
            SweepRequest(query, k=2, alpha_range=(0.7, 0.3))
        with pytest.raises(InvalidQueryError):
            ReverseRequest(query, k=-1, alpha=0.5)

    def test_bucket_keys_group_compatible_requests(self):
        q1, q2 = self.query(), self.query()
        assert (
            AknnRequest(q1, k=5, alpha=0.5).bucket_key()
            == AknnRequest(q2, k=5, alpha=0.5, method="lb_lp_ub").bucket_key()
        )
        assert (
            AknnRequest(q1, k=5, alpha=0.5).bucket_key()
            != AknnRequest(q1, k=5, alpha=0.6).bucket_key()
        )
        # The method is part of the key: a per-request override lands in its
        # own bucket instead of silently riding the default engine.
        assert (
            AknnRequest(q1, k=3, alpha=0.5).bucket_key()
            != AknnRequest(q1, k=3, alpha=0.5, method="basic").bucket_key()
        )
        # Keys never contain the query object itself.
        assert all(
            not isinstance(part, FuzzyObject)
            for part in SweepRequest(q1, k=2, alpha_range=(0.4, 0.6)).bucket_key()
        )

    def test_requests_are_frozen(self):
        request = AknnRequest(self.query(), k=5, alpha=0.5)
        with pytest.raises(AttributeError):
            request.k = 9


# ----------------------------------------------------------------------
# Mixed-type plans on the single database
# ----------------------------------------------------------------------
class TestMixedBatchSingleDatabase:
    def test_mixed_submission_matches_per_type_paths(
        self, dense_database, dense_queries
    ):
        db = dense_database
        q0, q1, q2 = dense_queries
        requests = [
            AknnRequest(q0, k=5, alpha=0.5),
            ReverseRequest(q1, k=4, alpha=0.5),
            AknnRequest(q1, k=5, alpha=0.5),        # same bucket as request 0
            RangeRequest(q2, alpha=0.5, radius=2.0),
            SweepRequest(q0, k=3, alpha_range=(0.4, 0.6)),
            AknnRequest(q2, k=3, alpha=0.7),        # its own bucket
            ReverseRequest(q2, k=3, alpha=0.5),     # its own bucket
        ]
        results = db.execute_batch(requests)

        # Each slot equals the same request executed on its own (a bucket
        # of one: the single-query searcher / the looped engine).
        alone = [db.execute(request) for request in requests]

        # AKNN: compare exact-distance multisets (robust to k-th-rank ties
        # between the batch and single-query engines).
        for index in (0, 2, 5):
            request = requests[index]
            assert sorted_exact_distances(
                db, results[index], request.query, request.alpha
            ) == pytest.approx(
                sorted_exact_distances(db, alone[index], request.query, request.alpha)
            )

        assert results[1].object_ids == alone[1].object_ids
        assert results[1].distances == pytest.approx(alone[1].distances)
        assert results[3].object_ids == alone[3].object_ids
        assert_same_assignments(results[4].assignments, alone[4].assignments)
        assert results[6].object_ids == alone[6].object_ids
        assert results[6].k == 3

    def test_single_execute_matches_single_query_path_exactly(
        self, dense_database, dense_queries
    ):
        db = dense_database
        query = dense_queries[0]
        result = db.execute(AknnRequest(query, k=6, alpha=0.5))
        single = AKNNSearcher(db.store, db.tree, db.config).search(query, 6, 0.5)
        # A bucket of one runs the very same single-query searcher, so the
        # neighbour lists are identical, not merely tie-equivalent.
        assert [n.object_id for n in result.neighbors] == [
            n.object_id for n in single.neighbors
        ]

    def test_bucket_sharing_is_visible_in_the_counters(
        self, dense_database, dense_queries
    ):
        db = dense_database
        db.metrics.reset()
        requests = [
            AknnRequest(query, k=4, alpha=0.5) for query in dense_queries
        ] + [
            ReverseRequest(dense_queries[0], k=3, alpha=0.5),
            RangeRequest(dense_queries[1], alpha=0.5, radius=1.5),
        ]
        db.execute_batch(requests)
        counters = db.metrics.as_dict()
        # 5 requests collapsed into 3 per-type/per-bucket sub-batches, and
        # the whole AKNN bucket went through the shared batch engine.
        assert counters["plan_requests"] == 5
        assert counters["plan_groups"] == 3
        assert counters["batch_queries"] == len(dense_queries)
        assert counters["reverse_queries"] == 1

    def test_empty_submission(self, dense_database):
        assert dense_database.execute_batch([]) == []

    def test_non_request_input_raises(self, dense_database, dense_queries):
        with pytest.raises(InvalidQueryError):
            dense_database.execute_batch([dense_queries[0]])


# ----------------------------------------------------------------------
# Planner table
# ----------------------------------------------------------------------
class TestPlannerRegistry:
    """The four families' hooks are the whole table; the failure contract
    every one of them inherits on shards (retries, breaker shedding, partial
    ``Coverage``, ``require_full``) is checked per family in test_faults.py."""

    def test_unregistered_request_type_raises(self, dense_database):
        @dataclass(frozen=True)
        class OrphanRequest(QueryRequest):
            def bucket_key(self):
                return ("orphan",)

        query = make_fuzzy_object(np.random.default_rng(2))
        with pytest.raises(InvalidQueryError, match="no bucket hook for request type OrphanRequest"):
            execute_plan(dense_database, [OrphanRequest(query)])

    def test_planner_result_arity_is_checked(self, dense_database, monkeypatch):
        monkeypatch.setattr(
            dense_database, "_execute_range_bucket", lambda bucket, rng, deadline=None: []
        )
        query = make_fuzzy_object(np.random.default_rng(3))
        with pytest.raises(InvalidQueryError, match="returned 0 results for 1 requests"):
            dense_database.execute(RangeRequest(query, alpha=0.5, radius=1.0))


# ----------------------------------------------------------------------
# Sharded database: mixed plans under live churn
# ----------------------------------------------------------------------
class TestShardedMixedBatch:
    @pytest.mark.parametrize("placement", ["hash", "space"])
    def test_mixed_batch_parity_under_churn(self, placement):
        rng = np.random.default_rng(77)
        objects = [make_fuzzy_object(rng, object_id=i) for i in range(30)]
        config = RuntimeConfig(rtree_max_entries=8)
        sharded = ShardedDatabase.build(
            objects, n_shards=3, placement=placement, config=config
        )

        # Live churn: a few inserts and deletes before the mixed submission.
        for i in range(6):
            sharded.insert(make_fuzzy_object(rng, object_id=100 + i))
        for object_id in (2, 7, 102):
            sharded.delete(object_id)

        # Reference: an unsharded database over the surviving objects.
        survivors = [
            sharded.get_object(object_id) for object_id in sharded.object_ids()
        ]
        single = FuzzyDatabase.build(survivors, config=config)

        queries = [make_fuzzy_object(rng, center=[5.0, 5.0]) for _ in range(3)]
        requests = [
            AknnRequest(queries[0], k=5, alpha=0.5),
            AknnRequest(queries[1], k=5, alpha=0.5),
            ReverseRequest(queries[2], k=4, alpha=0.5),
            RangeRequest(queries[0], alpha=0.5, radius=3.0),
            SweepRequest(queries[1], k=3, alpha_range=(0.4, 0.6)),
        ]
        sharded_results = sharded.execute_batch(requests)
        single_results = single.execute_batch(requests)

        for index in (0, 1):
            assert sorted_exact_distances(
                single, sharded_results[index], requests[index].query, 0.5
            ) == pytest.approx(
                sorted_exact_distances(
                    single, single_results[index], requests[index].query, 0.5
                )
            )
        assert sharded_results[2].object_ids == single_results[2].object_ids
        assert sharded_results[3].object_ids == single_results[3].object_ids
        assert_same_assignments(
            sharded_results[4].assignments, single_results[4].assignments
        )
        sharded.close()
        single.close()


# ----------------------------------------------------------------------
# Query service: one generic coalescer over bucket keys
# ----------------------------------------------------------------------
class TestServiceMixedCoalescing:
    def _build(self, n_objects=24, n_shards=2):
        rng = np.random.default_rng(11)
        objects = [make_fuzzy_object(rng, object_id=i) for i in range(n_objects)]
        return ShardedDatabase.build(
            objects, n_shards=n_shards, config=RuntimeConfig(rtree_max_entries=8)
        )

    def test_mixed_submission_coalesces_and_matches_direct_execution(self):
        database = self._build()
        rng = np.random.default_rng(5)
        queries = [make_fuzzy_object(rng, center=[5.0, 5.0]) for _ in range(4)]
        requests = (
            [AknnRequest(query, k=4, alpha=0.5) for query in queries]
            + [ReverseRequest(query, k=3, alpha=0.5) for query in queries[:2]]
            + [RangeRequest(queries[0], alpha=0.5, radius=3.0)]
        )
        direct = database.execute_batch(requests)
        database.metrics.reset()
        with QueryService(database, window_ms=60.0, max_batch=64) as service:
            results = service.execute_batch(requests)
            stats = service.stats()

        for got, expected, request in zip(results, direct, requests):
            if isinstance(request, AknnRequest):
                assert sorted(got.object_ids) == sorted(expected.object_ids)
            else:
                assert got.object_ids == expected.object_ids
        # 7 requests flushed as 3 buckets (aknn / reverse / range): the
        # coalescer grouped them by bucket_key and each bucket shared its
        # engine pass, visible in both service and planner counters.
        assert stats.requests_completed == len(requests)
        assert stats.batches_flushed == 3
        counters = database.metrics.as_dict()
        assert counters["plan_groups"] == 3
        assert counters["plan_requests"] == len(requests)
        assert counters["batch_queries"] == 4
        database.close()

    def test_per_request_method_override_gets_its_own_bucket(self):
        database = self._build(n_objects=16, n_shards=1)
        rng = np.random.default_rng(6)
        query = make_fuzzy_object(rng, center=[5.0, 5.0])
        with QueryService(database, window_ms=40.0) as service:
            default_future = service.submit_request(
                AknnRequest(query, k=3, alpha=0.5)
            )
            basic_future = service.submit_request(
                AknnRequest(query, k=3, alpha=0.5, method="basic")
            )
            assert set(default_future.result(timeout=30).object_ids) == set(
                basic_future.result(timeout=30).object_ids
            )
            stats = service.stats()
        assert stats.batches_flushed == 2  # distinct bucket keys
        database.close()

    def test_partial_shed_withdraws_enqueued_requests(self):
        from repro.exceptions import ServiceOverloadedError

        database = self._build(n_objects=10, n_shards=1)
        rng = np.random.default_rng(7)
        requests = [
            AknnRequest(make_fuzzy_object(rng, center=[5.0, 5.0]), k=2, alpha=0.5)
            for _ in range(4)
        ]
        # A window long enough that nothing flushes during submission.
        service = QueryService(
            database, window_ms=5000.0, max_batch=64, queue_depth=2
        ).start()
        try:
            with pytest.raises(ServiceOverloadedError):
                service.execute_batch(requests)
            # The two admitted requests were withdrawn with the failed
            # submission: nothing stays queued for answers nobody can read.
            assert service.pending == 0
            assert service.stats().requests_shed == 3  # 1 rejected + 2 withdrawn
        finally:
            service.stop(drain=True)
            database.close()

    def test_submit_request_rejects_non_requests(self):
        database = self._build(n_objects=8, n_shards=1)
        with QueryService(database) as service:
            with pytest.raises(TypeError):
                service.submit_request("not a request")
        database.close()


# ----------------------------------------------------------------------
# Satellite: lazy query samples
# ----------------------------------------------------------------------
class TestLazyQuerySamples:
    def test_sampling_is_deferred_until_first_access(self, monkeypatch):
        rng = np.random.default_rng(9)
        query = make_fuzzy_object(rng)
        calls = []
        original = FuzzyObject.sample_alpha_cut

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FuzzyObject, "sample_alpha_cut", counting)
        prepared = PreparedQuery(query, 0.5, rng=rng)
        assert calls == []  # construction draws nothing
        first = prepared.query_samples
        assert calls == [1]
        again = prepared.query_samples
        assert calls == [1]  # cached after the first draw
        assert np.array_equal(first, again)

    def test_repr_does_not_force_sampling(self):
        prepared = PreparedQuery(make_fuzzy_object(np.random.default_rng(8)), 0.5)
        assert "unsampled" in repr(prepared)
        _ = prepared.query_samples
        assert "unsampled" not in repr(prepared)
