"""Tests for the reverse AKNN extension query."""

import numpy as np
import pytest

from repro.core.database import FuzzyDatabase
from repro.core.requests import ReverseRequest
from repro.core.reverse_nn import ReverseAKNNSearcher
from repro.exceptions import InvalidQueryError
from repro.fuzzy.alpha_distance import alpha_distance
from repro.fuzzy.fuzzy_object import FuzzyObject
from tests.conftest import make_fuzzy_object


def brute_force_reverse_knn(objects, query, k, alpha):
    """A is a reverse kNN of Q iff fewer than k objects are strictly closer to A."""
    result = []
    for a in objects:
        distance_to_query = alpha_distance(a, query, alpha)
        closer = sum(
            1
            for b in objects
            if b.object_id != a.object_id
            and alpha_distance(a, b, alpha) < distance_to_query
        )
        if closer < k:
            result.append(a.object_id)
    return sorted(result)


@pytest.fixture
def reverse_setup(rng):
    objects = [
        make_fuzzy_object(rng, n_points=12, center=rng.random(2) * 8, object_id=i)
        for i in range(22)
    ]
    database = FuzzyDatabase.build(objects)
    query = make_fuzzy_object(rng, n_points=12, center=[4.0, 4.0])
    yield database, objects, query
    database.close()


class TestCorrectness:
    @pytest.mark.parametrize("method", ["linear", "pruned", "batch"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_brute_force(self, reverse_setup, method, k):
        database, objects, query = reverse_setup
        expected = brute_force_reverse_knn(objects, query, k, alpha=0.5)
        result = database.execute(ReverseRequest(query, k=k, alpha=0.5, method=method))
        assert result.object_ids == expected

    @pytest.mark.parametrize("method", ["pruned", "batch"])
    @pytest.mark.parametrize("alpha", [0.2, 0.8, 1.0])
    def test_matches_brute_force_across_alphas(self, reverse_setup, alpha, method):
        database, objects, query = reverse_setup
        expected = brute_force_reverse_knn(objects, query, 2, alpha=alpha)
        result = database.execute(
            ReverseRequest(query, k=2, alpha=alpha, method=method)
        )
        assert result.object_ids == expected

    def test_distances_reported_for_results(self, reverse_setup):
        database, objects, query = reverse_setup
        result = database.execute(
            ReverseRequest(query, k=2, alpha=0.5, method="pruned")
        )
        by_id = {obj.object_id: obj for obj in objects}
        for object_id in result.object_ids:
            assert result.distances[object_id] == pytest.approx(
                alpha_distance(by_id[object_id], query, 0.5)
            )

    def test_far_away_query_has_no_reverse_neighbors(self, reverse_setup):
        database, objects, query = reverse_setup
        far_query = make_fuzzy_object(np.random.default_rng(1), center=[500.0, 500.0])
        result = database.execute(
            ReverseRequest(far_query, k=1, alpha=0.5, method="pruned")
        )
        assert len(result) == 0

    def test_large_k_returns_everything(self, reverse_setup):
        database, objects, _ = reverse_setup
        query = make_fuzzy_object(np.random.default_rng(2), center=[4.0, 4.0])
        result = database.execute(
            ReverseRequest(query, k=len(objects) + 5, alpha=0.5, method="pruned")
        )
        assert len(result) == len(objects)


THREE_WAY = ("linear", "pruned", "batch")


def assert_three_way_parity(database, objects, query, k, alpha):
    """Pin ``linear == pruned == batch`` against the brute-force oracle."""
    expected = brute_force_reverse_knn(objects, query, k, alpha)
    for method in THREE_WAY:
        result = database.execute(
            ReverseRequest(query, k=k, alpha=alpha, method=method)
        )
        assert result.object_ids == expected, (
            f"method {method} diverged at k={k}, alpha={alpha}: "
            f"{result.object_ids} != {expected}"
        )


class TestEdgeCaseParity:
    """Regression pins for the degenerate configurations of the RKNN engine."""

    def test_duplicate_objects_zero_distance_ties(self, rng):
        """Identical objects sit at distance zero from each other: the
        strictly-closer count must treat the tie consistently in all methods."""
        base = make_fuzzy_object(rng, n_points=10, center=[2.0, 2.0])
        objects = [
            FuzzyObject(base.points.copy(), base.memberships.copy(), object_id=i)
            for i in range(3)
        ] + [
            make_fuzzy_object(rng, n_points=10, center=rng.random(2) * 6, object_id=i)
            for i in range(3, 12)
        ]
        database = FuzzyDatabase.build(list(objects))
        try:
            query = make_fuzzy_object(rng, n_points=10, center=[2.5, 2.5])
            for k in (1, 2, 3, 5):
                assert_three_way_parity(database, objects, query, k, alpha=0.5)
            # A query coincident with the duplicates (distance-zero to them).
            coincident = FuzzyObject(base.points.copy(), base.memberships.copy())
            for k in (1, 3):
                assert_three_way_parity(database, objects, coincident, k, alpha=0.5)
        finally:
            database.close()

    @pytest.mark.parametrize("k_extra", [0, 1, 10])
    def test_k_at_least_n_returns_everything(self, rng, k_extra):
        objects = [
            make_fuzzy_object(rng, n_points=8, center=rng.random(2) * 5, object_id=i)
            for i in range(7)
        ]
        database = FuzzyDatabase.build(list(objects))
        try:
            query = make_fuzzy_object(rng, n_points=8, center=[2.0, 2.0])
            assert_three_way_parity(
                database, objects, query, k=len(objects) + k_extra, alpha=0.5
            )
            result = database.execute(
                ReverseRequest(
                    query, k=len(objects) + k_extra, alpha=0.5, method="batch"
                ),
            )
            assert len(result) == len(objects)
        finally:
            database.close()

    def test_single_object_store(self, rng):
        objects = [make_fuzzy_object(rng, n_points=8, center=[1.0, 1.0], object_id=0)]
        database = FuzzyDatabase.build(list(objects))
        try:
            query = make_fuzzy_object(rng, n_points=8, center=[4.0, 4.0])
            for k in (1, 2):
                assert_three_way_parity(database, objects, query, k, alpha=0.5)
        finally:
            database.close()

    def test_alpha_one_kernel_cuts(self, reverse_setup):
        database, objects, query = reverse_setup
        for k in (1, 3):
            assert_three_way_parity(database, objects, query, k, alpha=1.0)

    def test_empty_database(self):
        database = FuzzyDatabase.build([])
        try:
            query = make_fuzzy_object(np.random.default_rng(4), center=[1.0, 1.0])
            for method in THREE_WAY:
                result = database.execute(
                    ReverseRequest(query, k=2, alpha=0.5, method=method)
                )
                assert len(result) == 0
        finally:
            database.close()


class TestBatchEngine:
    def test_search_batch_matches_per_query(self, reverse_setup, rng):
        """A coalesced bucket returns exactly the per-query answers."""
        database, objects, _ = reverse_setup
        bucket = [
            make_fuzzy_object(rng, n_points=12, center=rng.random(2) * 8)
            for _ in range(5)
        ]
        results = database.execute_batch(
            [ReverseRequest(query, k=2, alpha=0.5) for query in bucket]
        )
        assert len(results) == len(bucket)
        for query, result in zip(bucket, results):
            expected = brute_force_reverse_knn(objects, query, 2, 0.5)
            assert result.object_ids == expected
            single = database.execute(
                ReverseRequest(query, k=2, alpha=0.5, method="batch")
            )
            assert single.object_ids == result.object_ids
            for object_id in result.object_ids:
                assert result.distances[object_id] == pytest.approx(
                    single.distances[object_id]
                )

    def test_empty_bucket(self, reverse_setup):
        database, _, _ = reverse_setup
        assert database.execute_batch([]) == []

    def test_batch_filter_is_effective(self, reverse_setup):
        """The vectorized filter keeps no more candidates than linear scans."""
        database, objects, query = reverse_setup
        linear = database.execute(
            ReverseRequest(query, k=2, alpha=0.5, method="linear")
        )
        batch = database.execute(ReverseRequest(query, k=2, alpha=0.5, method="batch"))
        assert batch.object_ids == linear.object_ids
        assert batch.stats.extra["candidates"] <= linear.stats.extra["candidates"]

    def test_batch_reports_exact_distances(self, reverse_setup):
        database, objects, query = reverse_setup
        result = database.execute(ReverseRequest(query, k=2, alpha=0.5, method="batch"))
        by_id = {obj.object_id: obj for obj in objects}
        for object_id in result.object_ids:
            assert result.distances[object_id] == pytest.approx(
                alpha_distance(by_id[object_id], query, 0.5)
            )


class TestCostAndValidation:
    def test_pruned_filters_candidates(self, reverse_setup):
        database, objects, query = reverse_setup
        linear = database.execute(
            ReverseRequest(query, k=2, alpha=0.5, method="linear")
        )
        pruned = database.execute(
            ReverseRequest(query, k=2, alpha=0.5, method="pruned")
        )
        assert pruned.object_ids == linear.object_ids
        assert pruned.stats.extra["candidates"] <= linear.stats.extra["candidates"]

    def test_validation(self, reverse_setup):
        database, _, query = reverse_setup
        with pytest.raises(InvalidQueryError):
            database.execute(ReverseRequest(query, k=0, alpha=0.5))
        with pytest.raises(InvalidQueryError):
            database.execute(ReverseRequest(query, k=2, alpha=0.0))
        with pytest.raises(InvalidQueryError):
            database.execute(ReverseRequest(query, k=2, alpha=0.5, method="bogus"))

    def test_searcher_direct_use(self, reverse_setup):
        database, objects, query = reverse_setup
        searcher = ReverseAKNNSearcher(database.store, database.tree)
        result = searcher.search(query, k=3, alpha=0.6)
        expected = brute_force_reverse_knn(objects, query, 3, alpha=0.6)
        assert result.object_ids == expected
        assert result.stats.object_accesses > 0
        assert result.k == 3 and result.alpha == 0.6
