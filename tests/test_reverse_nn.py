"""Tests for the reverse AKNN extension query, against the brute-force
reference."""

import numpy as np
import pytest

from repro import reference
from repro.core.database import FuzzyDatabase
from repro.core.requests import ReverseRequest
from repro.core.reverse_nn import ReverseAKNNSearcher
from repro.exceptions import InvalidQueryError
from repro.fuzzy.fuzzy_object import FuzzyObject
from tests.conftest import make_fuzzy_object


def reverse_ids(objects, query, k, alpha):
    return [object_id for object_id, _ in reference.reverse(objects, query, k, alpha)]


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
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_brute_force(self, reverse_setup, k):
        database, objects, query = reverse_setup
        expected = reverse_ids(objects, query, k, alpha=0.5)
        result = database.execute(ReverseRequest(query, k=k, alpha=0.5))
        assert result.object_ids == expected

    @pytest.mark.parametrize("alpha", [0.2, 0.8, 1.0])
    def test_matches_brute_force_across_alphas(self, reverse_setup, alpha):
        database, objects, query = reverse_setup
        expected = reverse_ids(objects, query, 2, alpha=alpha)
        result = database.execute(ReverseRequest(query, k=2, alpha=alpha))
        assert result.object_ids == expected

    def test_distances_reported_for_results(self, reverse_setup):
        database, objects, query = reverse_setup
        result = database.execute(ReverseRequest(query, k=2, alpha=0.5))
        expected = dict(reference.reverse(objects, query, 2, 0.5))
        assert result.object_ids == sorted(expected)
        for object_id in result.object_ids:
            assert result.distances[object_id] == pytest.approx(expected[object_id])

    def test_far_away_query_has_no_reverse_neighbors(self, reverse_setup):
        database, objects, query = reverse_setup
        far_query = make_fuzzy_object(np.random.default_rng(1), center=[500.0, 500.0])
        result = database.execute(ReverseRequest(far_query, k=1, alpha=0.5))
        assert len(result) == 0

    def test_large_k_returns_everything(self, reverse_setup):
        database, objects, _ = reverse_setup
        query = make_fuzzy_object(np.random.default_rng(2), center=[4.0, 4.0])
        result = database.execute(
            ReverseRequest(query, k=len(objects) + 5, alpha=0.5)
        )
        assert len(result) == len(objects)


def assert_matches_reference(database, objects, query, k, alpha):
    """Pin the served reverse answer to the brute-force one."""
    expected = reverse_ids(objects, query, k, alpha)
    result = database.execute(ReverseRequest(query, k=k, alpha=alpha))
    assert result.object_ids == expected, (
        f"diverged at k={k}, alpha={alpha}: {result.object_ids} != {expected}"
    )


class TestEdgeCaseParity:
    """Regression pins for the degenerate configurations of the RKNN engine."""

    def test_duplicate_objects_zero_distance_ties(self, rng):
        """Identical objects sit at distance zero from each other: the
        strictly-closer count must treat the tie as the reference does."""
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
                assert_matches_reference(database, objects, query, k, alpha=0.5)
            # A query coincident with the duplicates (distance-zero to them).
            coincident = FuzzyObject(base.points.copy(), base.memberships.copy())
            for k in (1, 3):
                assert_matches_reference(database, objects, coincident, k, alpha=0.5)
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
            assert_matches_reference(
                database, objects, query, k=len(objects) + k_extra, alpha=0.5
            )
            result = database.execute(
                ReverseRequest(query, k=len(objects) + k_extra, alpha=0.5)
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
                assert_matches_reference(database, objects, query, k, alpha=0.5)
        finally:
            database.close()

    def test_alpha_one_kernel_cuts(self, reverse_setup):
        database, objects, query = reverse_setup
        for k in (1, 3):
            assert_matches_reference(database, objects, query, k, alpha=1.0)

    def test_empty_database(self):
        database = FuzzyDatabase.build([])
        try:
            query = make_fuzzy_object(np.random.default_rng(4), center=[1.0, 1.0])
            result = database.execute(ReverseRequest(query, k=2, alpha=0.5))
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
            assert result.object_ids == reverse_ids(objects, query, 2, 0.5)
            single = database.execute(ReverseRequest(query, k=2, alpha=0.5))
            assert single.object_ids == result.object_ids
            for object_id in result.object_ids:
                assert result.distances[object_id] == pytest.approx(
                    single.distances[object_id]
                )

    def test_empty_bucket(self, reverse_setup):
        database, _, _ = reverse_setup
        assert database.execute_batch([]) == []

    def test_batch_filter_is_effective(self, reverse_setup):
        """The vectorized filter verifies no more candidates than a scan would."""
        database, objects, query = reverse_setup
        batch = database.execute(ReverseRequest(query, k=2, alpha=0.5))
        assert batch.object_ids == reverse_ids(objects, query, 2, 0.5)
        assert batch.stats.extra["candidates"] <= len(objects)

    def test_batch_reports_exact_distances(self, reverse_setup):
        database, objects, query = reverse_setup
        result = database.execute(ReverseRequest(query, k=2, alpha=0.5))
        expected = dict(reference.reverse(objects, query, 2, 0.5))
        for object_id in result.object_ids:
            assert result.distances[object_id] == pytest.approx(
                expected[object_id], abs=1e-9
            )


class TestCostAndValidation:

    def test_validation(self, reverse_setup):
        database, _, query = reverse_setup
        with pytest.raises(InvalidQueryError):
            database.execute(ReverseRequest(query, k=0, alpha=0.5))
        with pytest.raises(InvalidQueryError):
            database.execute(ReverseRequest(query, k=2, alpha=0.0))
        with pytest.raises(TypeError):  # one reverse plan: there is no method
            ReverseRequest(query, k=2, alpha=0.5, method="batch")

    def test_searcher_direct_use(self, reverse_setup):
        database, objects, query = reverse_setup
        searcher = ReverseAKNNSearcher(database.store, database.tree)
        (result,) = searcher.search_batch([query], k=3, alpha=0.6)
        expected = reverse_ids(objects, query, 3, alpha=0.6)
        assert result.object_ids == expected
        assert result.stats.object_accesses > 0
        assert result.k == 3 and result.alpha == 0.6
