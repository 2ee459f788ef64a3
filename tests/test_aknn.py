"""Tests for the AKNN searcher: all method variants against the brute-force
reference (a linear scan that shares no code with the engine)."""

import numpy as np
import pytest

from repro import reference
from repro.core.aknn import AKNN_METHODS, AKNNSearcher
from repro.core.requests import AknnRequest
from repro.exceptions import InvalidQueryError
from tests.conftest import sorted_exact_distances, stored_objects


class TestCorrectness:
    @pytest.mark.parametrize("method", AKNN_METHODS)
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8, 1.0])
    def test_matches_linear_scan(self, dense_database, dense_queries, method, alpha):
        k = 7
        truth = reference.aknn(
            stored_objects(dense_database), dense_queries[0], k=k, alpha=alpha
        )
        expected = [distance for _, distance in truth]
        result = dense_database.execute(
            AknnRequest(dense_queries[0], k=k, alpha=alpha, method=method)
        )
        assert len(result) == k
        actual = sorted_exact_distances(dense_database, result, dense_queries[0], alpha)
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("method", AKNN_METHODS)
    def test_multiple_queries_and_ks(self, dense_database, dense_queries, method):
        for query in dense_queries:
            for k in (1, 3, 12):
                truth = reference.aknn(
                    stored_objects(dense_database), query, k=k, alpha=0.5
                )
                expected = [distance for _, distance in truth]
                result = dense_database.execute(
                    AknnRequest(query, k=k, alpha=0.5, method=method)
                )
                actual = sorted_exact_distances(dense_database, result, query, 0.5)
                np.testing.assert_allclose(actual, expected, atol=1e-9)

    @pytest.mark.parametrize("method", AKNN_METHODS)
    def test_on_cell_dataset(self, cell_database, dense_queries, method):
        rng = np.random.default_rng(3)
        from repro.datasets.queries import generate_query_object

        query = generate_query_object(rng, kind="cells", space_size=7.0, points_per_object=40)
        truth = reference.aknn(stored_objects(cell_database), query, k=5, alpha=0.6)
        expected = [distance for _, distance in truth]
        result = cell_database.execute(
            AknnRequest(query, k=5, alpha=0.6, method=method)
        )
        actual = sorted_exact_distances(cell_database, result, query, 0.6)
        np.testing.assert_allclose(actual, expected, atol=1e-9)

    @pytest.mark.parametrize("method", AKNN_METHODS)
    def test_near_one_membership_is_not_kernel(self, method):
        """A point with membership in (1 - 1e-5, 1) is outside the 1.0-cut, so
        it must not become rep(A): the Lemma 1 upper bound would drop below
        the exact distance and lb_lp_ub would return A (d = 10) over B (d = 3)."""
        from repro.core.database import FuzzyDatabase
        from repro.fuzzy.fuzzy_object import FuzzyObject

        a = FuzzyObject(np.array([[0.0, 0.0], [10.0, 0.0]]), np.array([0.999995, 1.0]))
        b = FuzzyObject.crisp(np.array([[3.0, 0.0], [3.0, 1.0]]))
        c = FuzzyObject.crisp(np.array([[6.0, 0.0], [6.0, 1.0]]))
        database = FuzzyDatabase.build([a, b, c])
        query = FuzzyObject.single_point([0.0, 0.0])
        truth = reference.aknn(stored_objects(database), query, k=1, alpha=1.0)
        result = database.execute(AknnRequest(query, k=1, alpha=1.0, method=method))
        assert result.object_ids == [object_id for object_id, _ in truth] == [1]
        database.close()

    def test_k_larger_than_dataset(self, dense_database, dense_queries):
        result = dense_database.execute(
            AknnRequest(dense_queries[0], k=10_000, alpha=0.5)
        )
        assert len(result) == len(dense_database)

    def test_point_query(self, dense_database):
        from repro.fuzzy.fuzzy_object import FuzzyObject

        query = FuzzyObject.single_point([4.0, 4.0])
        truth = reference.aknn(stored_objects(dense_database), query, k=3, alpha=0.5)
        result = dense_database.execute(AknnRequest(query, k=3, alpha=0.5))
        expected = [distance for _, distance in truth]
        actual = sorted_exact_distances(dense_database, result, query, 0.5)
        np.testing.assert_allclose(actual, expected, atol=1e-9)


class TestValidation:
    def test_invalid_k(self, dense_database, dense_queries):
        with pytest.raises(InvalidQueryError):
            dense_database.execute(AknnRequest(dense_queries[0], k=0, alpha=0.5))

    def test_invalid_method(self, dense_database, dense_queries):
        with pytest.raises(InvalidQueryError):
            dense_database.execute(
                AknnRequest(dense_queries[0], k=3, alpha=0.5, method="bogus")
            )

    def test_invalid_alpha(self, dense_database, dense_queries):
        with pytest.raises(InvalidQueryError):
            dense_database.execute(AknnRequest(dense_queries[0], k=3, alpha=0.0))

    def test_empty_database(self, tmp_path):
        from repro.core.database import FuzzyDatabase

        database = FuzzyDatabase.build([])
        from repro.fuzzy.fuzzy_object import FuzzyObject

        result = database.execute(
            AknnRequest(FuzzyObject.single_point([0.0, 0.0]), k=3, alpha=0.5)
        )
        assert len(result) == 0


class TestCostBehaviour:
    def test_stats_populated(self, dense_database, dense_queries):
        dense_database.reset_statistics()
        result = dense_database.execute(
            AknnRequest(dense_queries[0], k=5, alpha=0.5, method="basic")
        )
        assert result.stats.object_accesses >= 5
        assert result.stats.node_accesses >= 1
        assert result.stats.elapsed_seconds > 0
        assert result.stats.aknn_calls == 1

    def test_basic_accesses_at_least_k(self, dense_database, dense_queries):
        result = dense_database.execute(
            AknnRequest(dense_queries[0], k=9, alpha=0.5, method="basic")
        )
        assert result.stats.object_accesses >= 9

    def test_optimised_never_probes_more_than_basic(self, dense_database, dense_queries):
        """The full optimisation stack should not access more objects than the
        basic algorithm (averaged over queries, per the paper's Figure 11)."""
        k, alpha = 8, 0.7
        basic_total = 0
        optimised_total = 0
        for query in dense_queries:
            basic_total += dense_database.execute(
                AknnRequest(query, k=k, alpha=alpha, method="basic")
            ).stats.object_accesses
            optimised_total += dense_database.execute(
                AknnRequest(query, k=k, alpha=alpha, method="lb_lp_ub")
            ).stats.object_accesses
        assert optimised_total <= basic_total

    def test_lazy_probe_defers_accesses(self, dense_database, dense_queries):
        """lb_lp may confirm some neighbours purely from bounds."""
        result = dense_database.execute(
            AknnRequest(dense_queries[0], k=5, alpha=0.5, method="lb_lp_ub")
        )
        assert result.stats.object_accesses <= 5 + len(dense_database)
        # every returned neighbour carries consistent bound information
        for neighbor in result.neighbors:
            assert neighbor.lower_bound <= neighbor.upper_bound + 1e-9
            if neighbor.distance is not None:
                assert neighbor.probed

    def test_object_accesses_match_store_counter(self, dense_database, dense_queries):
        dense_database.reset_statistics()
        result = dense_database.execute(
            AknnRequest(dense_queries[0], k=5, alpha=0.5, method="lb")
        )
        assert result.stats.object_accesses == dense_database.object_accesses


class TestSearcherDirectly:
    def test_searcher_reuse_across_queries(self, dense_database, dense_queries):
        searcher = AKNNSearcher(dense_database.store, dense_database.tree)
        first = searcher.search(dense_queries[0], k=4, alpha=0.5)
        second = searcher.search(dense_queries[1], k=4, alpha=0.5)
        assert len(first) == 4 and len(second) == 4

    def test_result_metadata(self, dense_database, dense_queries):
        result = dense_database.execute(
            AknnRequest(dense_queries[0], k=4, alpha=0.3, method="lb")
        )
        assert result.k == 4
        assert result.alpha == 0.3
        assert result.method == "lb"
        assert len(result.object_ids) == 4
        ordered = result.sorted_by_distance()
        values = [n.best_known_distance for n in ordered]
        assert values == sorted(values)
