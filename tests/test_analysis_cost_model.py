"""Tests for the Section-5 access cost model (Equations 6-8).

The model against the engine, at a stated tolerance, is
``tests/test_paper.py::test_sec5_eq8_predicts_basic_aknn_within_2x_and_both_rise_with_alpha``.
"""

import math

import pytest

from repro.analysis.cost_model import (
    AccessCostModel,
    estimate_knn_radius,
    gaussian_cut_radius,
)
from repro.core.requests import AknnRequest


class TestKnnRadius:
    def test_matches_equation6_closed_form(self):
        # eps = (1 / sqrt(pi)) * sqrt(k / (N - 1)) for D2 = 2
        k, n = 20, 50_000
        expected = math.sqrt(k / (n - 1)) / math.sqrt(math.pi)
        assert estimate_knn_radius(k, n) == pytest.approx(expected)

    def test_monotone_in_k_and_n(self):
        assert estimate_knn_radius(10, 1000) < estimate_knn_radius(20, 1000)
        assert estimate_knn_radius(10, 2000) < estimate_knn_radius(10, 1000)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            estimate_knn_radius(0, 100)
        with pytest.raises(ValueError):
            estimate_knn_radius(5, 1)


class TestGaussianCutRadius:
    def test_boundary_values(self):
        assert gaussian_cut_radius(1.0) == 0.0
        # As alpha approaches 0 the cut approaches the full object radius.
        assert gaussian_cut_radius(1e-9) == pytest.approx(0.5, abs=1e-3)

    def test_monotonically_shrinks(self):
        radii = [gaussian_cut_radius(alpha) for alpha in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(r1 >= r2 for r1, r2 in zip(radii, radii[1:]))

    def test_never_exceeds_object_radius(self):
        for alpha in (0.01, 0.2, 0.5, 0.99):
            assert 0.0 <= gaussian_cut_radius(alpha) <= 0.5

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            gaussian_cut_radius(0.0)


class TestExpectedKnnDistance:
    def test_clamped_at_zero_when_objects_overlap(self):
        # Huge objects relative to spacing -> expected distance zero.
        model = AccessCostModel(n_objects=100, radius_function=lambda a: 10.0)
        assert model.knn_distance(10, 0.1) == 0.0

    def test_grows_with_alpha(self):
        model = AccessCostModel(
            n_objects=2000, radius_function=gaussian_cut_radius, space_size=20.0
        )
        assert model.knn_distance(20, 0.9) >= model.knn_distance(20, 0.2)


class TestAccessCostModel:
    @pytest.fixture
    def model(self):
        return AccessCostModel.for_synthetic_dataset(n_objects=2000, space_size=20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AccessCostModel(n_objects=1, radius_function=lambda a: 0.0)
        with pytest.raises(ValueError):
            AccessCostModel(n_objects=10, radius_function=lambda a: 0.0, utilization=0.0)
        with pytest.raises(ValueError):
            AccessCostModel(n_objects=10, radius_function=lambda a: 0.0, space_size=-1.0)

    def test_prediction_positive_and_finite(self, model):
        for alpha in (0.3, 0.5, 0.7, 0.9):
            predicted = model.predict_object_accesses(20, alpha)
            assert math.isfinite(predicted)
            assert predicted >= 20  # at least the k results must be verified

    def test_monotone_in_k(self, model):
        assert model.predict_object_accesses(5, 0.5) <= model.predict_object_accesses(50, 0.5)

    def test_monotone_in_alpha(self, model):
        """Equation 8: more objects are accessed as alpha increases (the
        paper's Figure 11c trend for the basic search)."""
        predictions = [model.predict_object_accesses(20, alpha) for alpha in (0.3, 0.5, 0.7, 0.9)]
        assert all(p2 >= p1 - 1e-9 for p1, p2 in zip(predictions, predictions[1:]))

    def test_prediction_finite_across_dataset_sizes(self):
        """The prediction stays finite, positive and >= k at any dataset size.

        Note: unlike the paper's informal reading of Equation 8, the formula
        is not guaranteed to be monotone in N once the object radius R(alpha)
        dominates the shrinking k-NN radius; see EXPERIMENTS.md.
        """
        for n_objects in (100, 1000, 5000, 50_000):
            model = AccessCostModel.for_synthetic_dataset(n_objects=n_objects, space_size=20.0)
            predicted = model.predict_object_accesses(20, 0.5)
            assert math.isfinite(predicted)
            assert predicted >= 20

    def test_prediction_in_plausible_range_vs_measurement(self, dense_database, dense_queries):
        """The model should land within an order of magnitude of a real
        measurement on a matching synthetic dataset (it is an asymptotic
        estimate, not an exact count)."""
        # dense_database: 60 synthetic objects, radius 0.5, space 8x8.
        model = AccessCostModel.for_synthetic_dataset(
            n_objects=60, space_size=8.0, node_capacity=8
        )
        measured = []
        for query in dense_queries:
            result = dense_database.execute(
                AknnRequest(query, k=5, alpha=0.5, method="basic")
            )
            measured.append(result.stats.object_accesses)
        average = sum(measured) / len(measured)
        predicted = model.predict_object_accesses(5, 0.5)
        assert predicted / 10 <= average <= predicted * 10

    def test_node_level_prediction_available(self):
        model = AccessCostModel.for_synthetic_dataset(n_objects=2000, space_size=20.0)
        nodes = model.range_query_accesses(model.search_range(20, 0.5))
        objects = model.predict_object_accesses(20, 0.5)
        assert 0 < nodes <= objects

    def test_range_query_accesses_grow_with_radius(self, model):
        assert model.range_query_accesses(2.0) >= model.range_query_accesses(0.5)
        with pytest.raises(ValueError):
            model.range_query_accesses(-1.0)
