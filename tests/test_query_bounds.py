"""Unit tests for PreparedQuery: the lower/upper bounds of Section 3.

The key invariants (also listed in DESIGN.md):

* simple lower bound <= improved lower bound <= exact alpha-distance
* exact alpha-distance <= representative upper bound, <= MaxDist upper bound
"""

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.core.query import PreparedQuery
from repro.exceptions import InvalidQueryError
from repro.fuzzy.alpha_distance import alpha_distance
from repro.fuzzy.summary import build_summary
from repro.metrics.counters import MetricsCollector
from tests.conftest import make_fuzzy_object


@pytest.fixture
def objects_and_query(rng):
    objects = [
        make_fuzzy_object(rng, n_points=30, center=rng.random(2) * 12, object_id=i)
        for i in range(15)
    ]
    query = make_fuzzy_object(rng, n_points=30, center=[6.0, 6.0])
    return objects, query


class TestValidation:
    def test_rejects_bad_alpha(self, rng):
        query = make_fuzzy_object(rng)
        with pytest.raises(InvalidQueryError):
            PreparedQuery(query, 0.0)
        with pytest.raises(InvalidQueryError):
            PreparedQuery(query, 1.2)

    def test_query_cut_and_samples(self, rng):
        query = make_fuzzy_object(rng, n_points=50)
        prepared = PreparedQuery(query, 0.5, RuntimeConfig(upper_bound_samples=4))
        assert prepared.query_cut.shape[0] == query.alpha_cut(0.5).shape[0]
        assert prepared.query_samples.shape[0] <= 4
        cut = {tuple(p) for p in prepared.query_cut}
        assert all(tuple(p) in cut for p in prepared.query_samples)


class TestBoundOrdering:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8, 1.0])
    def test_sandwich_property(self, objects_and_query, alpha):
        objects, query = objects_and_query
        prepared = PreparedQuery(query, alpha)
        for obj in objects:
            summary = build_summary(obj)
            exact = alpha_distance(obj, query, alpha)
            simple_lb = prepared.simple_lower_bound(summary)
            improved_lb = prepared.improved_lower_bound(summary)
            maxdist_ub = prepared.maxdist_upper_bound(summary)
            rep_ub = prepared.representative_upper_bound(summary)

            assert simple_lb <= exact + 1e-9
            assert improved_lb <= exact + 1e-9
            assert exact <= maxdist_ub + 1e-9
            assert exact <= rep_ub + 1e-9
            # The improved lower bound never loses to the simple one.
            assert improved_lb >= simple_lb - 1e-9
            # The combined upper bound is the tighter of the two.
            assert prepared.combined_upper_bound(summary) == pytest.approx(
                min(maxdist_ub, rep_ub)
            )

    def test_improved_bound_strictly_better_somewhere(self, objects_and_query):
        """At high alpha the improved lower bound must beat the simple one for
        at least one object (otherwise the optimisation would be pointless)."""
        objects, query = objects_and_query
        prepared = PreparedQuery(query, 0.9)
        gains = []
        for obj in objects:
            summary = build_summary(obj)
            gains.append(
                prepared.improved_lower_bound(summary) - prepared.simple_lower_bound(summary)
            )
        assert max(gains) > 1e-6

    def test_node_lower_bound_is_mindist(self, objects_and_query):
        from repro.geometry.mbr import min_dist

        objects, query = objects_and_query
        prepared = PreparedQuery(query, 0.5)
        summary = build_summary(objects[0])
        assert prepared.node_lower_bound(summary.support_mbr) == pytest.approx(
            min_dist(prepared.query_mbr, summary.support_mbr)
        )

    def test_distance_to_matches_alpha_distance(self, objects_and_query):
        objects, query = objects_and_query
        prepared = PreparedQuery(query, 0.6)
        for obj in objects[:5]:
            assert prepared.distance_to(obj) == pytest.approx(
                alpha_distance(obj, query, 0.6)
            )


class TestMetricsCharging:
    def test_counters_incremented(self, objects_and_query):
        objects, query = objects_and_query
        metrics = MetricsCollector()
        prepared = PreparedQuery(query, 0.5, metrics=metrics)
        summary = build_summary(objects[0])
        prepared.simple_lower_bound(summary)
        prepared.improved_lower_bound(summary)
        prepared.maxdist_upper_bound(summary)
        prepared.representative_upper_bound(summary)
        prepared.distance_to(objects[0])
        assert metrics.get(MetricsCollector.LOWER_BOUND_EVALUATIONS) == 2
        assert metrics.get(MetricsCollector.UPPER_BOUND_EVALUATIONS) == 2
        assert metrics.get(MetricsCollector.DISTANCE_EVALUATIONS) == 1
