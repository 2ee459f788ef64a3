"""Tests for the alpha range searcher against the brute-force reference."""

import pytest

from repro import reference
from repro.core.query import PreparedQuery
from repro.core.range_search import AlphaRangeSearcher
from repro.core.requests import RangeRequest
from repro.exceptions import InvalidQueryError
from tests.conftest import stored_objects


class TestCorrectness:
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    @pytest.mark.parametrize("radius", [0.0, 0.5, 1.5, 4.0])
    def test_matches_linear_scan(self, dense_database, dense_queries, alpha, radius):
        query = dense_queries[0]
        expected = reference.range_search(
            stored_objects(dense_database), query, alpha, radius
        )
        actual = dense_database.execute(RangeRequest(query, alpha=alpha, radius=radius))
        expected_distances = dict(expected)
        assert sorted(actual.object_ids) == sorted(expected_distances)
        for object_id, distance in actual.matches:
            assert distance == pytest.approx(expected_distances[object_id])

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


class TestCollect:
    def test_collect_returns_probed_objects(self, dense_database, dense_queries):
        query = dense_queries[0]
        searcher = AlphaRangeSearcher(dense_database.store, dense_database.tree)
        prepared = PreparedQuery(query, 0.5)
        matches, objects = searcher.collect(prepared, radius=2.0)
        assert set(objects.keys()) >= {object_id for object_id, _ in matches}
        for object_id, _ in matches:
            assert objects[object_id].object_id == object_id

    def test_matches_sorted_by_distance(self, dense_database, dense_queries):
        result = dense_database.execute(
            RangeRequest(dense_queries[0], alpha=0.5, radius=3.0)
        )
        distances = [d for _, d in result.matches]
        assert distances == sorted(distances)

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
