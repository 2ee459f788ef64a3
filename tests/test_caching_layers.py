"""Tests for the query-time caching layers added with the batch engine.

Covers the per-object alpha-cut LRU cache on :class:`FuzzyObject`, and that
a repeated sweep request costs what its first run did: distance profiles
live for one request, so nothing a request computed serves the next one.
"""

import numpy as np

from repro.config import DEFAULT_ALPHA_CUT_CACHE_CAPACITY, RuntimeConfig
from repro.core.requests import SweepRequest
from repro.datasets.builder import build_database
from repro.datasets.queries import generate_query_object
from repro.fuzzy.fuzzy_object import (
    CUT_CACHE_STATS,
    FuzzyObject,
    reset_cut_cache_statistics,
)


def make_object(seed=0, n=20):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 2))
    memberships = rng.uniform(0.05, 1.0, size=n)
    memberships[0] = 1.0
    return FuzzyObject(points, memberships, object_id=seed)


class TestAlphaCutCache:
    def test_repeated_cuts_share_one_materialisation(self):
        obj = make_object(1)
        reset_cut_cache_statistics()
        first = obj.alpha_cut(0.5)
        second = obj.alpha_cut(0.5)
        assert first is second
        assert CUT_CACHE_STATS["hits"] == 1
        assert CUT_CACHE_STATS["misses"] == 1

    def test_different_alphas_are_distinct_entries(self):
        obj = make_object(2)
        cut_low = obj.alpha_cut(0.3)
        cut_high = obj.alpha_cut(0.9)
        assert cut_high.shape[0] <= cut_low.shape[0]
        assert obj.alpha_cut(0.3) is cut_low
        assert obj.alpha_cut(0.9) is cut_high

    def test_lru_eviction_respects_capacity(self):
        obj = make_object(3)
        alphas = np.linspace(0.1, 0.9, DEFAULT_ALPHA_CUT_CACHE_CAPACITY + 1)
        cuts = [obj.alpha_cut(alpha) for alpha in alphas[:-1]]  # fills the cache
        obj.alpha_cut(alphas[-1])  # evicts the least recent, alphas[0]
        assert obj.alpha_cut(alphas[0]) is not cuts[0]
        assert obj.alpha_cut(alphas[-2]) is cuts[-1]

    def test_cached_cut_values_are_correct(self):
        obj = make_object(5)
        for alpha in (0.25, 0.5, 0.25, 0.75, 0.5):
            cut = obj.alpha_cut(alpha)
            mask = obj.memberships >= alpha - 1e-12
            np.testing.assert_array_equal(cut, obj.points[mask])


class TestProfileStoreInRKNN:
    def test_repeated_rknn_reuses_profiles(self):
        database = build_database(
            n_objects=60,
            points_per_object=12,
            seed=23,
            config=RuntimeConfig(rtree_max_entries=8),
        )
        query = generate_query_object(np.random.default_rng(1234), points_per_object=12)
        # RSS computes every candidate's profile; the default RSS-ICR may
        # decide this sweep from bounds alone and compute none.
        request = SweepRequest(query, k=4, alpha_range=(0.3, 0.7), method="rss")
        first = database.execute(request)
        second = database.execute(request)
        assert first.assignments.keys() == second.assignments.keys()
        for object_id in first.assignments:
            assert first.assignments[object_id] == second.assignments[object_id]
        # The second run reads and computes exactly what the first did.
        assert first.stats.object_accesses > 0
        assert second.stats.object_accesses == first.stats.object_accesses
        assert second.stats.distance_evaluations == first.stats.distance_evaluations
