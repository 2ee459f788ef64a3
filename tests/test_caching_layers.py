"""Tests for the query-time caching layers added with the batch engine.

Covers the per-object alpha-cut LRU cache on :class:`FuzzyObject` and the
memoised :class:`DistanceProfileStore` wired into the RKNN searcher.
"""

import numpy as np
import pytest

from repro import reference
from repro.config import RuntimeConfig
from repro.core.requests import SweepRequest
from repro.datasets.builder import DatasetBundle
from repro.fuzzy.alpha_distance import DistanceProfileStore, distance_profile
from repro.fuzzy.fuzzy_object import (
    CUT_CACHE_STATS,
    FuzzyObject,
    reset_cut_cache_statistics,
)
from tests.conftest import stored_objects


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
        obj.set_cut_cache_capacity(2)
        first = obj.alpha_cut(0.2)
        obj.alpha_cut(0.4)
        obj.alpha_cut(0.6)  # evicts 0.2
        assert obj.alpha_cut(0.2) is not first

    def test_capacity_zero_disables_caching(self):
        obj = make_object(4)
        obj.set_cut_cache_capacity(0)
        assert obj.alpha_cut(0.5) is not obj.alpha_cut(0.5)

    def test_cached_cut_values_are_correct(self):
        obj = make_object(5)
        for alpha in (0.25, 0.5, 0.25, 0.75, 0.5):
            cut = obj.alpha_cut(alpha)
            mask = obj.memberships >= alpha - 1e-12
            np.testing.assert_array_equal(cut, obj.points[mask])

    def test_store_applies_configured_capacity(self):
        bundle = DatasetBundle.create(
            n_objects=20,
            points_per_object=10,
            seed=5,
            config=RuntimeConfig(alpha_cut_cache_capacity=0, cache_capacity=4),
        )
        obj = bundle.database.get_object(bundle.database.object_ids()[0])
        assert obj.alpha_cut(0.5) is not obj.alpha_cut(0.5)


class TestDistanceProfileStore:
    def test_lookup_miss_then_hit(self):
        store = DistanceProfileStore(capacity=8)
        query, other = make_object(10), make_object(11)
        assert store.lookup(query, 11, 0.8) is None
        profile = distance_profile(other, query, max_level=0.8)
        store.insert(query, 11, profile, 0.8)
        assert store.lookup(query, 11, 0.8) is profile
        assert store.hits == 1 and store.misses == 1

    def test_max_level_is_part_of_the_key(self):
        store = DistanceProfileStore(capacity=8)
        query, other = make_object(12), make_object(13)
        profile = distance_profile(other, query, max_level=0.5)
        store.insert(query, 13, profile, 0.5)
        assert store.lookup(query, 13, 0.9) is None

    def test_capacity_zero_disables_memoisation(self):
        store = DistanceProfileStore(capacity=0)
        query, other = make_object(14), make_object(15)
        profile = distance_profile(other, query)
        store.insert(query, 15, profile)
        assert store.lookup(query, 15) is None

    def test_distinct_query_instances_do_not_collide(self):
        store = DistanceProfileStore(capacity=8)
        query_a, query_b, other = make_object(16), make_object(17), make_object(18)
        profile_a = distance_profile(other, query_a)
        store.insert(query_a, 18, profile_a)
        assert store.lookup(query_b, 18) is None


class TestProfileStoreInRKNN:
    def test_repeated_rknn_reuses_profiles(self):
        bundle = DatasetBundle.create(
            n_objects=60,
            points_per_object=12,
            seed=23,
            config=RuntimeConfig(rtree_max_entries=8),
        )
        database = bundle.database
        query = bundle.queries(1)[0]
        # RSS computes every candidate's profile; the default RSS-ICR may
        # decide this sweep from bounds alone and compute none.
        request = SweepRequest(query, k=4, alpha_range=(0.3, 0.7), method="rss")
        first = database.execute(request)
        second = database.execute(request)
        assert first.assignments.keys() == second.assignments.keys()
        for object_id in first.assignments:
            assert first.assignments[object_id] == second.assignments[object_id]
        assert second.stats.extra["profile_cache_hits"] > 0
        # A hit replaces both the probe and the profile computation.
        assert second.stats.object_accesses <= first.stats.object_accesses

    def test_profile_store_disabled_still_correct(self):
        bundle = DatasetBundle.create(
            n_objects=60,
            points_per_object=12,
            seed=23,
            config=RuntimeConfig(rtree_max_entries=8, profile_cache_capacity=0),
        )
        database = bundle.database
        query = bundle.queries(1)[0]
        result = database.execute(SweepRequest(query, k=4, alpha_range=(0.3, 0.7)))
        truth = reference.sweep(stored_objects(database), query, k=4, alpha_range=(0.3, 0.7))
        assert result.assignments.keys() == truth.keys()
