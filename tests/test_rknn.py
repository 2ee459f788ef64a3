"""Tests for the RKNN searcher: every method variant against the brute-force
sweep of :mod:`repro.reference`."""

import time

import numpy as np
import pytest

from repro import reference
from repro.config import RuntimeConfig
from repro.core import executor as executor_module
from repro.core import rknn as rknn_module
from repro.core.aknn import AKNNSearcher
from repro.core.database import FuzzyDatabase
from repro.core.rknn import (
    RKNN_METHODS,
    RKNNSearcher,
    rank_objects,
    refine_candidates_basic,
    refine_candidates_icr,
)
from repro.core.requests import SweepRequest
from repro.core.results import QueryStats
from repro.datasets.builder import build_dataset
from repro.datasets.queries import generate_query_object
from repro.exceptions import DeadlineExceededError, InvalidQueryError
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.fuzzy.profile import DistanceProfile
from repro.service import ShardedDatabase
from repro.storage.object_store import ObjectStore
from tests.conftest import assert_same_assignments, make_fuzzy_object, stored_objects


class TestCorrectness:
    @pytest.mark.parametrize("method", RKNN_METHODS)
    @pytest.mark.parametrize("alpha_range", [(0.3, 0.7), (0.5, 0.6), (0.1, 1.0)])
    def test_matches_linear_scan(self, dense_database, dense_queries, method, alpha_range):
        query = dense_queries[0]
        k = 5
        truth = reference.sweep(
            stored_objects(dense_database), query, k=k, alpha_range=alpha_range
        )
        result = dense_database.execute(
            SweepRequest(query, k=k, alpha_range=alpha_range, method=method)
        )
        assert_same_assignments(result.assignments, truth)

    @pytest.mark.parametrize("method", RKNN_METHODS)
    def test_matches_linear_scan_when_objects_share_membership_levels(self, method):
        # Memberships quantised to tenths: every profile has the same few
        # levels, each reached by many points of both objects at once, so the
        # profile's running minimum is read at corners far off the diagonal.
        rng = np.random.default_rng(91)

        def quantised(center, object_id=None):
            obj = make_fuzzy_object(rng, n_points=25, center=center, spread=0.8)
            mus = np.maximum(np.round(obj.memberships, 1), 0.1)
            return FuzzyObject(obj.points, mus, object_id=object_id)

        objects = [quantised(rng.random(2) * 6.0, object_id=i) for i in range(40)]
        database = FuzzyDatabase.build(objects, config=RuntimeConfig(rtree_max_entries=6))
        try:
            for alpha_range in [(0.3, 0.7), (0.45, 0.55), (0.1, 1.0)]:
                query = quantised([3.0, 3.0])
                truth = reference.sweep(
                    stored_objects(database), query, k=4, alpha_range=alpha_range
                )
                result = database.execute(
                    SweepRequest(query, k=4, alpha_range=alpha_range, method=method)
                )
                assert_same_assignments(result.assignments, truth)
        finally:
            database.close()

    @pytest.mark.parametrize("method", ["basic", "rss", "rss_icr"])
    def test_multiple_queries(self, dense_database, dense_queries, method):
        for query in dense_queries:
            truth = reference.sweep(
                stored_objects(dense_database), query, k=3, alpha_range=(0.4, 0.8)
            )
            result = dense_database.execute(
                SweepRequest(query, k=3, alpha_range=(0.4, 0.8), method=method)
            )
            assert_same_assignments(result.assignments, truth)

    @pytest.mark.parametrize("method", ["rss", "rss_icr"])
    def test_on_cell_dataset(self, cell_database, method):
        from repro.datasets.queries import generate_query_object

        rng = np.random.default_rng(17)
        query = generate_query_object(rng, kind="cells", space_size=7.0, points_per_object=40)
        truth = reference.sweep(
            stored_objects(cell_database), query, k=4, alpha_range=(0.35, 0.75)
        )
        result = cell_database.execute(
            SweepRequest(query, k=4, alpha_range=(0.35, 0.75), method=method)
        )
        assert_same_assignments(result.assignments, truth)

    @pytest.mark.parametrize("method", ["rss", "rss_icr"])
    def test_different_aknn_methods_give_same_answer(self, dense_database, dense_queries, method):
        query = dense_queries[1]
        baseline = dense_database.execute(
            SweepRequest(
                query, k=4, alpha_range=(0.4, 0.7), method=method, aknn_method="basic"
            ),
        )
        optimised = dense_database.execute(
            SweepRequest(
                query, k=4, alpha_range=(0.4, 0.7), method=method, aknn_method="lb_lp_ub"
            ),
        )
        assert_same_assignments(optimised.assignments, baseline.assignments)

    def test_k_larger_than_dataset(self, dense_database, dense_queries):
        result = dense_database.execute(
            SweepRequest(
                dense_queries[0], k=10_000, alpha_range=(0.4, 0.6), method="rss_icr"
            ),
        )
        # every object qualifies over the entire range
        assert len(result) == len(dense_database)
        for ranges in result.assignments.values():
            assert ranges.contains(0.4) and ranges.contains(0.6)

    def test_degenerate_range_matches_aknn(self, dense_database, dense_queries):
        query = dense_queries[2]
        aknn = reference.aknn(stored_objects(dense_database), query, k=5, alpha=0.55)
        rknn = dense_database.execute(
            SweepRequest(query, k=5, alpha_range=(0.55, 0.55), method="rss_icr")
        )
        assert sorted(rknn.object_ids) == sorted(object_id for object_id, _ in aknn)

    def test_result_metadata_and_qualifying_at(self, dense_database, dense_queries):
        query = dense_queries[0]
        result = dense_database.execute(
            SweepRequest(query, k=4, alpha_range=(0.4, 0.7), method="rss")
        )
        assert result.k == 4
        assert result.alpha_range == (0.4, 0.7)
        assert result.method == "rss"
        truth = reference.aknn(stored_objects(dense_database), query, k=4, alpha=0.55)
        assert sorted(result.qualifying_at(0.55)) == sorted(object_id for object_id, _ in truth)


class TestValidation:
    def test_invalid_parameters(self, dense_database, dense_queries):
        query = dense_queries[0]
        with pytest.raises(InvalidQueryError):
            dense_database.execute(SweepRequest(query, k=0, alpha_range=(0.3, 0.6)))
        with pytest.raises(InvalidQueryError):
            dense_database.execute(SweepRequest(query, k=3, alpha_range=(0.6, 0.3)))
        with pytest.raises(InvalidQueryError):
            dense_database.execute(SweepRequest(query, k=3, alpha_range=(0.0, 0.6)))
        with pytest.raises(InvalidQueryError):
            dense_database.execute(
                SweepRequest(query, k=3, alpha_range=(0.3, 0.6), method="bogus")
            )

    def test_empty_database(self):
        from repro.core.database import FuzzyDatabase
        from repro.fuzzy.fuzzy_object import FuzzyObject

        database = FuzzyDatabase.build([])
        result = database.execute(
            SweepRequest(
                FuzzyObject.single_point([0.0, 0.0]), k=3, alpha_range=(0.3, 0.6)
            ),
        )
        assert len(result) == 0


class TestCostBehaviour:
    def test_basic_issues_multiple_aknn_calls(self, dense_database, dense_queries):
        result = dense_database.execute(
            SweepRequest(dense_queries[0], k=5, alpha_range=(0.3, 0.7), method="basic")
        )
        assert result.stats.aknn_calls >= 2

    def test_rss_issues_one_aknn_and_one_range_call(self, dense_database, dense_queries):
        result = dense_database.execute(
            SweepRequest(dense_queries[0], k=5, alpha_range=(0.3, 0.7), method="rss")
        )
        assert result.stats.aknn_calls == 1
        assert result.stats.range_calls == 1

    def test_rss_accesses_fewer_objects_than_basic(self, dense_database, dense_queries):
        """Lemma 3 pruning: RSS must not access more objects than the basic
        sweep (summed over queries; this is Figure 13's headline claim)."""
        basic_total = 0
        rss_total = 0
        for query in dense_queries:
            basic_total += dense_database.execute(
                SweepRequest(query, k=5, alpha_range=(0.3, 0.7), method="basic")
            ).stats.object_accesses
            rss_total += dense_database.execute(
                SweepRequest(query, k=5, alpha_range=(0.3, 0.7), method="rss")
            ).stats.object_accesses
        assert rss_total <= basic_total

    def test_icr_reduces_refinement_steps(self, dense_database, dense_queries):
        """Lemma 4: RSS-ICR checks no more critical probabilities than RSS."""
        rss_steps = 0
        icr_steps = 0
        for query in dense_queries:
            rss_steps += dense_database.execute(
                SweepRequest(query, k=5, alpha_range=(0.2, 0.9), method="rss")
            ).stats.refinement_steps
            icr_steps += dense_database.execute(
                SweepRequest(query, k=5, alpha_range=(0.2, 0.9), method="rss_icr")
            ).stats.refinement_steps
        assert icr_steps <= rss_steps

    def test_rss_icr_reads_fewer_objects_than_rss(self, dense_database, dense_queries):
        """RSS reads every candidate (and the AKNN's confirmed neighbours);
        RSS-ICR reads only what the bounds at the range's ends leave
        undecided."""
        for query in dense_queries:
            reads = {
                method: dense_database.execute(
                    SweepRequest(
                        FuzzyObject(query.points, query.memberships), k=5,
                        alpha_range=(0.3, 0.7), method=method,
                    )
                ).stats.object_accesses
                for method in ("rss", "rss_icr")
            }
            assert reads["rss_icr"] < reads["rss"], reads

    @pytest.mark.parametrize("method", RKNN_METHODS)
    def test_every_profile_computed_is_a_distance_evaluation(
        self, dense_database, dense_queries, monkeypatch, method
    ):
        """A sweep reports one distance evaluation per profile it computes,
        on top of its sub-queries' own.  Profiles live for one request: run
        again with the same query instance, the sweep computes the same
        profiles."""
        profiles, sub_queries = [], []
        profile, merge = rknn_module.distance_profile, RKNNSearcher._merge_substats

        def counted_profile(*args, **kwargs):
            profiles.append(args[0].object_id)
            return profile(*args, **kwargs)

        def counted_merge(stats, sub):
            sub_queries.append(sub.distance_evaluations)
            merge(stats, sub)

        monkeypatch.setattr(rknn_module, "distance_profile", counted_profile)
        monkeypatch.setattr(RKNNSearcher, "_merge_substats", staticmethod(counted_merge))
        query = FuzzyObject(dense_queries[0].points, dense_queries[0].memberships)
        computed = []
        for _ in range(2):
            profiles.clear()
            sub_queries.clear()
            result = dense_database.execute(
                SweepRequest(query, k=5, alpha_range=(0.3, 0.7), method=method)
            )
            assert result.stats.distance_evaluations == len(profiles) + sum(sub_queries)
            computed.append(sorted(profiles))
        assert len(computed[0]) > 0
        assert computed[1] == computed[0]

    def test_candidate_count_recorded(self, dense_database, dense_queries):
        result = dense_database.execute(
            SweepRequest(dense_queries[0], k=5, alpha_range=(0.3, 0.7), method="rss")
        )
        assert result.stats.extra.get("candidates", 0) >= 5


class TestRankObjects:
    def test_orders_by_distance_then_id(self):
        distances = {3: 1.0, 1: 2.0, 2: 1.0, 4: 0.5}
        top, k_plus_1 = rank_objects(distances, 2)
        assert top == [4, 2]
        assert k_plus_1 == 1.0  # object 3 ties at distance 1.0

    def test_fewer_objects_than_k(self):
        top, k_plus_1 = rank_objects({1: 3.0}, 5)
        assert top == [1]
        assert k_plus_1 == float("inf")

    def test_empty(self):
        top, k_plus_1 = rank_objects({}, 3)
        assert top == []
        assert k_plus_1 == float("inf")


class TestRefinementHelpers:
    """The in-memory refinement routines against the reference's piecewise
    evaluation, which is handed the same steps as plain arrays."""

    @staticmethod
    def _random_steps(rng, count=12, levels=6):
        """``{id: (levels, distances)}`` of random non-decreasing step functions."""
        steps = {}
        for object_id in range(count):
            level_values = np.sort(rng.choice(np.linspace(0.05, 1.0, 20), size=levels, replace=False))
            if level_values[-1] < 1.0:
                level_values = np.append(level_values, 1.0)
            base = rng.random() * 3
            increments = np.cumsum(rng.random(level_values.size) * rng.integers(0, 2, level_values.size))
            steps[object_id] = (level_values, base + increments)
        return steps

    @pytest.mark.parametrize("k", [1, 3, 6])
    @pytest.mark.parametrize("refine", [refine_candidates_basic, refine_candidates_icr])
    def test_refinement_matches_piecewise_sweep(self, k, refine):
        for trial in range(5):
            steps = self._random_steps(np.random.default_rng(trial * 13 + k))
            profiles = {i: DistanceProfile(*step) for i, step in steps.items()}
            alpha_start, alpha_end = 0.2, 0.9
            expected = reference.piecewise(steps, k, alpha_start, alpha_end)
            actual = refine(profiles, k, alpha_start, alpha_end, QueryStats())
            assert_same_assignments(actual, expected)

    def test_icr_never_more_steps_than_basic(self):
        rng = np.random.default_rng(99)
        steps = self._random_steps(rng, count=20, levels=8)
        profiles = {i: DistanceProfile(*step) for i, step in steps.items()}
        basic_stats, icr_stats = QueryStats(), QueryStats()
        refine_candidates_basic(profiles, 4, 0.1, 0.95, basic_stats)
        refine_candidates_icr(profiles, 4, 0.1, 0.95, icr_stats)
        assert icr_stats.refinement_steps <= basic_stats.refinement_steps

    def test_single_candidate(self):
        profiles = {7: DistanceProfile([0.5, 1.0], [1.0, 2.0])}
        for refine in (refine_candidates_basic, refine_candidates_icr):
            assignments = refine(profiles, 2, 0.3, 0.8)
            assert list(assignments.keys()) == [7]
            assert assignments[7].contains(0.3) and assignments[7].contains(0.8)


class TestDeadline:
    """The sweep checks its deadline before every sub-query, on a single tree
    as on shards: a sweep whose first AKNN overruns stops there.  A sub-query
    is one search over every part, however many parts there are.  RSS-ICR,
    which makes no sub-query, checks before its traversal and between its
    two rank tests."""

    @staticmethod
    def _engine(n_shards):
        objects = build_dataset(
            kind="synthetic", n_objects=36, points_per_object=16, seed=5, space_size=6.0
        )
        config = RuntimeConfig(rtree_max_entries=8, cache_capacity=32)
        if n_shards is None:
            return FuzzyDatabase.build(objects, config=config)
        return ShardedDatabase.build(objects, n_shards=n_shards, config=config)

    @staticmethod
    def _query():
        return generate_query_object(
            np.random.default_rng(404), kind="synthetic", space_size=6.0,
            points_per_object=24,
        )

    @pytest.mark.parametrize("n_shards", [None, 1, 2])
    def test_stops_after_the_first_slow_sub_query(self, monkeypatch, n_shards):
        engine, query = self._engine(n_shards), self._query()
        request = dict(k=3, alpha_range=(0.1, 1.0), method="basic")
        # Unhurried, the sweep takes many sub-queries.
        assert engine.execute(SweepRequest(query, **request)).stats.aknn_calls > 2

        searches = []
        search = AKNNSearcher.search

        def slow(self, *args, **kwargs):
            searches.append(self)
            time.sleep(0.05)
            return search(self, *args, **kwargs)

        monkeypatch.setattr(AKNNSearcher, "search", slow)
        with pytest.raises(DeadlineExceededError):
            engine.execute(SweepRequest(query, **request, deadline_ms=20.0))
        # one sub-query: one search over every part
        assert len(searches) == 1
        engine.close()

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_rss_icr_expired_before_its_traversal_reads_nothing(self, monkeypatch, n_shards):
        """The radius comes from stored bounds; a deadline that runs out
        while it is found stops the sweep before any part is traversed."""
        engine = self._engine(n_shards)
        bootstrap, reads = rknn_module.bootstrap_radii, []
        get = ObjectStore.get

        def slow_bootstrap(*args, **kwargs):
            time.sleep(0.1)
            return bootstrap(*args, **kwargs)

        def logged_get(store, object_id):
            reads.append(object_id)
            return get(store, object_id)

        monkeypatch.setattr(rknn_module, "bootstrap_radii", slow_bootstrap)
        monkeypatch.setattr(ObjectStore, "get", logged_get)
        request = SweepRequest(
            self._query(), k=3, alpha_range=(0.1, 1.0), method="rss_icr",
            deadline_ms=50.0,
        )
        with pytest.raises(DeadlineExceededError):
            engine.execute(request)
        assert reads == []
        engine.close()

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_rss_icr_expired_between_rank_tests_stops_before_pass_2(
        self, monkeypatch, n_shards
    ):
        engine, query, calls = self._engine(n_shards), self._query(), []
        request = dict(k=3, alpha_range=(0.1, 1.0), method="rss_icr")
        # Unhurried, this sweep reads in both passes (2 + 11 objects).
        unhurried = engine.execute(
            SweepRequest(FuzzyObject(query.points, query.memberships), **request)
        )
        assert unhurried.stats.object_accesses > request["k"]
        rank_test = executor_module.rank_test

        def slow_rank_test(*args):
            calls.append(args)
            time.sleep(0.1)
            return rank_test(*args)

        monkeypatch.setattr(executor_module, "rank_test", slow_rank_test)
        before = engine.object_accesses
        with pytest.raises(DeadlineExceededError):
            engine.execute(SweepRequest(query, **request, deadline_ms=50.0))
        assert len(calls) == 1
        # Pass 1 reads at most k objects; pass 2 never ran.
        assert engine.object_accesses - before <= request["k"]
        engine.close()
