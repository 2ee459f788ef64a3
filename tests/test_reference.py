"""Unit tests for the brute-force reference the engine is checked against."""

import numpy as np
import pytest

from repro import reference
from repro.fuzzy.fuzzy_object import FuzzyObject
from tests.conftest import make_fuzzy_object


@pytest.fixture
def objects_and_query(rng):
    objects = [
        make_fuzzy_object(rng, n_points=25, center=rng.random(2) * 10, object_id=i)
        for i in range(20)
    ]
    query = make_fuzzy_object(rng, n_points=25, center=[5.0, 5.0])
    return objects, query


def pairwise_min(a, b, alpha):
    """``d_alpha`` from Definition 3: the closest pair of the two cuts."""
    cut_a = a.points[a.memberships >= alpha]
    cut_b = b.points[b.memberships >= alpha]
    return min(float(np.linalg.norm(p - q)) for p in cut_a for q in cut_b)


def covering(assignments, alpha):
    return sorted(
        object_id
        for object_id, ranges in assignments.items()
        if any(start <= alpha <= end for start, end in ranges)
    )


class TestAKNN:
    def test_returns_k_smallest_distances(self, objects_and_query):
        objects, query = objects_and_query
        result = reference.aknn(objects, query, k=5, alpha=0.5)
        assert len(result) == 5
        all_distances = sorted(pairwise_min(obj, query, 0.5) for obj in objects)
        np.testing.assert_allclose([d for _, d in result], all_distances[:5])

    def test_ties_break_by_object_id(self, rng):
        base = make_fuzzy_object(rng, n_points=10, center=[2.0, 2.0])
        twins = [
            FuzzyObject(base.points.copy(), base.memberships.copy(), object_id=i)
            for i in (7, 3, 5)
        ]
        far = make_fuzzy_object(rng, n_points=10, center=[9.0, 9.0], object_id=1)
        query = make_fuzzy_object(rng, n_points=10, center=[2.5, 2.5])
        result = reference.aknn([far] + twins, query, k=3, alpha=0.5)
        assert [object_id for object_id, _ in result] == [3, 5, 7]
        assert len({d for _, d in result}) == 1

    def test_k_larger_than_dataset(self, objects_and_query):
        objects, query = objects_and_query
        assert len(reference.aknn(objects, query, k=100, alpha=0.5)) == len(objects)

    def test_alpha_one_uses_the_kernel_only(self):
        """At alpha = 1 only membership-1 points count, however close the rest."""
        a = FuzzyObject(
            np.array([[0.0, 0.0], [10.0, 0.0]]), np.array([0.999995, 1.0]), object_id=0
        )
        b = FuzzyObject.crisp(np.array([[3.0, 0.0]]), object_id=1)
        query = FuzzyObject.single_point([0.0, 0.0])
        assert reference.aknn([a, b], query, k=2, alpha=1.0) == [(1, 3.0), (0, 10.0)]
        assert reference.aknn([a, b], query, k=1, alpha=0.9) == [(0, 0.0)]

    def test_invalid_parameters(self, objects_and_query):
        objects, query = objects_and_query
        with pytest.raises(ValueError):
            reference.aknn(objects, query, k=0, alpha=0.5)
        with pytest.raises(ValueError):
            reference.aknn(objects, query, k=3, alpha=1.5)

    def test_empty_input(self, objects_and_query):
        _, query = objects_and_query
        assert reference.aknn([], query, k=3, alpha=0.5) == []


class TestRangeSearch:
    def test_matches_manual_filter(self, objects_and_query):
        objects, query = objects_and_query
        radius = 2.5
        result = reference.range_search(objects, query, 0.5, radius)
        expected = sorted(
            obj.object_id for obj in objects if pairwise_min(obj, query, 0.5) <= radius
        )
        assert sorted(object_id for object_id, _ in result) == expected
        assert all(distance <= radius for _, distance in result)

    def test_zero_radius(self, objects_and_query):
        objects, query = objects_and_query
        for _, distance in reference.range_search(objects, query, 0.5, 0.0):
            assert distance == 0.0
        touching = [query.with_id(99)] + objects
        assert reference.range_search(touching, query, 0.5, 0.0) == [(99, 0.0)]

    def test_negative_radius_rejected(self, objects_and_query):
        objects, query = objects_and_query
        with pytest.raises(ValueError):
            reference.range_search(objects, query, 0.5, -1.0)


class TestSweep:
    def test_assignments_match_pointwise_topk(self, objects_and_query):
        """At any alpha inside the range, the objects whose qualifying range
        covers alpha are exactly the pointwise top-k."""
        objects, query = objects_and_query
        k = 4
        result = reference.sweep(objects, query, k=k, alpha_range=(0.3, 0.8))
        for alpha in (0.3, 0.45, 0.61, 0.8):
            expected = [object_id for object_id, _ in reference.aknn(objects, query, k, alpha)]
            assert covering(result, alpha) == sorted(expected)

    def test_every_range_inside_query_range(self, objects_and_query):
        objects, query = objects_and_query
        result = reference.sweep(objects, query, k=3, alpha_range=(0.4, 0.6))
        for ranges in result.values():
            assert ranges[0][0] >= 0.4 and ranges[-1][1] <= 0.6
            # merged, disjoint and sorted
            assert all(a[1] < b[0] for a, b in zip(ranges, ranges[1:]))

    def test_invalid_range_rejected(self, objects_and_query):
        objects, query = objects_and_query
        with pytest.raises(ValueError):
            reference.sweep(objects, query, k=3, alpha_range=(0.6, 0.4))
        with pytest.raises(ValueError):
            reference.sweep(objects, query, k=3, alpha_range=(0.0, 0.5))
        with pytest.raises(ValueError):
            reference.sweep(objects, query, k=0, alpha_range=(0.3, 0.5))

    def test_degenerate_range_equals_aknn(self, objects_and_query):
        objects, query = objects_and_query
        sweep = reference.sweep(objects, query, k=3, alpha_range=(0.5, 0.5))
        aknn = reference.aknn(objects, query, k=3, alpha=0.5)
        assert sorted(sweep) == sorted(object_id for object_id, _ in aknn)
        assert all(ranges == [(0.5, 0.5)] for ranges in sweep.values())

    def test_left_endpoint_on_a_level_is_its_own_piece(self):
        """A is nearest exactly at alpha = 0.5 (its 0.5-point still counts)
        and B on the piece above it: both qualify, A only at the endpoint."""
        a = FuzzyObject(
            np.array([[1.0, 0.0], [5.0, 0.0]]), np.array([0.5, 1.0]), object_id=0
        )
        b = FuzzyObject.crisp(np.array([[2.0, 0.0]]), object_id=1)
        query = FuzzyObject.single_point([0.0, 0.0])
        result = reference.sweep([a, b], query, k=1, alpha_range=(0.5, 0.9))
        assert result == {0: [(0.5, 0.5)], 1: [(0.5, 0.9)]}


class TestProfile:
    def test_profile_equals_per_level_recomputation(self, rng):
        a = make_fuzzy_object(rng, n_points=15, center=[0.0, 0.0])
        b = make_fuzzy_object(rng, n_points=12, center=[1.5, 0.5])
        levels, distances = reference.profile(a, b)
        assert np.all(np.diff(levels) > 0) and np.all(np.diff(distances) >= 0)
        assert set(levels) == set(np.minimum.outer(a.memberships, b.memberships).ravel())
        for level, distance in zip(levels, distances):
            assert distance == pytest.approx(pairwise_min(a, b, level), abs=1e-12)

    def test_sweep_from_profiles_matches_per_level_topk(self, objects_and_query):
        """Between two consecutive levels every distance is the one at the
        upper level, so the sweep's top-k there (from the pair profiles) is
        the one recomputed from the cuts at that level."""
        objects, query = objects_and_query
        k = 3
        result = reference.sweep(objects, query, k=k, alpha_range=(0.2, 0.9))
        levels = np.unique(np.concatenate([reference.profile(o, query)[0] for o in objects]))
        levels = levels[(levels > 0.2) & (levels < 0.9)]
        for lower, upper in list(zip(levels, levels[1:]))[::40]:
            expected = reference.aknn(objects, query, k, upper)
            assert covering(result, (lower + upper) / 2) == sorted(
                object_id for object_id, _ in expected
            )


class TestPiecewise:
    def test_handcrafted_crossover(self):
        """Two objects whose distance curves cross: the assignment switches at
        the crossing level."""
        profiles = {
            1: (np.array([0.5, 1.0]), np.array([1.0, 5.0])),
            2: (np.array([1.0]), np.array([2.0])),
        }
        assignments = reference.piecewise(profiles, k=1, alpha_start=0.2, alpha_end=0.9)
        # Object 1 is closer until alpha = 0.5, object 2 afterwards.
        assert assignments == {1: [(0.2, 0.5)], 2: [(0.5, 0.9)]}

    def test_empty_profiles(self):
        assert reference.piecewise({}, 3, 0.2, 0.8) == {}


class TestReverse:
    def test_hand_made_line(self):
        """Points at x = 0, 1, 10 and the query at x = 2.  Object 1 is as far
        from object 0 as from the query: a tie is not strictly closer."""
        objects = [
            FuzzyObject.single_point([x, 0.0], object_id=i)
            for i, x in enumerate((0.0, 1.0, 10.0))
        ]
        query = FuzzyObject.single_point([2.0, 0.0])
        assert reference.reverse(objects, query, 1, 0.5) == [(1, 1.0), (2, 8.0)]
        assert [i for i, _ in reference.reverse(objects, query, 2, 0.5)] == [0, 1, 2]

    def test_duplicates_at_distance_zero(self, rng):
        """Twins are strictly closer to each other than any query not on
        them, and a query on them is closer than nothing."""
        base = make_fuzzy_object(rng, n_points=10, center=[2.0, 2.0])
        twins = [
            FuzzyObject(base.points.copy(), base.memberships.copy(), object_id=i)
            for i in range(3)
        ]
        others = [
            make_fuzzy_object(rng, n_points=10, center=[6.0 + i, 6.0], object_id=3 + i)
            for i in range(3)
        ]
        near = make_fuzzy_object(rng, n_points=10, center=[2.5, 2.5])
        # two twins are at distance 0 from each twin: k=2 cannot admit Q
        assert 0 not in dict(reference.reverse(twins + others, near, 2, 0.5))
        assert {0, 1, 2} <= set(dict(reference.reverse(twins + others, near, 3, 0.5)))
        on_them = FuzzyObject(base.points.copy(), base.memberships.copy())
        answer = dict(reference.reverse(twins + others, on_them, 1, 0.5))
        assert {0, 1, 2} <= set(answer) and answer[0] == 0.0

    def test_k_at_least_n_returns_everything(self, objects_and_query):
        objects, query = objects_and_query
        assert len(reference.reverse(objects, query, len(objects), 0.5)) == len(objects)
