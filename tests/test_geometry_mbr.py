"""Unit tests for MBRs and the MinDist / MaxDist metrics (Equations 1 and 3)."""

import math

import numpy as np
import pytest

from repro.geometry.mbr import MBR, max_dist, min_dist


class TestConstruction:
    def test_from_bounds(self):
        box = MBR([0.0, 1.0], [2.0, 3.0])
        assert box.dimensions == 2
        assert np.allclose(box.lower, [0.0, 1.0])
        assert np.allclose(box.upper, [2.0, 3.0])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            MBR([1.0, 0.0], [0.0, 1.0])

    @pytest.mark.parametrize(
        "lower, upper",
        [([math.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, math.nan]), ([math.nan], [math.nan])],
    )
    def test_rejects_nan_in_either_bound(self, lower, upper):
        """``any(lower > upper)`` is False for NaN: the check must be ``all(lower <= upper)``."""
        with pytest.raises(ValueError):
            MBR(lower, upper)

    def test_rejects_nan_through_the_other_constructors(self):
        with pytest.raises(ValueError):
            MBR.from_points(np.array([[0.0, 1.0], [math.nan, 2.0]]))
        with pytest.raises(ValueError):
            MBR.from_array([0.0, math.nan, 1.0, 1.0])

    def test_infinite_bounds_are_still_boxes(self):
        box = MBR([-math.inf, 0.0], [math.inf, 1.0])
        assert box.contains(MBR([1e300, 0.5], [1e300, 0.5]))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            MBR([0.0], [1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MBR([], [])

    def test_from_points(self):
        points = np.array([[0.0, 5.0], [2.0, 1.0], [1.0, 3.0]])
        box = MBR.from_points(points)
        assert np.allclose(box.lower, [0.0, 1.0])
        assert np.allclose(box.upper, [2.0, 5.0])

    def test_from_points_rejects_empty(self):
        with pytest.raises(ValueError):
            MBR.from_points(np.empty((0, 2)))

    def test_from_point_is_degenerate(self):
        box = MBR.from_points(np.array([[3.0, 4.0]]))
        assert box.area() == 0.0
        assert np.array_equal(box.lower, box.upper)

    def test_union_of(self):
        a = MBR([0, 0], [1, 1])
        b = MBR([2, 2], [3, 3])
        union = MBR.union_of([a, b])
        assert np.allclose(union.lower, [0, 0])
        assert np.allclose(union.upper, [3, 3])

    def test_union_of_empty_raises(self):
        with pytest.raises(ValueError):
            MBR.union_of([])


class TestProperties:
    def test_center_extent_area_margin(self):
        box = MBR([0.0, 0.0], [2.0, 4.0])
        assert np.allclose(box.center, [1.0, 2.0])
        assert np.allclose(box.extent, [2.0, 4.0])
        assert box.area() == pytest.approx(8.0)

    def test_contains_point_boundary_inclusive(self):
        box = MBR([0.0, 0.0], [1.0, 1.0])
        assert box.contains(MBR([0.0, 1.0], [0.0, 1.0]))
        assert not box.contains(MBR([1.0001, 0.5], [1.0001, 0.5]))

    def test_contains_other_box(self):
        outer = MBR([0, 0], [10, 10])
        inner = MBR([2, 2], [3, 3])
        assert outer.contains(inner)
        assert not inner.contains(outer)

    def test_intersects(self):
        """Boxes overlap exactly when their MinDist is zero."""
        a = MBR([0, 0], [2, 2])
        b = MBR([1, 1], [3, 3])
        c = MBR([5, 5], [6, 6])
        assert min_dist(a, b) == 0.0
        assert min_dist(b, a) == 0.0
        assert min_dist(a, c) > 0.0

    def test_intersects_touching_boundary(self):
        a = MBR([0, 0], [1, 1])
        b = MBR([1, 1], [2, 2])
        assert min_dist(a, b) == 0.0


class TestCombination:
    def test_union(self):
        a = MBR([0, 0], [1, 1])
        b = MBR([2, -1], [3, 0.5])
        union = a.union(b)
        assert np.allclose(union.lower, [0, -1])
        assert np.allclose(union.upper, [3, 1])

class TestDistances:
    def test_min_dist_overlapping_is_zero(self):
        a = MBR([0, 0], [2, 2])
        b = MBR([1, 1], [3, 3])
        assert min_dist(a, b) == 0.0

    def test_min_dist_axis_separated(self):
        a = MBR([0, 0], [1, 1])
        b = MBR([3, 0], [4, 1])
        assert min_dist(a, b) == pytest.approx(2.0)

    def test_min_dist_diagonal(self):
        a = MBR([0, 0], [1, 1])
        b = MBR([2, 2], [3, 3])
        assert min_dist(a, b) == pytest.approx(math.sqrt(2.0))

    def test_max_dist_between_far_corners(self):
        a = MBR([0, 0], [1, 1])
        b = MBR([2, 2], [3, 3])
        assert max_dist(a, b) == pytest.approx(math.sqrt(18.0))

    def test_max_dist_of_identical_box_is_diagonal(self):
        a = MBR([0, 0], [1, 1])
        assert max_dist(a, a) == pytest.approx(math.sqrt(2.0))

    def test_min_le_max(self, rng):
        for _ in range(50):
            a = MBR.from_points(rng.random((5, 3)) * 10)
            b = MBR.from_points(rng.random((5, 3)) * 10)
            assert min_dist(a, b) <= max_dist(a, b) + 1e-12

    def test_point_distances(self):
        """A point's distances to a box are those of its degenerate box."""
        box = MBR([0, 0], [2, 2])

        def point(x, y):
            return MBR([x, y], [x, y])

        assert min_dist(box, point(1, 1)) == 0.0
        assert min_dist(box, point(4, 1)) == pytest.approx(2.0)
        assert max_dist(box, point(1, 1)) == pytest.approx(math.sqrt(2.0))
        assert max_dist(box, point(3, 3)) == pytest.approx(math.sqrt(18.0))

    def test_method_wrappers_match_functions(self):
        a = MBR([0, 0], [1, 1])
        b = MBR([2, 3], [4, 5])
        assert a.min_dist(b) == min_dist(a, b)
        assert a.max_dist(b) == max_dist(a, b)

    def test_mindist_bounds_pointwise_distance(self, rng):
        """MinDist lower-bounds and MaxDist upper-bounds any point pair distance."""
        for _ in range(20):
            pts_a = rng.random((10, 2)) * 5
            pts_b = rng.random((10, 2)) * 5 + 3
            a, b = MBR.from_points(pts_a), MBR.from_points(pts_b)
            pairwise = np.linalg.norm(pts_a[:, None, :] - pts_b[None, :, :], axis=2)
            assert min_dist(a, b) <= pairwise.min() + 1e-9
            assert max_dist(a, b) >= pairwise.max() - 1e-9


class TestSerialisationAndDunder:
    def test_roundtrip_array(self):
        box = MBR([0.5, -1.0], [2.5, 4.0])
        assert MBR.from_array(box.to_array()) == box

    def test_from_array_rejects_odd_length(self):
        with pytest.raises(ValueError):
            MBR.from_array([1.0, 2.0, 3.0])

    def test_equality_and_hash(self):
        a = MBR([0, 0], [1, 1])
        b = MBR([0, 0], [1, 1])
        c = MBR([0, 0], [2, 1])
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_repr(self):
        assert "MBR" in repr(MBR([0, 0], [1, 1]))
