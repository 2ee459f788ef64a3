"""Unit tests for the monotone-chain upper hull of sorted points, with a full
hull as a test helper."""

from typing import List, Sequence, Tuple

import numpy as np
import pytest

from repro.geometry.convexhull import upper_chain

Point2D = Tuple[float, float]


def _cross(o: Point2D, a: Point2D, b: Point2D) -> float:
    """2-d cross product (OA x OB); positive for a counter-clockwise turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Sequence[Point2D]) -> List[Point2D]:
    """Full convex hull in counter-clockwise order (monotone chain)."""
    pts = sorted({(float(x), float(y)) for x, y in points})
    if not pts:
        raise ValueError("convex hull of an empty point set is undefined")
    if len(pts) <= 2:
        return pts
    lower: List[Point2D] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Point2D] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def is_right_turn_chain(points: Sequence[Point2D]) -> bool:
    """Whether every consecutive triple turns right (slopes never increase).

    Exact: the upper hull keeps a vertex only when the rounded cross product
    of the same formula is negative, so its output passes with no slack.
    """
    pts = [(float(x), float(y)) for x, y in points]
    return all(_cross(pts[i], pts[i + 1], pts[i + 2]) <= 0 for i in range(len(pts) - 2))


class TestConvexHull:
    def test_square(self):
        points = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
        hull = convex_hull(points)
        assert set(hull) == {(0, 0), (1, 0), (1, 1), (0, 1)}

    def test_collinear_points(self):
        points = [(0, 0), (1, 1), (2, 2), (3, 3)]
        hull = convex_hull(points)
        assert set(hull) == {(0, 0), (3, 3)}

    def test_duplicate_points_removed(self):
        hull = convex_hull([(0, 0), (0, 0), (1, 0), (1, 1)])
        assert set(hull) == {(0, 0), (1, 0), (1, 1)}

    def test_single_and_pair(self):
        assert convex_hull([(1, 2)]) == [(1.0, 2.0)]
        assert convex_hull([(1, 2), (0, 0)]) == [(0.0, 0.0), (1.0, 2.0)]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            convex_hull([])

    def test_random_points_inside_hull(self, rng):
        points = [tuple(p) for p in rng.random((60, 2))]
        hull = convex_hull(points)
        # every hull vertex is an input point
        assert set(hull) <= {(float(x), float(y)) for x, y in points}
        # the hull of the hull is the hull (idempotence)
        assert set(convex_hull(hull)) == set(hull)


class TestUpperConvexHull:
    def test_simple_decreasing_curve(self):
        # A concave-down decreasing sequence keeps every point.
        points = [(0.0, 1.0), (0.5, 0.9), (1.0, 0.0)]
        hull = upper_chain(points)
        assert hull[0] == (0.0, 1.0)
        assert hull[-1] == (1.0, 0.0)
        assert is_right_turn_chain(hull)

    def test_points_below_chain(self, rng):
        xs = np.sort(rng.random(30))
        ys = rng.random(30)
        pairs = list(zip(xs.tolist(), ys.tolist()))
        hull = upper_chain(pairs)
        assert is_right_turn_chain(hull)
        # every input point lies on or below the chain
        hx = np.array([p[0] for p in hull])
        hy = np.array([p[1] for p in hull])
        for x, y in pairs:
            y_chain = np.interp(x, hx, hy)
            assert y <= y_chain + 1e-9

    def test_spans_x_extremes(self, rng):
        pairs = sorted((float(x), float(y)) for x, y in rng.random((20, 2)))
        hull = upper_chain(pairs)
        xs = sorted(p[0] for p in pairs)
        assert hull[0][0] == pytest.approx(xs[0])
        assert hull[-1][0] == pytest.approx(xs[-1])

    def test_is_right_turn_chain_detects_violation(self):
        assert is_right_turn_chain([(0, 0), (1, 1), (2, 0)])
        assert not is_right_turn_chain([(0, 0), (1, -1), (2, 0)])

    def test_two_points(self):
        assert upper_chain([(0.0, 0.0), (1.0, 5.0)]) == [(0.0, 0.0), (1.0, 5.0)]
