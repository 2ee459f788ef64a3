"""Upper convex hull (Andrew's monotone chain).

The optimal conservative line of Definition 6 interpolates an *anchor point*
of the upper convex hull (UCH) of the boundary function.  The paper cites
Andrew's monotone chain algorithm [3] for building the hull in linear time on
sorted input.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

Point2D = Tuple[float, float]


def upper_chain(points: Sequence[Point2D]) -> List[Point2D]:
    """Upper convex hull of points already sorted (by x, then y) and distinct."""
    if len(points) <= 2:
        return list(points)
    upper: List[Point2D] = []
    for p in points:
        px, py = p
        # Pop while the last three points make a left turn (or are collinear),
        # keeping only vertices where the chain turns right: the 2-d cross
        # product OA x OP is non-negative.
        while len(upper) >= 2:
            (ox, oy), (ax, ay) = upper[-2], upper[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) < 0:
                break
            upper.pop()
        upper.append(p)
    return upper


def upper_convex_hull(points: Sequence[Point2D]) -> List[Point2D]:
    """Upper convex hull ordered by increasing x.

    The returned chain starts at the point with smallest x, ends at the point
    with largest x, and the slopes of consecutive segments are monotonically
    non-increasing (every interior vertex is a "right turn").  All input
    points lie on or below the chain.
    """
    pts = sorted({(float(x), float(y)) for x, y in points})
    if not pts:
        raise ValueError("convex hull of an empty point set is undefined")
    return upper_chain(pts)
