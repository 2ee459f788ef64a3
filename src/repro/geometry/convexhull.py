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
