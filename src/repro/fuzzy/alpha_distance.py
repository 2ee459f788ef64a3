"""The alpha-distance of Definition 3 and distance profiles.

``d_alpha(A, B) = min_{a in A_alpha, b in B_alpha} ||a - b||``

The alpha-distance is evaluated by solving a closest-pair problem between the
two alpha-cuts.  Because alpha-cuts only change when alpha crosses a
membership level, the full map ``alpha -> d_alpha(A, B)`` is a
piecewise-constant, monotonically non-decreasing step function; the
:func:`distance_profile` helper materialises it exactly, which is the basis of
exact RKNN processing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import EmptyAlphaCutError, InvalidFuzzyObjectError
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.fuzzy.profile import DistanceProfile
from repro.geometry.distance import closest_pair_distance, pairwise_sq_blocks
from repro.predicates import at_least, first_above, first_at_least


def alpha_distance_points(cut_a: np.ndarray, cut_b: np.ndarray) -> float:
    """Alpha-distance between two already-materialised alpha-cuts."""
    if cut_a.shape[0] == 0 or cut_b.shape[0] == 0:
        raise EmptyAlphaCutError("cannot evaluate a distance against an empty cut")
    return closest_pair_distance(cut_a, cut_b)


def alpha_distance(obj_a: FuzzyObject, obj_b: FuzzyObject, alpha: float) -> float:
    """``d_alpha(A, B)``: minimum distance between the two alpha-cuts."""
    if obj_a.dimensions != obj_b.dimensions:
        raise InvalidFuzzyObjectError(
            "alpha-distance requires objects of the same dimensionality"
        )
    cut_a = obj_a.alpha_cut(alpha)
    cut_b = obj_b.alpha_cut(alpha)
    return alpha_distance_points(cut_a, cut_b)


def distance_profile(
    obj_a: FuzzyObject,
    obj_b: FuzzyObject,
    max_level: Optional[float] = None,
) -> DistanceProfile:
    """Exact profile of ``alpha -> d_alpha(A, B)`` over ``(0, 1]``.

    The alpha-cut of either object only changes when alpha crosses one of its
    distinct membership values, so the distance is constant on every interval
    ``(u_{i-1}, u_i]`` where ``u_1 < ... < u_m`` are the combined distinct
    membership levels of ``A`` and ``B``.  The profile stores one distance per
    such interval.

    Parameters
    ----------
    max_level:
        When given, levels above this value are not evaluated (the profile is
        truncated at the smallest level >= ``max_level``).  Used by RKNN
        processing to avoid computing distances beyond the query range.
    """
    if obj_a.dimensions != obj_b.dimensions:
        raise InvalidFuzzyObjectError(
            "distance profile requires objects of the same dimensionality"
        )
    levels = np.union1d(obj_a.distinct_memberships(), obj_b.distinct_memberships())
    # Membership values are in (0, 1]; make sure 1.0 is always present so the
    # profile covers the full domain up to the kernel-vs-kernel distance.
    if not at_least(levels[-1], 1.0):
        levels = np.append(levels, 1.0)
    if max_level is not None:
        # Up to the first level above max_level, so evaluation at max_level works.
        levels = levels[: first_above(levels, max_level) + 1]

    # Sort both objects by decreasing membership once; every alpha-cut is then
    # a prefix of the sorted arrays, so d(level) is the minimum of the leading
    # (count_a, count_b) corner of one pairwise matrix D: the 2-D running
    # minimum of D read at (count_a - 1, count_b - 1).
    pts_a = obj_a.points[np.argsort(-obj_a.memberships, kind="stable")]
    pts_b = obj_b.points[np.argsort(-obj_b.memberships, kind="stable")]
    count_a = pts_a.shape[0] - first_at_least(np.sort(obj_a.memberships), levels)
    count_b = pts_b.shape[0] - first_at_least(np.sort(obj_b.memberships), levels)
    # An empty cut on either side puts the level's row at -1: never read, so inf.
    rows = np.where(count_b > 0, count_a, 0) - 1
    cols = count_b - 1

    # D is taken row block by row block and never held whole: the column-wise
    # minimum of the rows above is carried into each block, and only the cells
    # of the levels whose corner ends inside the block are read.
    sq = np.full(levels.size, np.inf)
    carry = np.full(pts_b.shape[0], np.inf)
    for start, block in pairwise_sq_blocks(pts_a, pts_b):
        np.minimum(block[0], carry, out=block[0])
        np.minimum.accumulate(block, axis=0, out=block)
        carry[:] = block[-1]
        np.minimum.accumulate(block, axis=1, out=block)
        here = (rows >= start) & (rows < start + block.shape[0])
        sq[here] = block[rows[here] - start, cols[here]]
    return DistanceProfile(levels, np.sqrt(sq))
