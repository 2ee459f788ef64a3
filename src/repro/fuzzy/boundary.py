"""Boundary functions and optimal conservative lines (Section 3.2).

The improved lower bound approximates the MBR of an alpha-cut without storing
one rectangle per membership level.  For each dimension ``i`` and each side
(upper ``Mi+`` / lower ``Mi-``) the *boundary function*

``bf = { <alpha, delta(alpha)> | alpha in U_A }``,
``delta(alpha) = |Mi(alpha) - Mi(1)|``

records how far the alpha-cut boundary sits from the kernel boundary.  The
boundary function is non-increasing because alpha-cuts shrink.  It is then
approximated by the *optimal conservative line* (Definition 6): the straight
line ``y = m*alpha + t`` that stays on or above every ``delta(alpha)`` while
minimising the summed squared error.  Following Achtert et al. the optimum
interpolates an anchor point of the upper convex hull of the boundary
function and is located by bisection over the hull vertices.

One object's fit is a few NumPy passes plus a Python loop over a fraction of
its levels.  :func:`alpha_mbr_table` reads every level's exact box off two
suffix scans with one ``searchsorted``; :func:`conservative_lines` takes all
``2 d`` boundary functions from one subtraction and feeds the monotone chain
only the first level and the last level of each run of equal deltas.  That
leaves the chain unchanged in floating point, not only in exact arithmetic.
Deltas are non-increasing in alpha (suffix extremes of nested cuts), so any
vertex ``o`` under a stack top ``a`` has ``o.y >= a.y``, and for a fixed
``(o, a)`` the rounded ``cross(o, a, p) = (a.x-o.x)*(p.y-o.y) -
(a.y-o.y)*(p.x-o.x)`` is non-decreasing in ``p.x`` at fixed ``p.y`` (IEEE
rounding is monotone and ``a.y - o.y <= 0``).  So the next point ``p`` of a
run pops every vertex an earlier point ``a`` of the run popped, then ``a``
itself (``cross = (y-o.y)*((a.x-o.x) - (p.x-o.x)) >= 0``), leaving the stack
``a`` never entered.  Only the very first level must stay, as the stack's
bottom.  :func:`enclose_cuts` then lifts intercepts until the Equation (2)
box holds every exact cut box in coordinates: the Definition 6 check works
on deltas, and ``kernel + (coordinate - kernel)`` need not round back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.config import CONSERVATIVE_SLACK
from repro.fuzzy.fuzzy_object import MEMBERSHIP_ATOL, FuzzyObject
from repro.geometry.convexhull import upper_chain
from repro.geometry.mbr import MBR


@dataclass(frozen=True)
class ConservativeLine:
    """The line ``y = slope * alpha + intercept`` of Definition 6."""

    slope: float
    intercept: float

    def delta_at(self, alpha: float) -> float:
        """Conservative estimate of ``delta(alpha)`` (clamped at zero)."""
        return max(0.0, self.slope * alpha + self.intercept)

    def to_pair(self) -> Tuple[float, float]:
        """``(slope, intercept)`` for compact storage."""
        return (self.slope, self.intercept)

    @classmethod
    def from_pair(cls, pair: Sequence[float]) -> "ConservativeLine":
        """Inverse of :meth:`to_pair`."""
        return cls(float(pair[0]), float(pair[1]))


@dataclass(frozen=True)
class BoundaryFunction:
    """The sampled boundary function of one dimension/side of an object
    (``alphas`` strictly increasing, ``deltas`` non-increasing)."""

    alphas: np.ndarray
    deltas: np.ndarray

    def __post_init__(self) -> None:
        if self.alphas.shape != self.deltas.shape or self.alphas.ndim != 1:
            raise ValueError("alphas and deltas must be aligned 1-d arrays")
        if np.any(np.diff(self.alphas) <= 0.0) or np.any(np.diff(self.deltas) > 0.0):
            raise ValueError("alphas must increase strictly and deltas must not increase")

    def pairs(self) -> List[Tuple[float, float]]:
        """``(alpha, delta)`` tuples sorted by alpha."""
        return list(zip(self.alphas.tolist(), self.deltas.tolist()))

    @property
    def is_trivial(self) -> bool:
        """Whether the boundary never moves (all deltas are zero)."""
        return bool(np.all(self.deltas <= CONSERVATIVE_SLACK))


def alpha_mbr_table(obj: FuzzyObject) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact per-level alpha-cut bounding boxes.

    Returns ``(levels, lower, upper)`` where ``lower[j]`` / ``upper[j]`` are
    the per-dimension bounds of the alpha-cut at ``levels[j]``.  Computed with
    one sort, a pair of suffix scans and one ``searchsorted`` over all levels,
    so the cost is ``O(n log n + n d)``.
    """
    levels = obj.distinct_memberships()
    order = np.argsort(obj.memberships, kind="stable")
    mus = obj.memberships[order]
    # One row per dimension, so every pass runs along a contiguous row.
    coords = np.ascontiguousarray(obj.points.T[:, order])
    # Suffix aggregates: suffix_min[:, i] = min over points[i:], ditto for max.
    suffix_min = np.minimum.accumulate(coords[:, ::-1], axis=1)[:, ::-1]
    suffix_max = np.maximum.accumulate(coords[:, ::-1], axis=1)[:, ::-1]
    starts = np.minimum(np.searchsorted(mus, levels - MEMBERSHIP_ATOL, side="left"), mus.size - 1)
    return levels, suffix_min[:, starts].T, suffix_max[:, starts].T


def boundary_function(
    obj: FuzzyObject, dimension: int, side: str
) -> BoundaryFunction:
    """Boundary function of ``dimension`` of ``obj`` on ``side`` ``"upper"``
    (``Mi+``) or ``"lower"`` (``Mi-``)."""
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    levels, lower, upper = alpha_mbr_table(obj)
    column = (upper if side == "upper" else lower)[:, dimension]
    return BoundaryFunction(levels.copy(), np.abs(column - column[-1]))


def _anchor_bisection(
    alphas: np.ndarray, deltas: np.ndarray, hull: List[Tuple[float, float]]
) -> Tuple[float, float]:
    """The anchor-optimal line of Achtert et al.: the least-squares line
    through one hull vertex, bisecting over the vertices towards the side
    whose neighbour still lies above it."""
    lo, hi, slack = 0, len(hull) - 1, CONSERVATIVE_SLACK
    while lo <= hi:
        mid = (lo + hi) // 2
        x0, y0 = hull[mid]
        dx, dy = alphas - x0, deltas - y0
        denom = float(np.dot(dx, dx))
        slope = float(np.dot(dx, dy) / denom) if denom > 0.0 else 0.0
        icpt = y0 - slope * x0
        if mid + 1 < len(hull) and hull[mid + 1][1] > slope * hull[mid + 1][0] + icpt + slack:
            lo = mid + 1
        elif mid > 0 and hull[mid - 1][1] > slope * hull[mid - 1][0] + icpt + slack:
            hi = mid - 1
        else:
            break
    return slope, icpt


def _fit_rows(alphas: np.ndarray, deltas: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Definition 6 ``(slopes, intercepts)`` for every row of ``deltas``.

    Each row is one boundary function over the strictly increasing
    ``alphas``, its deltas non-increasing.
    """
    slopes = np.zeros(deltas.shape[0])
    # A single level or a flat boundary: the constant line at the largest
    # delta is both conservative and optimal.
    icpts = deltas.max(axis=1, initial=0.0)
    fit = np.flatnonzero((deltas > CONSERVATIVE_SLACK).any(axis=1))
    if alphas.size == 1 or fit.size == 0:
        return slopes, icpts
    fitted = deltas[fit]
    # The hull sees the first level and the last level of each run of equal
    # deltas, nothing else (see the module docstring).
    ends = np.ones(fitted.shape, dtype=bool)
    ends[:, 1:-1] = fitted[:, 1:-1] != fitted[:, 2:]
    xs = alphas[np.nonzero(ends)[1]].tolist()
    ys = fitted[ends].tolist()
    stops = np.cumsum(ends.sum(axis=1)).tolist()
    for row, values, start, stop in zip(fit.tolist(), fitted, [0] + stops, stops):
        hull = upper_chain(list(zip(xs[start:stop], ys[start:stop])))
        slope, icpt = _anchor_bisection(alphas, values, hull)
        # A non-positive slope also bounds delta *between* levels (where the
        # next level up's delta holds); degenerate inputs fall back to flat.
        if slope > 0.0:
            slope, icpt = 0.0, icpts[row]
        slopes[row], icpts[row] = slope, icpt
    # Guarantee conservativeness on every sampled point regardless of how the
    # bisection terminated (and regardless of rounding error).
    violation = (fitted - (slopes[fit, None] * alphas + icpts[fit, None])).max(axis=1)
    icpts[fit] = np.where(violation > 0.0, icpts[fit] + violation + CONSERVATIVE_SLACK, icpts[fit])
    return slopes, icpts


def fit_conservative_line(bf: BoundaryFunction) -> ConservativeLine:
    """The optimal conservative approximation of a boundary function: the
    anchor bisection over its upper convex hull, the intercept then lifted to
    absorb rounding so every sampled ``(alpha, delta)`` lies on or below."""
    slopes, icpts = _fit_rows(bf.alphas, bf.deltas[None, :])
    return ConservativeLine(float(slopes[0]), float(icpts[0]))


def conservative_lines(
    levels: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Definition 6 ``(slopes, intercepts)`` from one alpha-MBR table, each of
    length ``2 d``: the upper side's lines by dimension, then the lower's."""
    up, lo = upper.T, lower.T
    return _fit_rows(levels, np.concatenate((np.abs(up - up[:, -1:]), np.abs(lo - lo[:, -1:]))))


def enclose_cuts(
    levels: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    kernel: MBR,
    slopes: np.ndarray,
    intercepts: np.ndarray,
) -> np.ndarray:
    """Intercepts lifted until Equation (2) encloses every exact alpha-cut box.

    For every level ``j`` of the table the lines were fitted on and every
    alpha whose cut holds it (``mu >= alpha - MEMBERSHIP_ATOL``), afterwards
    ``kernel.upper + max(0, slope*alpha + t) >= upper[j]`` and
    ``kernel.lower - max(0, ...) <= lower[j]`` in float, evaluated as
    ``approx_alpha_mbr`` / ``NodeSoA.approx_alpha_bounds`` do.  Checking at
    ``levels + 2*MEMBERSHIP_ATOL`` covers every such alpha (slopes are
    non-positive, rounding monotone); the lower side is the upper side of
    negated coordinates.  A line that already encloses keeps its intercept.
    """
    base = np.concatenate((kernel.upper, -kernel.lower))
    # One row per line: (2 d, levels).
    bounds = np.concatenate((upper.T, -lower.T))
    products = slopes[:, None] * (levels + 2.0 * MEMBERSHIP_ATOL)
    short = base[:, None] + np.maximum(0.0, products + intercepts[:, None]) < bounds
    if not short.any():
        return intercepts
    intercepts = intercepts.copy()
    for line, level in zip(*np.nonzero(short)):
        kernel_side, bound, product = base[line], bounds[line, level], products[line, level]
        # The smallest delta whose sum with the kernel reaches the bound, then
        # an intercept whose line reaches that delta (one ulp at a time).
        need = bound - kernel_side
        while kernel_side + need < bound:
            need = math.nextafter(need, math.inf)
        lifted = need - product
        while product + lifted < need:
            lifted = math.nextafter(lifted, math.inf)
        intercepts[line] = max(intercepts[line], lifted)
    return intercepts


@dataclass(frozen=True)
class ObjectLines:
    """Per-dimension conservative lines for both sides of an object's MBR."""

    upper: Tuple[ConservativeLine, ...]
    lower: Tuple[ConservativeLine, ...]

    @property
    def dimensions(self) -> int:
        return len(self.upper)


def fit_object_lines(obj: FuzzyObject) -> ObjectLines:
    """Conservative lines for every dimension and side of ``obj``, lifted so
    Equation (2) around ``obj.kernel_mbr()`` holds every exact cut box.  With
    the kernel and support MBRs, all the improved lower bound needs."""
    levels, lower, upper = alpha_mbr_table(obj)
    slopes, intercepts = conservative_lines(levels, lower, upper)
    intercepts = enclose_cuts(levels, lower, upper, obj.kernel_mbr(), slopes, intercepts)
    lines = [ConservativeLine(m, t) for m, t in zip(slopes.tolist(), intercepts.tolist())]
    return ObjectLines(tuple(lines[: obj.dimensions]), tuple(lines[obj.dimensions :]))
