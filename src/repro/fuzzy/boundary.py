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

Objects are fitted a stack of one shape at a time (:func:`fit_stack`): one
sort, one suffix scan and one merge read every cut box, the lower bounds
negated so every line is an upper side.  Python still runs the monotone
chain per line, fed only the first level and the last level of each run of
equal deltas.  That leaves the chain unchanged in floating point, not only
in exact arithmetic.  Deltas are non-increasing in alpha (suffix extremes of
nested cuts), so any vertex ``o`` under a stack top ``a`` has
``o.y >= a.y``, and for a fixed
``(o, a)`` the rounded ``cross(o, a, p) = (a.x-o.x)*(p.y-o.y) -
(a.y-o.y)*(p.x-o.x)`` is non-decreasing in ``p.x`` at fixed ``p.y`` (IEEE
rounding is monotone and ``a.y - o.y <= 0``).  So the next point ``p`` of a
run pops every vertex an earlier point ``a`` of the run popped, then ``a``
itself (``cross = (y-o.y)*((a.x-o.x) - (p.x-o.x)) >= 0``), leaving the stack
``a`` never entered.  Only the very first level must stay, as the stack's
bottom.  The anchor bisection, too, moves per line in Python; its sums run
stacked.  :func:`_stack_lift` lifts intercepts until the Equation (2) box
holds every exact cut box in coordinates: the Definition 6 check works on
deltas, and ``kernel + (coordinate - kernel)`` need not round back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry.convexhull import upper_chain
from repro.predicates import CONSERVATIVE_SLACK, LEVEL_ATOL, at_least


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


def _stack_cuts(points: np.ndarray, memberships: np.ndarray):
    """For ``R`` objects of one shape (``points`` ``(R, n, d)``): memberships
    sorted per object, where each level starts in them, and per position the
    box of its level's cut and of the points from it on, as ``(R, n, 2 d)``
    line bounds (upper bounds, then negated lower bounds)."""
    count, size = memberships.shape
    rows = np.arange(count)[:, None]
    order = np.argsort(memberships, axis=1, kind="stable")
    mus, coords = memberships[rows, order], points[rows, order]
    backwards = np.concatenate((coords, -coords), axis=2)[:, ::-1]
    bounds = np.maximum.accumulate(backwards, axis=1)[:, ::-1]
    # A level's cut starts at the first mu at_least the level: merge the
    # thresholds level - LEVEL_ATOL into the memberships, each before its equals.
    keys = np.concatenate((mus - LEVEL_ATOL, mus), axis=1)
    merged = np.argsort(keys, axis=1, kind="stable")
    cuts = bounds[rows, np.nonzero(merged < size)[1].reshape(count, size) - np.arange(size)]
    first = np.ones(mus.shape, dtype=bool)
    first[:, 1:] = mus[:, 1:] != mus[:, :-1]
    return mus, first, cuts, bounds


def _anchor_bisection(
    alphas: np.ndarray, deltas: np.ndarray, hulls: List[List[Tuple[float, float]]]
) -> Tuple[np.ndarray, np.ndarray]:
    """The anchor-optimal line of Achtert et al. for every row: the
    least-squares line through one vertex of the row's hull, bisecting over
    the vertices towards the side whose neighbour still lies above it.
    A step fits every unfinished row's vertex at once; the sums are stacked
    ``matmul``s of ``(R, 1, L) @ (R, L, 1)``, the BLAS ``ddot`` that
    ``np.dot`` calls on one contiguous row (``test_stacked_matmul_is_ddot``).
    """
    slopes, icpts = [0.0] * len(hulls), [0.0] * len(hulls)
    live = [(row, 0, len(hull) - 1) for row, hull in enumerate(hulls)]
    while live:
        mids = [(lo + hi) // 2 for _, lo, hi in live]
        x0, y0 = np.array([hulls[row][mid] for (row, _, _), mid in zip(live, mids)]).T
        dx = alphas - x0[:, None]
        denom = (dx[:, None] @ dx[:, :, None]).ravel()
        numer = (dx[:, None] @ (deltas - y0[:, None])[:, :, None]).ravel()
        slope = np.where(denom > 0.0, numer, 0.0) / np.where(denom > 0.0, denom, 1.0)
        moved, kept, slack = [], [], CONSERVATIVE_SLACK
        lines = zip(live, mids, slope.tolist(), (y0 - slope * x0).tolist())
        for at, ((row, lo, hi), mid, m, t) in enumerate(lines):
            slopes[row], icpts[row], hull = m, t, hulls[row]
            up = mid + 1 < len(hull) and hull[mid + 1][1] > m * hull[mid + 1][0] + t + slack
            down = not up and mid > 0 and hull[mid - 1][1] > m * hull[mid - 1][0] + t + slack
            lo, hi = (mid + 1, hi) if up else (lo, mid - 1) if down else (1, 0)
            if lo <= hi:
                moved.append((row, lo, hi))
                kept.append(at)
        if len(kept) < len(live):  # only the unfinished rows' levels
            alphas, deltas = alphas[kept], deltas[kept]
        live = moved
    return np.array(slopes), np.array(icpts)


def _fit_rows(alphas: np.ndarray, deltas: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Definition 6 ``(slopes, intercepts)`` for every row of ``deltas``.

    Row ``r`` is one boundary function over the strictly increasing levels
    ``alphas[r]``, its deltas non-increasing.
    """
    slopes = np.zeros(deltas.shape[0])
    # A single level or a flat boundary: the constant line at the largest
    # delta is both conservative and optimal.
    icpts = deltas.max(axis=1, initial=0.0)
    fit = icpts > CONSERVATIVE_SLACK
    if deltas.shape[1] == 1 or not fit.any():
        return slopes, icpts
    # C order: the bisection's sums must each run over one contiguous row
    # (a strided row takes another kernel, with other rounding).
    alphas, deltas = np.ascontiguousarray(alphas), np.ascontiguousarray(deltas)
    # The hull sees the first level and the last level of each run of equal
    # deltas, nothing else (see the module docstring).
    ends = np.ones(deltas.shape, dtype=bool)
    ends[:, 1:-1] = deltas[:, 1:-1] != deltas[:, 2:]
    pairs = list(zip(alphas[ends].tolist(), deltas[ends].tolist()))
    stops = ends.sum(axis=1).cumsum().tolist()
    hulls = [upper_chain(pairs[a:b]) for a, b in zip([0] + stops, stops)]
    slope, icpt = _anchor_bisection(alphas, deltas, hulls)
    # A non-positive slope also bounds delta *between* levels (where the
    # next level up's delta holds); degenerate inputs, and the flat rows the
    # bisection ran on too, take the flat line.
    keep = fit & (slope <= 0.0)
    slopes, icpts = np.where(keep, slope, slopes), np.where(keep, icpt, icpts)
    # Guarantee conservativeness on every sampled point regardless of how the
    # bisection terminated (and regardless of rounding error); a flat line
    # needs no lift.
    violation = (deltas - (slopes[:, None] * alphas + icpts[:, None])).max(axis=1)
    return slopes, np.where(violation > 0.0, icpts + violation + CONSERVATIVE_SLACK, icpts)


def _stack_lines(levels: np.ndarray, table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Definition 6 ``(G, 2 d)`` slopes and intercepts of ``G`` alpha-MBR
    tables of ``L`` levels given as ``(G, L, 2 d)`` line bounds (the upper
    side's lines by dimension, then the lower's); a delta is
    ``|bound - its last level's|``."""
    count, width, lines = table.shape
    deltas = np.abs(table - table[:, -1:]).transpose(0, 2, 1).reshape(-1, width)
    slopes, intercepts = _fit_rows(np.repeat(levels, lines, axis=0), deltas)
    return slopes.reshape(count, lines), intercepts.reshape(count, lines)


def _stack_lift(levels, table, base, slopes, intercepts) -> np.ndarray:
    """Intercepts lifted until Equation (2) encloses every exact alpha-cut box,
    for ``G`` tables at once, each kernel box given as its ``(2 d,)`` line
    bounds in ``base`` ``(G, 2 d)``.

    For every level ``j`` of a table and every alpha whose cut holds it
    (``at_least(mu, alpha)``), afterwards
    ``kernel.upper + max(0, slope*alpha + t) >= upper[j]`` and
    ``kernel.lower - max(0, ...) <= lower[j]`` in float, evaluated as
    ``NodeSoA.approx_alpha_bounds`` does.  Checking at
    ``levels + 2*LEVEL_ATOL`` covers every such alpha (slopes are
    non-positive, rounding monotone); the lower side is the upper side of
    negated coordinates.  A line that already encloses keeps its intercept.
    """
    products = slopes[:, None, :] * (levels[:, :, None] + 2.0 * LEVEL_ATOL)
    short = base[:, None, :] + np.maximum(0.0, products + intercepts[:, None, :]) < table
    if not short.any():
        return intercepts
    intercepts = intercepts.copy()
    for at in zip(*np.nonzero(short)):
        line = (at[0], at[2])
        kernel_side, bound, product = base[line], table[at], products[at]
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


def fit_stack(
    points: np.ndarray, memberships: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Support box, kernel box (as ``(R, 2 d)`` line bounds) and lifted
    ``(R, 2 d)`` slopes and intercepts of ``R`` objects of one shape that all
    have a kernel.  Fitted per level count: the bisection's sums must run
    over exactly an object's levels (zero padding changes ``ddot``'s bits).
    """
    mus, first, cuts, bounds = _stack_cuts(points, memberships)
    kernel = bounds[np.arange(len(mus)), (~at_least(mus, 1.0)).sum(axis=1)]
    widths = first.sum(axis=1)
    slopes, intercepts = np.empty(kernel.shape), np.empty(kernel.shape)
    for width in set(widths.tolist()):
        group = widths == width
        pick = first & group[:, None]
        levels = mus[pick].reshape(-1, width)
        table = cuts[pick].reshape(-1, width, kernel.shape[1])
        line_slopes, line_intercepts = _stack_lines(levels, table)
        slopes[group] = line_slopes
        intercepts[group] = _stack_lift(levels, table, kernel[group], line_slopes, line_intercepts)
    return bounds[:, 0], kernel, slopes, intercepts
