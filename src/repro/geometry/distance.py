"""Distance kernels between point sets.

Evaluating the alpha-distance of Definition 3 reduces to the *closest pair*
problem between two finite point sets (the two alpha-cuts).  The kernels in
this module provide:

* :func:`pairwise_sq_blocks`, the one place a pairwise squared distance is
  formed (blocked, per dimension, direct ``(a - b)^2`` — exactly zero on
  coincident points), which every exact distance in the library reduces,
* a brute-force closest pair that is an argmin over those blocks,
* a KD-tree accelerated path built on :class:`scipy.spatial.cKDTree`, used when
  both sets are large enough for the tree construction cost to pay off, and
* a bound-then-refine front end: once both sets reach
  :data:`repro.config.PRUNE_MIN_POINTS`, a cheap real pair bounds the answer
  and each set is cut down to the points whose gap to the other set's box is
  within that bound, before the brute / KD-tree choice is made on what is
  left.  Overlapping sets prune nothing and go to that choice whole.

Every path returns the brute force's distance; the KD-tree choice is a
performance decision controlled by :data:`repro.config.KDTREE_CROSSOVER_POINTS`
and made on the sizes that survive the prune.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from scipy.spatial import cKDTree

from repro.config import KDTREE_CROSSOVER_POINTS, PRUNE_MIN_POINTS

# Element budget of one (rows, m) squared-distance plane: 256 KB of doubles,
# so the plane and its scratch stay cache-resident across the d passes made
# over them (twice this is measurably slower at 255 x 255).
_PLANE_ELEMENTS = 32_768


def _as_points(points: np.ndarray, name: str) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty (n, d) array")
    return pts


def pairwise_sq_blocks(
    points_a: np.ndarray, points_b: np.ndarray
) -> Iterator[Tuple[int, np.ndarray]]:
    """Squared distances between ``(n, d)`` and ``(m, d)`` points, by row block.

    Yields ``(start, sq)`` with ``sq[r, j] = |a[start + r] - b[j]|^2``, formed
    per dimension as ``(a - b)^2`` on ``(rows, m)`` planes: no ``(rows, m, d)``
    temporary, and coincident points come out as exactly ``0.0``.  The plane
    is a scratch buffer the next block overwrites, so reduce (or copy) it
    before advancing.  ``points_b`` must be non-empty.
    """
    n, d = points_a.shape
    m = points_b.shape[0]
    columns = np.ascontiguousarray(points_b.T)
    rows = max(1, _PLANE_ELEMENTS // m)
    plane = np.empty((min(rows, n), m))
    scratch = np.empty_like(plane)
    for start in range(0, n, rows):
        chunk = points_a[start : start + rows]
        sq = plane[: chunk.shape[0]]
        np.subtract(chunk[:, 0, None], columns[0], out=sq)
        np.square(sq, out=sq)
        for dim in range(1, d):
            term = scratch[: chunk.shape[0]]
            np.subtract(chunk[:, dim, None], columns[dim], out=term)
            np.square(term, out=term)
            sq += term
        yield start, sq


def set_to_set_distances(points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """Full pairwise distance matrix between two point sets.

    Only intended for small sets (tests, diagnostics); the query algorithms
    use :func:`closest_pair_distance` which never materialises the full
    matrix for large inputs.
    """
    a = _as_points(points_a, "points_a")
    b = _as_points(points_b, "points_b")
    if a.shape[1] != b.shape[1]:
        raise ValueError("point sets must have the same dimensionality")
    matrix = np.empty((a.shape[0], b.shape[0]))
    for start, sq in pairwise_sq_blocks(a, b):
        np.sqrt(sq, out=matrix[start : start + sq.shape[0]])
    return matrix


def _closest_pair_brute(points_a: np.ndarray, points_b: np.ndarray) -> Tuple[float, int, int]:
    """Exact closest pair: the first (row-major) argmin over the kernel's blocks."""
    best = np.inf
    best_i = best_j = 0
    m = points_b.shape[0]
    for start, sq in pairwise_sq_blocks(points_a, points_b):
        i, j = divmod(int(sq.argmin()), m)
        if sq[i, j] < best:
            best = float(sq[i, j])
            best_i, best_j = start + i, j
    return float(np.sqrt(best)), best_i, best_j


def _closest_pair_kdtree(points_a: np.ndarray, points_b: np.ndarray) -> Tuple[float, int, int]:
    """Exact closest pair using a KD-tree over the larger set."""
    # Build the tree on the larger set and query with the smaller one.
    if points_a.shape[0] >= points_b.shape[0]:
        tree_points, query_points, swapped = points_a, points_b, True
    else:
        tree_points, query_points, swapped = points_b, points_a, False
    tree = cKDTree(tree_points)
    dists, indices = tree.query(query_points, k=1)
    q = int(np.argmin(dists))
    t = int(indices[q])
    if swapped:
        return float(dists[q]), t, q
    return float(dists[q]), q, t


def _row_sums(planes: np.ndarray) -> np.ndarray:
    """Sum a ``(d, n)`` array's rows in dimension order, as the kernel does (in place)."""
    total = planes[0]
    for dim in range(1, planes.shape[0]):
        total += planes[dim]
    return total


def _sq_to_point(columns: np.ndarray, point: np.ndarray) -> np.ndarray:
    """The kernel's squared distance from each point of ``(d, n)`` columns to ``point``."""
    diff = columns - point[:, None]
    return _row_sums(np.square(diff, out=diff))


def _sq_gap_to_box(columns: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Squared gap from each point of ``(d, n)`` columns to the box ``[lo, hi]``."""
    gap = np.maximum(lo[:, None] - columns, columns - hi[:, None])
    np.maximum(gap, 0.0, out=gap)
    return _row_sums(np.square(gap, out=gap))


def _solve(points_a: np.ndarray, points_b: np.ndarray, use_kdtree: bool) -> Tuple[float, int, int]:
    if use_kdtree and min(points_a.shape[0], points_b.shape[0]) >= KDTREE_CROSSOVER_POINTS:
        return _closest_pair_kdtree(points_a, points_b)
    return _closest_pair_brute(points_a, points_b)


def _closest_pair_pruned(
    points_a: np.ndarray, points_b: np.ndarray, use_kdtree: bool = True
) -> Tuple[float, int, int]:
    """Bound with a real pair, drop the points that cannot beat it, then solve.

    The bound ``ub`` is the squared distance of an actual pair, found by
    nearest-point hops (``a`` nearest ``b``'s centre, then ``b`` nearest that,
    then ``a`` nearest that), so ``ub >= d^2``.  A point of ``a`` survives if
    its squared gap to ``b``'s MBR is ``<= ub``; a point of ``b`` survives if
    its gap to the survivors' MBR is.

    Exactness without a tolerance: for ``x`` outside a box ``[lo, hi]`` and any
    ``y`` inside it, ``lo - x <= y - x`` (or ``x - hi <= x - y``) holds after
    rounding too, because rounding is monotone; so are squaring a
    non-negative value and summing in the same dimension order as
    :func:`pairwise_sq_blocks`.  The gap therefore never exceeds the kernel's
    own value for any pair through ``x``, and ``ub`` *is* the kernel's value
    of a real pair, so both ends of the closest pair (and of every pair tied
    with it) survive.  Only squared values are compared; nothing goes through
    ``sqrt``.  Survivor indices are increasing, so the brute force's first
    row-major argmin maps back to the same pair it picks on the whole sets.
    """
    cols_a = np.ascontiguousarray(points_a.T)
    cols_b = np.ascontiguousarray(points_b.T)
    lo_b, hi_b = cols_b.min(axis=1), cols_b.max(axis=1)
    i = int(np.argmin(_sq_to_point(cols_a, 0.5 * (lo_b + hi_b))))
    to_b = _sq_to_point(cols_b, cols_a[:, i])
    j = int(np.argmin(to_b))
    ub = min(to_b[j], _sq_to_point(cols_a, cols_b[:, j]).min())
    keep_a = np.flatnonzero(_sq_gap_to_box(cols_a, lo_b, hi_b) <= ub)
    kept = cols_a[:, keep_a]
    keep_b = np.flatnonzero(_sq_gap_to_box(cols_b, kept.min(axis=1), kept.max(axis=1)) <= ub)
    if keep_a.size == points_a.shape[0] and keep_b.size == points_b.shape[0]:
        return _solve(points_a, points_b, use_kdtree)
    distance, i, j = _solve(points_a[keep_a], points_b[keep_b], use_kdtree)
    return distance, int(keep_a[i]), int(keep_b[j])


def closest_pair(
    points_a: np.ndarray,
    points_b: np.ndarray,
    use_kdtree: bool = True,
) -> Tuple[float, int, int]:
    """Exact closest pair between two point sets.

    Returns ``(distance, index_in_a, index_in_b)``.  Once both sets have
    ``PRUNE_MIN_POINTS`` points they are first pruned to the points that can
    take part (:func:`_closest_pair_pruned`); the distance is unchanged.

    Parameters
    ----------
    use_kdtree:
        Allow the KD-tree fast path when both (surviving) sets reach the
        configured cross-over size.  The result is identical either way.
    """
    a = _as_points(points_a, "points_a")
    b = _as_points(points_b, "points_b")
    if a.shape[1] != b.shape[1]:
        raise ValueError("point sets must have the same dimensionality")
    if min(a.shape[0], b.shape[0]) >= PRUNE_MIN_POINTS:
        return _closest_pair_pruned(a, b, use_kdtree)
    return _solve(a, b, use_kdtree)


def closest_pair_distance(
    points_a: np.ndarray,
    points_b: np.ndarray,
    use_kdtree: bool = True,
) -> float:
    """Minimum Euclidean distance between any point of ``a`` and any of ``b``."""
    distance, _, _ = closest_pair(points_a, points_b, use_kdtree=use_kdtree)
    return distance
