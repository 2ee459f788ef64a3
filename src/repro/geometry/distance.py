"""Distance kernels between point sets.

Evaluating the alpha-distance of Definition 3 reduces to the *closest pair*
problem between two finite point sets (the two alpha-cuts).  The kernels in
this module provide:

* a vectorised brute-force path (exact, O(n*m) but with small constants), and
* a KD-tree accelerated path built on :class:`scipy.spatial.cKDTree`, used when
  both sets are large enough for the tree construction cost to pay off.

Both paths return identical results; the selection is purely a performance
decision controlled by :data:`repro.config.KDTREE_CROSSOVER_POINTS`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from scipy.spatial import cKDTree

from repro.config import KDTREE_CROSSOVER_POINTS

# Number of rows processed per chunk by the brute-force kernel; bounds the
# size of the intermediate (chunk, m) distance matrix.
_BRUTE_FORCE_CHUNK = 2048


def _as_points(points: np.ndarray, name: str) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty (n, d) array")
    return pts


def point_to_set_distance(point: np.ndarray, points: np.ndarray) -> float:
    """Smallest Euclidean distance from ``point`` to any point in ``points``."""
    pts = _as_points(points, "points")
    pt = np.asarray(point, dtype=float).reshape(1, -1)
    if pt.shape[1] != pts.shape[1]:
        raise ValueError("point dimensionality does not match the point set")
    diffs = pts - pt
    return float(np.sqrt(np.min(np.einsum("ij,ij->i", diffs, diffs))))


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
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _closest_pair_brute(points_a: np.ndarray, points_b: np.ndarray) -> Tuple[float, int, int]:
    """Exact closest pair by chunked vectorised scanning."""
    best = np.inf
    best_i = best_j = 0
    b_sq = np.einsum("ij,ij->i", points_b, points_b)
    eps = float(np.finfo(float).eps)
    for start in range(0, points_a.shape[0], _BRUTE_FORCE_CHUNK):
        chunk = points_a[start : start + _BRUTE_FORCE_CHUNK]
        a_sq = np.einsum("ij,ij->i", chunk, chunk)
        # squared distances via the expansion |a-b|^2 = |a|^2 + |b|^2 - 2 a.b
        sq = a_sq[:, None] + b_sq[None, :] - 2.0 * chunk @ points_b.T
        np.maximum(sq, 0.0, out=sq)
        # The expansion cancels catastrophically near zero (coincident points
        # come out as ~1e-13 instead of 0), so every near-minimal candidate is
        # re-evaluated with the direct formula, which is exact at zero and
        # keeps parity with the KD-tree path.  Tie-heavy inputs (many
        # coincident pairs) can make the candidate set large, so the
        # re-evaluation is itself chunked to keep memory bounded.
        chunk_min = float(sq.min())
        slack = 16.0 * eps * (float(a_sq.max(initial=0.0)) + float(b_sq.max(initial=0.0)))
        cand_i, cand_j = np.nonzero(sq <= chunk_min + slack)
        for cand_start in range(0, cand_i.shape[0], _BRUTE_FORCE_CHUNK):
            sel_i = cand_i[cand_start : cand_start + _BRUTE_FORCE_CHUNK]
            sel_j = cand_j[cand_start : cand_start + _BRUTE_FORCE_CHUNK]
            diffs = chunk[sel_i] - points_b[sel_j]
            exact_sq = np.einsum("ij,ij->i", diffs, diffs)
            pos = int(np.argmin(exact_sq))
            if exact_sq[pos] < best:
                best = float(exact_sq[pos])
                best_i = start + int(sel_i[pos])
                best_j = int(sel_j[pos])
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


def closest_pair(
    points_a: np.ndarray,
    points_b: np.ndarray,
    use_kdtree: bool = True,
) -> Tuple[float, int, int]:
    """Exact closest pair between two point sets.

    Returns ``(distance, index_in_a, index_in_b)``.

    Parameters
    ----------
    use_kdtree:
        Allow the KD-tree fast path when both sets exceed the configured
        cross-over size.  The result is identical either way.
    """
    a = _as_points(points_a, "points_a")
    b = _as_points(points_b, "points_b")
    if a.shape[1] != b.shape[1]:
        raise ValueError("point sets must have the same dimensionality")
    large = min(a.shape[0], b.shape[0]) >= KDTREE_CROSSOVER_POINTS
    if use_kdtree and large:
        return _closest_pair_kdtree(a, b)
    return _closest_pair_brute(a, b)


def closest_pair_distance(
    points_a: np.ndarray,
    points_b: np.ndarray,
    use_kdtree: bool = True,
) -> float:
    """Minimum Euclidean distance between any point of ``a`` and any of ``b``."""
    distance, _, _ = closest_pair(points_a, points_b, use_kdtree=use_kdtree)
    return distance
