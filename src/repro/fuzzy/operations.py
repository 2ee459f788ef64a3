"""Set-theoretic and metric operations on fuzzy objects.

The paper builds on the fuzzy spatial data types of the GIS literature
(Altman; Schneider's fuzzy points/lines/regions and their metric operations)
but only needs the alpha-cut machinery for its queries.  This module fills in
the standard operations of that substrate for the discrete model of
Definition 1, so downstream users can manipulate fuzzy objects — not just
search them:

* **Set operations** (Zadeh):  union (pointwise max of memberships),
  intersection (pointwise min) and difference (min with the complement).
  Points are matched by coordinates; unmatched points carry membership 0 in
  the other operand.
* **Metric operations** (Schneider, "Metric operations on fuzzy spatial
  objects"): scalar cardinality, fuzzy area of the alpha-cut family, centroid
  (membership-weighted), diameter, and the degree-of-overlap between two
  objects.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import InvalidFuzzyObjectError
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.geometry.distance import closest_pair_distance, pairwise_sq_blocks

# Coordinates are matched exactly after rounding to this many decimals, which
# absorbs representation noise without conflating distinct pixels.
_COORD_DECIMALS = 12


def _as_point_map(obj: FuzzyObject) -> Dict[Tuple[float, ...], float]:
    """Map from (rounded) point coordinates to membership value."""
    rounded = np.round(obj.points, _COORD_DECIMALS)
    mapping: Dict[Tuple[float, ...], float] = {}
    for point, membership in zip(rounded, obj.memberships):
        key = tuple(point.tolist())
        # Duplicate coordinates keep the larger membership (set semantics).
        mapping[key] = max(mapping.get(key, 0.0), float(membership))
    return mapping


def _check_compatible(a: FuzzyObject, b: FuzzyObject) -> None:
    if a.dimensions != b.dimensions:
        raise InvalidFuzzyObjectError(
            "set operations require objects of the same dimensionality"
        )


def _from_point_map(
    mapping: Dict[Tuple[float, ...], float], object_id: Optional[int]
) -> FuzzyObject:
    points = np.asarray(list(mapping.keys()), dtype=float)
    memberships = np.asarray(list(mapping.values()), dtype=float)
    keep = memberships > 0.0
    if not np.any(keep):
        raise InvalidFuzzyObjectError("the resulting fuzzy object is empty")
    return FuzzyObject(
        points[keep], memberships[keep], object_id=object_id, require_kernel=False
    )


# ----------------------------------------------------------------------
# Set operations
# ----------------------------------------------------------------------
def fuzzy_union(a: FuzzyObject, b: FuzzyObject, object_id: Optional[int] = None) -> FuzzyObject:
    """Pointwise-maximum union of two fuzzy objects (Zadeh union)."""
    _check_compatible(a, b)
    merged = _as_point_map(a)
    for key, membership in _as_point_map(b).items():
        merged[key] = max(merged.get(key, 0.0), membership)
    return _from_point_map(merged, object_id)


def fuzzy_intersection(
    a: FuzzyObject, b: FuzzyObject, object_id: Optional[int] = None
) -> FuzzyObject:
    """Pointwise-minimum intersection of two fuzzy objects (Zadeh intersection).

    Raises :class:`InvalidFuzzyObjectError` when the objects share no points.
    """
    _check_compatible(a, b)
    map_a = _as_point_map(a)
    map_b = _as_point_map(b)
    common = {
        key: min(map_a[key], map_b[key]) for key in map_a.keys() & map_b.keys()
    }
    return _from_point_map(common, object_id)


def fuzzy_difference(
    a: FuzzyObject, b: FuzzyObject, object_id: Optional[int] = None
) -> FuzzyObject:
    """Fuzzy difference ``A \\ B``: ``min(mu_A(x), 1 - mu_B(x))`` per point of A."""
    _check_compatible(a, b)
    map_b = _as_point_map(b)
    result: Dict[Tuple[float, ...], float] = {}
    for key, membership in _as_point_map(a).items():
        result[key] = min(membership, 1.0 - map_b.get(key, 0.0))
    return _from_point_map(result, object_id)


def overlaps(a: FuzzyObject, b: FuzzyObject) -> bool:
    """Whether the two objects share at least one point with positive minimum."""
    map_a = _as_point_map(a)
    map_b = _as_point_map(b)
    return any(min(map_a[key], map_b[key]) > 0.0 for key in map_a.keys() & map_b.keys())


# ----------------------------------------------------------------------
# Metric operations
# ----------------------------------------------------------------------
def scalar_cardinality(obj: FuzzyObject) -> float:
    """Sum of membership values (the sigma-count of the fuzzy set)."""
    return float(np.sum(obj.memberships))


def fuzzy_centroid(obj: FuzzyObject) -> np.ndarray:
    """Membership-weighted centroid of the object."""
    weights = obj.memberships / np.sum(obj.memberships)
    return np.asarray(weights @ obj.points, dtype=float)


def fuzzy_area(obj: FuzzyObject, pixel_area: float = 1.0) -> float:
    """Expected area of a discrete fuzzy region.

    Treating every point as a pixel of area ``pixel_area`` that belongs to the
    region with its membership probability, the expected area is the
    sigma-count times the pixel area — the discrete counterpart of Schneider's
    fuzzy-area integral.
    """
    if pixel_area <= 0:
        raise InvalidFuzzyObjectError("pixel_area must be positive")
    return scalar_cardinality(obj) * pixel_area


def alpha_cut_area(obj: FuzzyObject, alpha: float, pixel_area: float = 1.0) -> float:
    """Crisp area of one alpha-cut (number of qualifying pixels times pixel area)."""
    if pixel_area <= 0:
        raise InvalidFuzzyObjectError("pixel_area must be positive")
    return obj.alpha_cut_size(alpha) * pixel_area


def diameter(obj: FuzzyObject, alpha: float = 0.0) -> float:
    """Largest pairwise distance inside the alpha-cut (support when alpha=0)."""
    cut = obj.support() if alpha <= 0.0 else obj.alpha_cut(alpha)
    if cut.shape[0] == 1:
        return 0.0
    return float(np.sqrt(max(sq.max() for _, sq in pairwise_sq_blocks(cut, cut))))


def overlap_degree(a: FuzzyObject, b: FuzzyObject) -> float:
    """Degree of overlap in [0, 1]: |A ∩ B| / min(|A|, |B|) by sigma-count."""
    _check_compatible(a, b)
    map_a = _as_point_map(a)
    map_b = _as_point_map(b)
    shared = sum(min(map_a[key], map_b[key]) for key in map_a.keys() & map_b.keys())
    smallest = min(scalar_cardinality(a), scalar_cardinality(b))
    if smallest <= 0.0:
        return 0.0
    return float(min(1.0, shared / smallest))


def gap_distance(a: FuzzyObject, b: FuzzyObject, alpha: float) -> float:
    """Alias of the alpha-distance expressed through this module for symmetry."""
    return closest_pair_distance(a.alpha_cut(alpha), b.alpha_cut(alpha))
