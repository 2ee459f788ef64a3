"""Minimum bounding rectangles in d-dimensional Euclidean space.

The paper denotes an MBR by ``M = (M1+, M1-, ..., Md+, Md-)`` where ``Mi+``
(``Mi-``) is the upper (lower) bound of the i-th dimension.  This module
implements that representation together with the two distance metrics the
search algorithms rely on:

* ``MinDist`` (Equation 1) — the smallest possible distance between any pair
  of points drawn from the two rectangles.  It lower-bounds the alpha-distance
  of the enclosed alpha-cuts.
* ``MaxDist`` (Equation 3) — the largest possible distance between any pair of
  points drawn from the two rectangles.  It upper-bounds the alpha-distance.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np


class MBR:
    """An axis-aligned minimum bounding rectangle.

    Parameters
    ----------
    lower, upper:
        Arrays of length ``d`` with ``lower[i] <= upper[i]`` for every
        dimension ``i``.
    """

    __slots__ = ("lower", "upper")

    def __init__(self, lower: Sequence[float], upper: Sequence[float]):
        lower_arr = np.asarray(lower, dtype=float)
        upper_arr = np.asarray(upper, dtype=float)
        if lower_arr.ndim != 1 or upper_arr.ndim != 1:
            raise ValueError("MBR bounds must be one-dimensional arrays")
        if lower_arr.shape != upper_arr.shape:
            raise ValueError("MBR lower/upper bounds must have the same length")
        if lower_arr.size == 0:
            raise ValueError("MBR must have at least one dimension")
        # ``not all(<=)`` rather than ``any(>)``: a NaN bound fails every
        # comparison, so only the first form rejects it.
        if not np.all(lower_arr <= upper_arr):
            raise ValueError("MBR bounds must satisfy lower <= upper (NaN is not a bound)")
        self.lower = lower_arr
        self.upper = upper_arr

    @classmethod
    def _derived(cls, lower: np.ndarray, upper: np.ndarray) -> "MBR":
        """A box that is a min / max over valid boxes: valid by construction, not re-checked."""
        box = cls.__new__(cls)
        box.lower = lower
        box.upper = upper
        return box

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: np.ndarray) -> "MBR":
        """Build the tightest MBR enclosing ``points`` (shape ``(n, d)``)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("from_points expects a non-empty (n, d) array")
        return cls(pts.min(axis=0), pts.max(axis=0))

    @classmethod
    def union_of(cls, mbrs: Iterable["MBR"]) -> "MBR":
        """Return the MBR enclosing every rectangle in ``mbrs``."""
        mbrs = list(mbrs)
        if not mbrs:
            raise ValueError("union_of expects at least one MBR")
        lower = np.min(np.vstack([m.lower for m in mbrs]), axis=0)
        upper = np.max(np.vstack([m.upper for m in mbrs]), axis=0)
        return cls._derived(lower, upper)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> int:
        """Number of spatial dimensions."""
        return int(self.lower.size)

    @property
    def center(self) -> np.ndarray:
        """Geometric center of the rectangle."""
        return (self.lower + self.upper) / 2.0

    @property
    def extent(self) -> np.ndarray:
        """Side length per dimension."""
        return self.upper - self.lower

    def area(self) -> float:
        """Hyper-volume of the rectangle (area in 2-d)."""
        return float(np.prod(self.extent))

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains(self, other: "MBR") -> bool:
        """Whether ``other`` is fully enclosed by this MBR."""
        return bool(
            np.all(other.lower >= self.lower) and np.all(other.upper <= self.upper)
        )

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    def union(self, other: "MBR") -> "MBR":
        """Smallest MBR enclosing both rectangles."""
        return MBR._derived(
            np.minimum(self.lower, other.lower), np.maximum(self.upper, other.upper)
        )

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def min_dist(self, other: "MBR") -> float:
        """``MinDist`` between two rectangles (Equation 1 of the paper)."""
        return min_dist(self, other)

    def max_dist(self, other: "MBR") -> float:
        """``MaxDist`` between two rectangles (Equation 3 of the paper)."""
        return max_dist(self, other)

    # ------------------------------------------------------------------
    # Serialisation helpers
    # ------------------------------------------------------------------
    def to_array(self) -> np.ndarray:
        """Flatten to ``[lower..., upper...]`` for compact storage."""
        return np.concatenate([self.lower, self.upper])

    @classmethod
    def from_array(cls, values: Sequence[float]) -> "MBR":
        """Inverse of :meth:`to_array`."""
        arr = np.asarray(values, dtype=float)
        if arr.size % 2 != 0:
            raise ValueError("flattened MBR must have even length")
        d = arr.size // 2
        return cls(arr[:d], arr[d:])

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MBR):
            return NotImplemented
        return bool(
            np.array_equal(self.lower, other.lower)
            and np.array_equal(self.upper, other.upper)
        )

    def __hash__(self) -> int:
        return hash((self.lower.tobytes(), self.upper.tobytes()))

    def __repr__(self) -> str:
        lo = np.array2string(self.lower, precision=4)
        hi = np.array2string(self.upper, precision=4)
        return f"MBR(lower={lo}, upper={hi})"


def min_dist(a: MBR, b: MBR) -> float:
    """Minimum distance between two MBRs (Equation 1).

    For each dimension the gap ``l_i`` is the separation between the two
    projections (zero when they overlap); the result is the Euclidean norm of
    the gap vector.
    """
    gap = np.maximum(0.0, np.maximum(a.lower - b.upper, b.lower - a.upper))
    return float(math.sqrt(float(np.dot(gap, gap))))


def max_dist(a: MBR, b: MBR) -> float:
    """Maximum distance between two MBRs (Equation 3).

    Per dimension the farthest separation is
    ``max(|Mi+_A - Mi-_B|, |Mi-_A - Mi+_B|)``.
    """
    span = np.maximum(np.abs(a.upper - b.lower), np.abs(a.lower - b.upper))
    return float(math.sqrt(float(np.dot(span, span))))
