"""Piecewise-constant alpha-distance profiles.

For two fixed fuzzy objects the map ``alpha -> d_alpha(A, B)`` is a step
function: the alpha-cut of either object only changes when alpha crosses one
of its membership levels, so the distance stays constant on every interval
``(u_{i-1}, u_i]`` between consecutive combined levels and can only increase
from one interval to the next (monotonicity of the alpha-distance).

:class:`DistanceProfile` materialises this step function exactly and exposes
the operations the RKNN algorithms of Section 4 need:

* point evaluation (``d_alpha`` for an arbitrary alpha),
* the critical probability set of Definition 7,
* "safe range" computations used by Lemma 2 and Lemma 4.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidQueryError
from repro.predicates import above, first_at_least


class DistanceProfile:
    """The exact step function ``alpha -> d_alpha(A, B)`` on ``(0, 1]``.

    Parameters
    ----------
    levels:
        Strictly increasing membership levels ``u_1 < ... < u_m`` with
        ``u_m`` normally equal to 1.  The distance equals ``distances[i]`` for
        every ``alpha`` in ``(u_{i-1}, u_i]`` (with ``u_0 = 0``).
    distances:
        Non-decreasing distances, one per level interval.
    """

    __slots__ = ("levels", "distances")

    def __init__(self, levels: Sequence[float], distances: Sequence[float]):
        lv = np.asarray(levels, dtype=float)
        ds = np.asarray(distances, dtype=float)
        if lv.ndim != 1 or ds.ndim != 1 or lv.size != ds.size or lv.size == 0:
            raise ValueError("levels and distances must be aligned non-empty arrays")
        if np.any(np.diff(lv) <= 0):
            raise ValueError("levels must be strictly increasing")
        if lv[0] <= 0 or above(lv[-1], 1.0):
            raise ValueError("levels must lie in (0, 1]")
        # Exactly: distance_profile's distances are prefix minima of one
        # matrix, so a decrease of any size is a bug, not rounding.
        finite = ds[np.isfinite(ds)]
        if finite.size and np.any(np.diff(finite) < 0.0):
            raise ValueError("distances must be non-decreasing in alpha")
        self.levels = lv
        self.distances = ds

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[float, float]]) -> "DistanceProfile":
        """Build a profile from ``(level, distance)`` pairs."""
        pairs = sorted(pairs)
        return cls([p[0] for p in pairs], [p[1] for p in pairs])

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def value(self, alpha: float) -> float:
        """``d_alpha`` for an arbitrary threshold ``alpha`` in ``(0, levels[-1]]``."""
        if not 0.0 < alpha or above(alpha, self.levels[-1]):
            raise InvalidQueryError(
                f"alpha={alpha} outside the profile domain (0, {self.levels[-1]}]"
            )
        # The distance for alpha is the one of the first level >= alpha.
        idx = min(int(first_at_least(self.levels, alpha)), self.levels.size - 1)
        return float(self.distances[idx])

    def values(self, alphas: Sequence[float]) -> np.ndarray:
        """Vectorised :meth:`value`."""
        return np.asarray([self.value(a) for a in alphas], dtype=float)

    # ------------------------------------------------------------------
    # Critical probabilities (Definition 7)
    # ------------------------------------------------------------------
    def critical_set(self) -> np.ndarray:
        """``Omega_Q(A)``: thresholds beyond which the distance increases.

        A level ``u_i`` is critical when no larger threshold has the same
        distance — i.e. the distance strictly increases after ``u_i`` — plus
        the last level, whose distance trivially has no larger threshold.
        Any rise counts, however small: the distances are exact, and a rise
        of one ulp can change the kNN set (``TestCriticalSet``).
        """
        rises = np.append(self.distances[1:] > self.distances[:-1], True)
        return self.levels[rises]

    def next_critical(self, alpha: float) -> float:
        """Smallest critical probability ``>= alpha`` (Lemma 2's ``alpha'``)."""
        crit = self.critical_set()
        idx = int(first_at_least(crit, alpha))
        if idx >= crit.size:
            return float(crit[-1])
        return float(crit[idx])

    # ------------------------------------------------------------------
    # Safe ranges (Lemma 4)
    # ------------------------------------------------------------------
    def max_level_with_distance_below(
        self, threshold: float, start: float
    ) -> float | None:
        """Largest level ``>= start`` whose distance is strictly below ``threshold``.

        Used by the improved candidate refinement (Algorithm 5): if ``A`` is a
        kNN at ``start`` and the (k+1)-th distance there is ``threshold``,
        then ``A`` stays a kNN up to the returned level (Lemma 4).  Returns
        ``None`` when even ``d_start`` is not below the threshold.
        """
        if self.value(start) >= threshold:
            return None
        # Scan the stored levels directly: the scan only ever extends
        # through levels whose distance is verifiably below the threshold.
        idx = min(int(first_at_least(self.levels, start)), self.levels.size - 1)
        result = float(start)
        for j in range(idx, self.levels.size):
            if self.distances[j] < threshold:
                result = float(self.levels[j])
            else:
                break
        return max(result, float(start))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def max_distance(self) -> float:
        """Distance between the kernels (the largest value of the profile)."""
        return float(self.distances[-1])

    @property
    def min_distance(self) -> float:
        """Distance between the supports (the smallest value of the profile)."""
        return float(self.distances[0])

    def steps(self) -> List[Tuple[float, float, float]]:
        """The constant pieces as ``(interval_start, interval_end, distance)``.

        Interval boundaries follow the half-open convention
        ``(start, end]`` with the first piece starting at 0.
        """
        pieces = []
        previous = 0.0
        for level, distance in zip(self.levels, self.distances):
            pieces.append((previous, float(level), float(distance)))
            previous = float(level)
        return pieces

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistanceProfile):
            return NotImplemented
        return np.array_equal(self.levels, other.levels) and np.array_equal(
            self.distances, other.distances, equal_nan=True
        )

    def __repr__(self) -> str:
        return (
            f"DistanceProfile(levels={self.levels.size}, "
            f"d_min={self.min_distance:.4g}, d_max={self.max_distance:.4g})"
        )
