"""Closed-interval algebra for RKNN qualifying ranges.

An RKNN result (Definition 5) maps each qualifying object to the set of
probability thresholds at which it belongs to the k nearest neighbours.
Because alpha-distances are piecewise-constant step functions of alpha, those
sets are finite unions of intervals whose endpoints come from the membership
levels of the dataset.  This module provides a small, exact interval algebra
(closed intervals, unions, intersections, coverage tests) that all RKNN
variants share, so that their results can be compared for equality in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.predicates import at_least


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[start, end]`` of probability thresholds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval end {self.end} precedes start {self.start}")

    @property
    def length(self) -> float:
        """Length of the interval (zero for degenerate single points)."""
        return self.end - self.start

    def contains(self, value: float) -> bool:
        """Whether the threshold ``value`` lies inside the closed interval,
        an endpoint being the same level as a threshold within ``LEVEL_ATOL``."""
        return bool(at_least(value, self.start) and at_least(self.end, value))

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two closed intervals share at least one point."""
        return self.start <= other.end and other.start <= self.end

    def merge(self, other: "Interval") -> "Interval":
        """Smallest interval covering both (assumes overlap or adjacency)."""
        return Interval(min(self.start, other.start), max(self.end, other.end))

    def intersect(self, other: "Interval") -> "Interval | None":
        """Overlapping part of the two intervals, or ``None`` if disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if hi < lo:
            return None
        return Interval(lo, hi)

    def __repr__(self) -> str:
        return f"[{self.start:.6g}, {self.end:.6g}]"


class IntervalSet:
    """A normalised union of disjoint closed intervals, sorted by start."""

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[Interval] | None = None):
        self._intervals: List[Interval] = []
        if intervals:
            for interval in intervals:
                self.add(interval)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(cls, pairs: Sequence[Tuple[float, float]]) -> "IntervalSet":
        """Build from ``(start, end)`` tuples."""
        return cls(Interval(s, e) for s, e in pairs)

    @classmethod
    def single(cls, start: float, end: float) -> "IntervalSet":
        """An interval set containing exactly one interval."""
        return cls([Interval(start, end)])

    @classmethod
    def empty(cls) -> "IntervalSet":
        """The empty interval set."""
        return cls()

    def copy(self) -> "IntervalSet":
        """Shallow copy (intervals are immutable)."""
        clone = IntervalSet()
        clone._intervals = list(self._intervals)
        return clone

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, interval: Interval) -> None:
        """Insert an interval, merging it with the ones it overlaps or
        touches (a piece's end is exactly the next piece's start)."""
        merged = interval
        remaining: List[Interval] = []
        for existing in self._intervals:
            if existing.overlaps(merged):
                merged = merged.merge(existing)
            else:
                remaining.append(existing)
        remaining.append(merged)
        remaining.sort(key=lambda iv: iv.start)
        self._intervals = remaining

    def add_range(self, start: float, end: float) -> None:
        """Convenience wrapper around :meth:`add`."""
        self.add(Interval(start, end))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def intervals(self) -> Tuple[Interval, ...]:
        """The disjoint intervals in increasing order."""
        return tuple(self._intervals)

    @property
    def span(self) -> Interval | None:
        """Smallest single interval covering the whole set (None if empty)."""
        if not self._intervals:
            return None
        return Interval(self._intervals[0].start, self._intervals[-1].end)

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside any interval of the set."""
        return any(iv.contains(value) for iv in self._intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Pointwise intersection of two interval sets."""
        result = IntervalSet()
        for a in self._intervals:
            for b in other._intervals:
                overlap = a.intersect(b)
                if overlap is not None:
                    result.add(overlap)
        return result

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Union of two interval sets."""
        result = self.copy()
        for iv in other._intervals:
            result.add(iv)
        return result

    def clipped(self, start: float, end: float) -> "IntervalSet":
        """The part of this set falling inside ``[start, end]``."""
        return self.intersect(IntervalSet.single(start, end))

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __iter__(self):
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __repr__(self) -> str:
        body = " U ".join(repr(iv) for iv in self._intervals) or "{}"
        return f"IntervalSet({body})"
