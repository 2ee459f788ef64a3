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

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import EmptyAlphaCutError, InvalidFuzzyObjectError
from repro.fuzzy.fuzzy_object import MEMBERSHIP_ATOL, FuzzyObject
from repro.fuzzy.profile import DistanceProfile
from repro.geometry.distance import closest_pair_distance, pairwise_sq_blocks
from repro.storage.cache import LRUCache


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
    if levels[-1] < 1.0 - MEMBERSHIP_ATOL:
        levels = np.append(levels, 1.0)
    if max_level is not None:
        keep = levels <= max_level + MEMBERSHIP_ATOL
        # Retain the first level >= max_level so evaluation at max_level works.
        above = levels[levels > max_level + MEMBERSHIP_ATOL]
        levels = levels[keep]
        if above.size:
            levels = np.append(levels, above[0])

    # Sort both objects by decreasing membership once; every alpha-cut is then
    # a prefix of the sorted arrays, so d(level) is the minimum of the leading
    # (count_a, count_b) corner of one pairwise matrix D: the 2-D running
    # minimum of D read at (count_a - 1, count_b - 1).
    pts_a = obj_a.points[np.argsort(-obj_a.memberships, kind="stable")]
    pts_b = obj_b.points[np.argsort(-obj_b.memberships, kind="stable")]
    thresholds = levels - MEMBERSHIP_ATOL
    count_a = pts_a.shape[0] - np.searchsorted(np.sort(obj_a.memberships), thresholds)
    count_b = pts_b.shape[0] - np.searchsorted(np.sort(obj_b.memberships), thresholds)
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


class DistanceProfileStore:
    """Memoised distance profiles keyed by ``(query, stored object)`` pairs.

    The RKNN algorithms recompute the profile of the same (query, candidate)
    pair across sweep steps and across repeated calls with the same query
    object; this store bounds that work with an LRU of
    :class:`~repro.storage.cache.LRUCache`.

    The query side of the key is the *instance identity* of the query object
    (queries typically carry no object id); to keep ``id()`` keys valid, every
    cached value pins a strong reference to its query object, and a hit is
    only served when the pinned instance is the caller's instance.  The stored
    side is keyed by object id, which is stable within one database.
    """

    def __init__(self, capacity: int):
        self._cache: LRUCache[
            Tuple[int, int, Optional[float]], Tuple[FuzzyObject, DistanceProfile]
        ] = LRUCache(capacity)
        # Scalar d_alpha memo for callers that never need a full profile (the
        # reverse engine), plus a per-pair pointer to the widest cached
        # profile, so a profile computed by the sweep searcher serves point
        # evaluations for free (and vice versa callers pay each (query,
        # object) distance once).  The pointer table is itself an LRU of the
        # same capacity: query instances die with their requests, so a plain
        # dict would leak one entry per (query, candidate) pair forever on a
        # long-running service.
        self._distances: LRUCache[
            Tuple[int, int, float], Tuple[FuzzyObject, float]
        ] = LRUCache(capacity)
        self._widest: LRUCache[
            Tuple[int, int], Tuple[int, int, Optional[float]]
        ] = LRUCache(capacity)
        # Query instances that currently have entries, so hot-path callers
        # can skip per-pair lookups for queries the store has never seen
        # (the common case: a fresh query object per request).
        self._queries: LRUCache[int, FuzzyObject] = LRUCache(capacity)

    @property
    def capacity(self) -> int:
        """Maximum number of memoised profiles (0 disables the store)."""
        return self._cache.capacity

    @property
    def hits(self) -> int:
        """Number of lookups served from the store."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Number of lookups that had to recompute."""
        return self._cache.misses

    def __len__(self) -> int:
        return len(self._cache)

    @staticmethod
    def _key(
        query: FuzzyObject, object_id: int, max_level: Optional[float]
    ) -> Tuple[int, int, Optional[float]]:
        return (id(query), int(object_id), None if max_level is None else float(max_level))

    def lookup(
        self, query: FuzzyObject, object_id: int, max_level: Optional[float] = None
    ) -> Optional[DistanceProfile]:
        """The memoised profile for the pair, or ``None`` on a miss."""
        value = self._cache.get(self._key(query, object_id, max_level))
        if value is None:
            return None
        pinned_query, profile = value
        if pinned_query is not query:  # pragma: no cover - id() reuse guard
            return None
        return profile

    def insert(
        self,
        query: FuzzyObject,
        object_id: int,
        profile: DistanceProfile,
        max_level: Optional[float] = None,
    ) -> None:
        """Memoise one computed profile."""
        key = self._key(query, object_id, max_level)
        self._cache.put(key, (query, profile))
        self._queries.put(key[0], query)
        pair = (key[0], key[1])
        widest = self._widest.get(pair)
        if widest is None or self._covers(key[2], widest[2]):
            self._widest.put(pair, key)

    @staticmethod
    def _covers(new_level: Optional[float], old_level: Optional[float]) -> bool:
        """Whether a profile truncated at ``new_level`` covers at least as
        much of the threshold axis as one truncated at ``old_level``."""
        if new_level is None:
            return True
        if old_level is None:
            return False
        return new_level >= old_level

    # ------------------------------------------------------------------
    # Scalar d_alpha memo (shared with the reverse engine)
    # ------------------------------------------------------------------
    def distance_at(
        self, query: FuzzyObject, object_id: int, alpha: float
    ) -> Optional[float]:
        """Memoised ``d_alpha(A, Q)`` for one threshold, or ``None``.

        Served first from the scalar memo, then by point-evaluating the
        widest cached profile of the pair when its domain covers ``alpha`` —
        so a profile materialised by the sweep searcher answers the reverse
        engine's distance evaluations for free.
        """
        alpha = float(alpha)
        value = self._distances.get((id(query), int(object_id), alpha))
        if value is not None and value[0] is query:
            return value[1]
        pair = (id(query), int(object_id))
        widest = self._widest.get(pair)
        if widest is None:
            return None
        cached = self._cache.get(widest)
        if cached is None:  # evicted since the pointer was written
            self._widest.invalidate(pair)
            return None
        pinned_query, profile = cached
        if pinned_query is not query:  # pragma: no cover - id() reuse guard
            self._widest.invalidate(pair)
            return None
        if alpha > float(profile.levels[-1]) + 1e-12:
            return None
        return profile.value(alpha)

    def insert_distance(
        self, query: FuzzyObject, object_id: int, alpha: float, distance: float
    ) -> None:
        """Memoise one exact point evaluation ``d_alpha(A, Q)``."""
        self._distances.put(
            (id(query), int(object_id), float(alpha)), (query, float(distance))
        )
        self._queries.put(id(query), query)

    def has_query(self, query: FuzzyObject) -> bool:
        """Whether this exact query instance has any memoised entry.

        Hot-path callers gate per-pair lookups on this: a fresh query object
        (the common serving case) can never hit, so the vectorized one-shot
        evaluation path is kept regardless of what other queries have
        cached.
        """
        if self.capacity == 0:
            return False
        return self._queries.get(id(query)) is query

    def clear(self) -> None:
        """Drop every memoised profile and distance (statistics preserved)."""
        self._cache.clear()
        self._distances.clear()
        self._widest.clear()
        self._queries.clear()

    def reset_statistics(self) -> None:
        """Zero the hit/miss counters."""
        self._cache.reset_statistics()
        self._distances.reset_statistics()
