"""The discrete fuzzy object of Definition 1.

A fuzzy object is a finite set of d-dimensional points, each carrying a
membership value in ``(0, 1]`` that expresses the probability of the point
belonging to the object.  Following the paper we assume (and by default
enforce) a non-empty kernel: at least one point has membership exactly 1.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.config import DEFAULT_ALPHA_CUT_CACHE_CAPACITY
from repro.exceptions import EmptyAlphaCutError, InvalidFuzzyObjectError
from repro.geometry.mbr import MBR
from repro.predicates import above, at_least

#: Library-wide alpha-cut cache counters (aggregated over every object, since
#: the per-object caches are short-lived); surfaced by the CLI ``--stats``
#: output and resettable through :func:`reset_cut_cache_statistics`.
CUT_CACHE_STATS = {"hits": 0, "misses": 0}


def reset_cut_cache_statistics() -> None:
    """Zero the global alpha-cut cache hit/miss counters."""
    CUT_CACHE_STATS["hits"] = 0
    CUT_CACHE_STATS["misses"] = 0


class FuzzyObject:
    """A fuzzy object ``A = {<a, mu_A(a)> | mu_A(a) > 0}``.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)`` with the point coordinates.
    memberships:
        Array of shape ``(n,)`` with membership values in ``(0, 1]``.
    object_id:
        Optional integer identity used by the object store and index.
    require_kernel:
        When true (the default, matching the paper's assumption) the object
        must contain at least one point with membership 1.
    """

    __slots__ = (
        "points",
        "memberships",
        "object_id",
        "_levels",
        "_cut_cache",
        "_cut_cache_capacity",
    )

    def __init__(
        self,
        points: np.ndarray,
        memberships: np.ndarray,
        object_id: Optional[int] = None,
        require_kernel: bool = True,
    ):
        pts = np.asarray(points, dtype=float)
        mus = np.asarray(memberships, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InvalidFuzzyObjectError("points must be a non-empty (n, d) array")
        if mus.ndim != 1 or mus.shape[0] != pts.shape[0]:
            raise InvalidFuzzyObjectError(
                "memberships must be a 1-d array aligned with points"
            )
        if not np.all(np.isfinite(pts)):
            raise InvalidFuzzyObjectError("points must be finite")
        # NaN fails both range comparisons below, so it needs its own test.
        if not np.all(np.isfinite(mus)):
            raise InvalidFuzzyObjectError("memberships must be finite")
        if np.any(mus <= 0.0) or np.any(above(mus, 1.0)):
            raise InvalidFuzzyObjectError("memberships must lie in (0, 1]")
        mus = np.minimum(mus, 1.0)
        if require_kernel and not np.any(at_least(mus, 1.0)):
            raise InvalidFuzzyObjectError(
                "fuzzy object has an empty kernel; the paper assumes at least "
                "one point with membership 1 (use normalize_memberships or "
                "require_kernel=False)"
            )
        self.points = pts
        self.memberships = mus
        self.object_id = object_id
        self._levels: Optional[np.ndarray] = None
        # Materialised alpha-cuts keyed by threshold (built lazily; see
        # set_cut_cache_capacity).
        self._cut_cache = None
        self._cut_cache_capacity = DEFAULT_ALPHA_CUT_CACHE_CAPACITY

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[Sequence[float], float]],
        object_id: Optional[int] = None,
        require_kernel: bool = True,
    ) -> "FuzzyObject":
        """Build an object from ``(point, membership)`` pairs."""
        pairs = list(pairs)
        if not pairs:
            raise InvalidFuzzyObjectError("cannot build a fuzzy object from no pairs")
        points = np.asarray([p for p, _ in pairs], dtype=float)
        memberships = np.asarray([m for _, m in pairs], dtype=float)
        return cls(points, memberships, object_id=object_id, require_kernel=require_kernel)

    @classmethod
    def crisp(
        cls, points: np.ndarray, object_id: Optional[int] = None
    ) -> "FuzzyObject":
        """A crisp (non-fuzzy) object: every point has membership 1."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        return cls(pts, np.ones(pts.shape[0]), object_id=object_id)

    @classmethod
    def single_point(
        cls, point: Sequence[float], object_id: Optional[int] = None
    ) -> "FuzzyObject":
        """Degenerate object consisting of one fully-certain point."""
        return cls.crisp(np.asarray(point, dtype=float).reshape(1, -1), object_id)

    def require_finite(self) -> "FuzzyObject":
        """Re-assert point finiteness; returns ``self`` for chaining.

        Construction already rejects non-finite points, so this only guards
        against post-construction mutation of :attr:`points` — the insert
        paths call it before any index or owner-map state is touched, since
        a NaN coordinate would otherwise poison MBRs, placement routing and
        distance evaluations.
        """
        if not np.all(np.isfinite(self.points)):
            raise InvalidFuzzyObjectError(
                f"object {self.object_id!r} has non-finite points"
            )
        return self

    def with_id(self, object_id: int) -> "FuzzyObject":
        """Copy of this object carrying ``object_id``."""
        clone = FuzzyObject(
            self.points.copy(),
            self.memberships.copy(),
            object_id=object_id,
            require_kernel=False,
        )
        return clone

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of probabilistic points in the object."""
        return int(self.points.shape[0])

    @property
    def dimensions(self) -> int:
        """Spatial dimensionality."""
        return int(self.points.shape[1])

    def distinct_memberships(self) -> np.ndarray:
        """``U_A``: sorted distinct membership values of the object."""
        if self._levels is None:
            self._levels = np.unique(self.memberships)
        return self._levels

    # ------------------------------------------------------------------
    # Fuzzy set operations (Definition 2)
    # ------------------------------------------------------------------
    def support(self) -> np.ndarray:
        """The support set ``A_s`` (all points, since memberships are > 0)."""
        return self.points

    def kernel(self) -> np.ndarray:
        """The kernel set ``A_k`` (points with membership 1)."""
        return self.points[at_least(self.memberships, 1.0)]

    def alpha_cut(self, alpha: float) -> np.ndarray:
        """The alpha-cut ``A_alpha`` (points with membership >= alpha).

        Materialised cuts are memoised in a small per-object LRU cache (see
        :meth:`set_cut_cache_capacity`); callers treat the returned array as
        read-only.
        """
        self._check_alpha(alpha)
        key = float(alpha)
        cache = self._ensure_cut_cache()
        if cache is not None:
            cached = cache.get(key)
            if cached is not None:
                CUT_CACHE_STATS["hits"] += 1
                return cached
            CUT_CACHE_STATS["misses"] += 1
        cut = self.points[at_least(self.memberships, alpha)]
        if cut.shape[0] == 0:
            raise EmptyAlphaCutError(
                f"alpha-cut at alpha={alpha} is empty for object {self.object_id}"
            )
        if cache is not None:
            cache.put(key, cut)
        return cut

    def _ensure_cut_cache(self):
        """The per-object LRU cut cache, or ``None`` when disabled."""
        if self._cut_cache is None and self._cut_cache_capacity > 0:
            # Imported lazily: the storage package depends on this module.
            from repro.storage.cache import LRUCache

            self._cut_cache = LRUCache(self._cut_cache_capacity)
        return self._cut_cache

    def set_cut_cache_capacity(self, capacity: int) -> None:
        """Resize (or, with 0, disable) the per-object alpha-cut cache."""
        if capacity < 0:
            raise InvalidFuzzyObjectError("cut cache capacity must be >= 0")
        self._cut_cache_capacity = int(capacity)
        self._cut_cache = None

    # ------------------------------------------------------------------
    # Bounding rectangles
    # ------------------------------------------------------------------
    def support_mbr(self) -> MBR:
        """MBR of the support set, ``M_A`` in the paper."""
        return MBR.from_points(self.points)

    def kernel_mbr(self) -> MBR:
        """MBR of the kernel set, ``M_A(1)``."""
        kernel = self.kernel()
        if kernel.shape[0] == 0:
            raise EmptyAlphaCutError(
                f"object {self.object_id} has no kernel; kernel MBR undefined"
            )
        return MBR.from_points(kernel)

    def alpha_mbr(self, alpha: float) -> MBR:
        """Exact MBR of the alpha-cut, ``M_A(alpha)``."""
        return MBR.from_points(self.alpha_cut(alpha))

    # ------------------------------------------------------------------
    # Sampling helpers used by the search optimisations
    # ------------------------------------------------------------------
    def representative_point(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """A point of the kernel, ``rep(A)`` (Section 3.4).

        The paper chooses the representative point at random from the kernel;
        a deterministic generator may be supplied for reproducibility.
        """
        kernel = self.kernel()
        if kernel.shape[0] == 0:
            raise EmptyAlphaCutError(
                f"object {self.object_id} has no kernel; representative undefined"
            )
        if rng is None:
            return kernel[0].copy()
        return kernel[int(rng.integers(0, kernel.shape[0]))].copy()

    def sample_alpha_cut(
        self,
        alpha: float,
        n_samples: int,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Sample ``n_samples`` points (without replacement) from the alpha-cut.

        Used to form ``Q'_alpha`` for the improved upper bound (Lemma 1).
        When the cut has fewer points than requested, all of them are
        returned.
        """
        cut = self.alpha_cut(alpha)
        if n_samples >= cut.shape[0]:
            return cut.copy()
        if rng is None:
            # Deterministic spread across the cut: ``np.linspace(0, last,
            # n_samples).astype(int)``'s arithmetic without its call overhead.
            last = cut.shape[0] - 1
            idx = (np.arange(n_samples) * (last / max(n_samples - 1, 1))).astype(int)
            idx[-1] = last if n_samples > 1 else 0
        else:
            idx = rng.choice(cut.shape[0], size=n_samples, replace=False)
        return cut[idx]

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "FuzzyObject":
        """Copy of the object scaled about the origin by ``factor``."""
        if factor <= 0:
            raise InvalidFuzzyObjectError("scale factor must be positive")
        return FuzzyObject(
            self.points * factor,
            self.memberships.copy(),
            object_id=self.object_id,
            require_kernel=False,
        )

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-Python representation (JSON friendly)."""
        return {
            "object_id": self.object_id,
            "points": self.points.tolist(),
            "memberships": self.memberships.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FuzzyObject":
        """Inverse of :meth:`to_dict`."""
        return cls(
            np.asarray(payload["points"], dtype=float),
            np.asarray(payload["memberships"], dtype=float),
            object_id=payload.get("object_id"),
            require_kernel=False,
        )

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FuzzyObject):
            return NotImplemented
        return (
            self.object_id == other.object_id
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.memberships, other.memberships)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing is enough
        return id(self)

    def __repr__(self) -> str:
        return (
            f"FuzzyObject(id={self.object_id}, points={self.size}, "
            f"dims={self.dimensions}, levels={self.distinct_memberships().size})"
        )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _check_alpha(alpha: float) -> None:
        if not 0.0 < alpha or above(alpha, 1.0):
            raise InvalidFuzzyObjectError(
                f"probability threshold must be in (0, 1], got {alpha}"
            )
