"""Struct-of-arrays (SoA) views of R-tree nodes.

Evaluating a bound against every entry of a node one Python object at a time
(:class:`~repro.index.entry.LeafEntry` / :class:`~repro.index.entry.InternalEntry`)
dominates the cost of a query and, as it turned out, of a write.
:class:`NodeSoA` mirrors a node's entries as contiguous ``(n, d)`` arrays so
the searchers compute ``MinDist``, ``MaxDist`` and the approximated alpha-cut
MBR ``M_A(alpha)*`` (Equation 2), and tree maintenance its areas, enlargements
and containment tests, for the whole node in a handful of NumPy calls.

A leaf SoA additionally carries the summary payload of every entry — kernel
MBRs, conservative-line coefficients and representative kernel points — and
memoises the Equation-2 reconstruction per threshold in a small LRU cache, so
repeated queries at the same ``alpha`` (and every query of a batch) share one
reconstruction per node.

The SoA is maintained incrementally: appending an entry grows the arrays with
amortised-doubling capacity, a removal shifts its row out, and directory-entry
MBR refreshes update the affected row in place.  Structural rewrites (node
splits) invalidate the view, which is rebuilt lazily on next access.

The element-wise formulas are kept identical to the scalar paths in
:mod:`repro.geometry.mbr` and :class:`~repro.fuzzy.summary.FuzzyObjectSummary`
so vectorized and per-entry evaluation agree to the last bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from repro.config import DEFAULT_NODE_ALPHA_CACHE_CAPACITY
from repro.geometry.mbr import MBR
from repro.index.entry import InternalEntry, LeafEntry
from repro.storage.cache import LRUCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.index.node import Entry


# ----------------------------------------------------------------------
# Vectorized bound kernels
# ----------------------------------------------------------------------
def _box_distances(term, query_lower, query_upper, lower, upper) -> np.ndarray:
    """``sqrt(sum_d term_d^2)`` of a per-dimension box-pair ``term``.

    Accumulates dimension by dimension on ``(n,)`` / ``(B, n)`` planes, never
    building ``(B, n, d)`` to reduce a trailing axis of length ``d``.
    """
    total = None
    for dim in range(lower.shape[-1]):
        side = term(
            query_lower[..., dim, None], query_upper[..., dim, None],
            lower[..., dim], upper[..., dim],
        )
        np.square(side, out=side)
        total = side if total is None else np.add(total, side, out=total)
    return np.sqrt(total, out=total)


def _gap(query_lower, query_upper, lower, upper) -> np.ndarray:
    return np.maximum(0.0, np.maximum(lower - query_upper, query_lower - upper))


def _span(query_lower, query_upper, lower, upper) -> np.ndarray:
    return np.maximum(np.abs(upper - query_lower), np.abs(lower - query_upper))


def min_dist_to_boxes(
    query_lower: np.ndarray,
    query_upper: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """``MinDist`` (Equation 1) between one or more query boxes and ``n`` boxes.

    ``query_lower`` / ``query_upper`` may be ``(d,)`` (one query, result
    ``(n,)``) or ``(B, d)`` (a batch, result ``(B, n)``); ``lower`` / ``upper``
    are the ``(n, d)`` box arrays, or ``(B, n, d)`` to pair query ``b`` with
    its own ``n`` boxes only (result ``(B, n)``).
    """
    return _box_distances(_gap, query_lower, query_upper, lower, upper)


def max_dist_to_boxes(
    query_lower: np.ndarray,
    query_upper: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """``MaxDist`` (Equation 3), with the same broadcasting as :func:`min_dist_to_boxes`."""
    return _box_distances(_span, query_lower, query_upper, lower, upper)


# Element budget of one (rows, N) MaxDist block in the all-pairs reverse-kNN
# filter kernels: 256 KB planes stay cache-resident across the per-dimension
# passes.  Set when every `family_batches` reverse bucket counted its own
# 250 rows x 500 boxes x 1 query (125 000 elements): 1.5 ms in four blocks
# against 3.7 ms as one 1 MB plane, +9.8 % `ops_per_s` end to end (README
# "Exact distances").  The same planes now build the k-th MaxDist table, once
# per partition-set version.
_PAIRWISE_BLOCK_ELEMENTS = 32_768


def certainly_closer_counts(
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    all_lower: np.ndarray,
    all_upper: np.ndarray,
    thresholds: np.ndarray,
    self_index: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-row counts of boxes whose ``MaxDist`` beats the row's threshold.

    For every row box ``i`` (``row_lower``/``row_upper``, shape ``(m, d)``)
    and every box ``j`` of the full set (``all_lower``/``all_upper``, shape
    ``(N, d)``), the pair is counted when ``MaxDist(row_i, box_j) <
    thresholds[..., i]`` — the all-pairs disqualification test of the reverse
    AKNN candidate filter, evaluated as chunked ``(rows, N)`` matrices so the
    peak temporary stays bounded for any ``N``.

    ``thresholds`` is ``(m,)`` for one query or ``(Q, m)`` for a batch of
    queries sharing the same boxes; the result has the same leading shape.
    ``self_index`` gives each row's position within the full box set so the
    row's pairing with itself is excluded from its count.  The reverse
    filter decides through :func:`kth_max_dists` instead; this count stays
    as its reference.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    single = thresholds.ndim == 1
    if single:
        thresholds = thresholds[None, :]
    m = row_lower.shape[0]
    n = all_lower.shape[0]
    counts = np.zeros((thresholds.shape[0], m), dtype=np.int64)
    # The (Q, rows, N) comparison temp is the peak allocation, so the row
    # budget divides by the query count as well as the box count.
    chunk = max(1, _PAIRWISE_BLOCK_ELEMENTS // max(1, n * thresholds.shape[0]))
    for start in range(0, m, chunk):
        stop = min(m, start + chunk)
        md = max_dist_to_boxes(
            row_lower[start:stop], row_upper[start:stop], all_lower, all_upper
        )
        block = thresholds[:, start:stop]
        counts[:, start:stop] = (md[None, :, :] < block[:, :, None]).sum(axis=2)
        if self_index is not None:
            rows = np.arange(start, stop)
            self_md = md[rows - start, self_index[start:stop]]
            counts[:, start:stop] -= self_md[None, :] < block
    return counts[0] if single else counts


def kth_max_dists(
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    all_lower: np.ndarray,
    all_upper: np.ndarray,
    k: int,
    self_index: np.ndarray,
) -> np.ndarray:
    """Per-row ``k``-th smallest ``MaxDist`` to the other boxes of the full set.

    The query-independent half of :func:`certainly_closer_counts`: fewer
    than ``k`` boxes have ``MaxDist(row_i, box_j) < t`` exactly when the
    value returned for row ``i`` is ``>= t``, so one ``(m,)`` vector per box
    set, ``alpha`` and ``k`` decides the filter for every threshold.  The
    ``MaxDist`` values come from the same :func:`max_dist_to_boxes` planes
    under the same block budget, so the decision is bit-identical.
    ``self_index`` gives each row's position within the full box set, whose
    pairing with the row itself is excluded; a row with fewer than ``k``
    other boxes gets ``inf``.
    """
    m = row_lower.shape[0]
    n = all_lower.shape[0]
    kth = np.full(m, np.inf)
    if n - 1 < k:
        return kth
    chunk = max(1, _PAIRWISE_BLOCK_ELEMENTS // n)
    for start in range(0, m, chunk):
        stop = min(m, start + chunk)
        md = max_dist_to_boxes(
            row_lower[start:stop], row_upper[start:stop], all_lower, all_upper
        )
        md[np.arange(stop - start), self_index[start:stop]] = np.inf
        md.partition(k - 1, axis=1)
        kth[start:stop] = md[:, k - 1]
    return kth


def rep_to_samples_distances(reps: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Lemma 1 upper bounds: ``min_{q in samples} ||rep_i - q||`` per row.

    ``reps`` is ``(n, d)``, ``samples`` is ``(s, d)``; the result is ``(n,)``.
    The paired form takes ``(B, n, d)`` reps and ``(B, s, d)`` samples and
    pairs batch ``b``'s reps with its own samples only (result ``(B, n)``).
    Squares per dimension in the order of
    :func:`repro.geometry.distance.pairwise_sq_blocks`, so the values agree
    with it to the last bit.  The ``(n, s)`` planes are small (a node's or a
    bucket's reps against at most ``upper_bound_samples`` points), so they
    are not blocked.
    """
    sq = None
    for dim in range(reps.shape[-1]):
        term = np.subtract(reps[..., :, dim, None], samples[..., None, :, dim])
        np.square(term, out=term)
        sq = term if sq is None else np.add(sq, term, out=sq)
    return np.sqrt(sq.min(axis=-1))


class NodeSoA:
    """Contiguous arrays mirroring the entries of one R-tree node.

    Attributes are backed by over-allocated buffers; the public accessors
    return views truncated to the live row count ``n`` so appends stay
    amortised O(d).
    """

    __slots__ = (
        "is_leaf",
        "dimensions",
        "_n",
        "_lo",
        "_hi",
        "_kernel_lo",
        "_kernel_hi",
        "_up_slope",
        "_up_icpt",
        "_lo_slope",
        "_lo_icpt",
        "_reps",
        "_object_ids",
        "_alpha_cache",
    )

    def __init__(self, entries: Sequence["Entry"], is_leaf: bool):
        if not entries:
            raise ValueError("cannot build a SoA view of an empty node")
        self.is_leaf = is_leaf
        self.dimensions = entries[0].mbr.dimensions
        n = len(entries)
        capacity = max(4, n)
        d = self.dimensions
        self._n = 0
        self._lo = np.empty((capacity, d))
        self._hi = np.empty((capacity, d))
        if is_leaf:
            self._kernel_lo = np.empty((capacity, d))
            self._kernel_hi = np.empty((capacity, d))
            self._up_slope = np.empty((capacity, d))
            self._up_icpt = np.empty((capacity, d))
            self._lo_slope = np.empty((capacity, d))
            self._lo_icpt = np.empty((capacity, d))
            self._reps = np.empty((capacity, d))
            self._object_ids = np.empty(capacity, dtype=np.int64)
        else:
            self._kernel_lo = self._kernel_hi = None
            self._up_slope = self._up_icpt = None
            self._lo_slope = self._lo_icpt = None
            self._reps = None
            self._object_ids = None
        self._alpha_cache: LRUCache[float, Tuple[np.ndarray, np.ndarray]] = LRUCache(
            DEFAULT_NODE_ALPHA_CACHE_CAPACITY if is_leaf else 0
        )
        for entry in entries:
            self.append(entry)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of live rows (entries mirrored)."""
        return self._n

    def _grow(self) -> None:
        capacity = self._lo.shape[0] * 2

        def enlarge(buffer: np.ndarray) -> np.ndarray:
            grown = np.empty((capacity,) + buffer.shape[1:], dtype=buffer.dtype)
            grown[: self._n] = buffer[: self._n]
            return grown

        self._lo = enlarge(self._lo)
        self._hi = enlarge(self._hi)
        if self.is_leaf:
            self._kernel_lo = enlarge(self._kernel_lo)
            self._kernel_hi = enlarge(self._kernel_hi)
            self._up_slope = enlarge(self._up_slope)
            self._up_icpt = enlarge(self._up_icpt)
            self._lo_slope = enlarge(self._lo_slope)
            self._lo_icpt = enlarge(self._lo_icpt)
            self._reps = enlarge(self._reps)
            self._object_ids = enlarge(self._object_ids)

    def append(self, entry: "Entry") -> None:
        """Mirror one appended entry (amortised-doubling growth)."""
        if self._n == self._lo.shape[0]:
            self._grow()
        i = self._n
        mbr = entry.mbr
        self._lo[i] = mbr.lower
        self._hi[i] = mbr.upper
        if self.is_leaf:
            if not isinstance(entry, LeafEntry):  # pragma: no cover - guarded upstream
                raise TypeError("leaf SoA only accepts LeafEntry rows")
            summary = entry.summary
            self._kernel_lo[i] = summary.kernel_mbr.lower
            self._kernel_hi[i] = summary.kernel_mbr.upper
            for dim in range(self.dimensions):
                self._up_slope[i, dim] = summary.upper_lines[dim].slope
                self._up_icpt[i, dim] = summary.upper_lines[dim].intercept
                self._lo_slope[i, dim] = summary.lower_lines[dim].slope
                self._lo_icpt[i, dim] = summary.lower_lines[dim].intercept
            self._reps[i] = summary.representative
            self._object_ids[i] = summary.object_id
        elif not isinstance(entry, InternalEntry):  # pragma: no cover
            raise TypeError("internal SoA only accepts InternalEntry rows")
        self._n = i + 1
        self._alpha_cache.clear()

    def refresh_box(self, index: int, mbr: MBR) -> None:
        """Update one row's MBR in place after a directory-entry refresh."""
        self._lo[index] = mbr.lower
        self._hi[index] = mbr.upper
        self._alpha_cache.clear()

    def remove_row(self, index: int) -> None:
        """Drop one row in place after an entry deletion.

        The rows above ``index`` shift down by one so the view stays aligned
        with the node's ``entries`` list (which removes by ``list.pop``); the
        memoised per-alpha reconstructions are invalidated.
        """
        n = self._n
        if not 0 <= index < n:
            raise IndexError(f"row {index} out of range for SoA of {n} rows")

        def shift(buffer: np.ndarray) -> None:
            buffer[index : n - 1] = buffer[index + 1 : n]

        shift(self._lo)
        shift(self._hi)
        if self.is_leaf:
            shift(self._kernel_lo)
            shift(self._kernel_hi)
            shift(self._up_slope)
            shift(self._up_icpt)
            shift(self._lo_slope)
            shift(self._lo_icpt)
            shift(self._reps)
            shift(self._object_ids)
        self._n = n - 1
        self._alpha_cache.clear()

    # ------------------------------------------------------------------
    # Array views
    # ------------------------------------------------------------------
    @property
    def lo(self) -> np.ndarray:
        """``(n, d)`` lower bounds of the entry MBRs."""
        return self._lo[: self._n]

    @property
    def hi(self) -> np.ndarray:
        """``(n, d)`` upper bounds of the entry MBRs."""
        return self._hi[: self._n]

    @property
    def reps(self) -> np.ndarray:
        """``(n, d)`` representative kernel points (leaf SoA only)."""
        return self._reps[: self._n]

    @property
    def object_ids(self) -> np.ndarray:
        """``(n,)`` object ids (leaf SoA only)."""
        return self._object_ids[: self._n]

    # ------------------------------------------------------------------
    # Vectorized bounds
    # ------------------------------------------------------------------
    def approx_alpha_bounds(self, alpha: float) -> Tuple[np.ndarray, np.ndarray]:
        """``M_A(alpha)*`` (Equation 2) for every leaf entry, memoised per alpha.

        Returns ``(lower, upper)`` arrays of shape ``(n, d)``; element-wise the
        computation matches
        :meth:`repro.fuzzy.summary.FuzzyObjectSummary.approx_alpha_mbr`.
        """
        if not self.is_leaf:
            raise TypeError("approx_alpha_bounds requires a leaf SoA")
        alpha = float(alpha)
        cached = self._alpha_cache.get(alpha)
        if cached is not None:
            return cached
        n = self._n
        delta_up = np.maximum(0.0, self._up_slope[:n] * alpha + self._up_icpt[:n])
        delta_lo = np.maximum(0.0, self._lo_slope[:n] * alpha + self._lo_icpt[:n])
        upper = np.minimum(self._kernel_hi[:n] + delta_up, self._hi[:n])
        lower = np.maximum(self._kernel_lo[:n] - delta_lo, self._lo[:n])
        # Numerical safety, as in the scalar path: collapse inverted intervals
        # onto their midpoint so the approximation stays a valid box.
        inverted = lower > upper
        if inverted.any():
            mid = (lower + upper) / 2.0
            lower = np.where(inverted, mid, lower)
            upper = np.where(inverted, mid, upper)
        result = (lower, upper)
        self._alpha_cache.put(alpha, result)
        return result

    def min_dist(self, query_lower: np.ndarray, query_upper: np.ndarray) -> np.ndarray:
        """``MinDist`` from the query box(es) to every entry MBR."""
        return min_dist_to_boxes(query_lower, query_upper, self.lo, self.hi)

    def improved_min_dist(
        self, alpha: float, query_lower: np.ndarray, query_upper: np.ndarray
    ) -> np.ndarray:
        """``d-_alpha`` (Section 3.2): MinDist against ``M_A(alpha)*`` per entry."""
        lower, upper = self.approx_alpha_bounds(alpha)
        return min_dist_to_boxes(query_lower, query_upper, lower, upper)

    def max_dist(
        self, alpha: float, query_lower: np.ndarray, query_upper: np.ndarray
    ) -> np.ndarray:
        """``MaxDist(M_A(alpha)*, M_Q(alpha))`` per entry (lazy-probe upper bound)."""
        lower, upper = self.approx_alpha_bounds(alpha)
        return max_dist_to_boxes(query_lower, query_upper, lower, upper)

    def rep_upper_bounds(self, query_samples: np.ndarray) -> np.ndarray:
        """Lemma 1 upper bounds from the stored representatives to ``Q'_alpha``."""
        return rep_to_samples_distances(self.reps, query_samples)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"NodeSoA({kind}, n={self._n}, d={self.dimensions})"
