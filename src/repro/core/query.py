"""Query-side state shared by the search algorithms.

A :class:`PreparedQuery` fixes the query fuzzy object and the probability
threshold ``alpha`` and precomputes everything the bounds of Section 3 need:

* ``Q_alpha`` — the query alpha-cut and its MBR ``M_Q(alpha)``,
* ``Q'_alpha`` — the small sample of the alpha-cut used by the improved upper
  bound (Lemma 1),
* cheap accessors for the three bounds evaluated against a leaf summary:
  the *simple* lower bound (``MinDist`` of support MBRs, Algorithm 1), the
  *improved* lower bound ``d-_alpha`` (Equation 2 + ``MinDist``) and the two
  upper bounds ``d+_alpha`` (``MaxDist`` and the representative/sample bound).

The prepared query also evaluates exact alpha-distances against probed
objects, charging the metric counters as it goes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.config import RuntimeConfig
from repro.exceptions import InvalidQueryError
from repro.fuzzy.alpha_distance import alpha_distance_points
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.fuzzy.summary import FuzzyObjectSummary
from repro.geometry.distance import set_to_set_distances
from repro.geometry.mbr import MBR, max_dist, min_dist
from repro.metrics.counters import MetricsCollector

if TYPE_CHECKING:  # pragma: no cover - type-checking import only
    from repro.index.soa import NodeSoA


class PreparedQuery:
    """A query object bound to one probability threshold."""

    def __init__(
        self,
        query: FuzzyObject,
        alpha: float,
        config: Optional[RuntimeConfig] = None,
        rng: Optional[np.random.Generator] = None,
        metrics: Optional[MetricsCollector] = None,
    ):
        if not 0.0 < alpha <= 1.0:
            raise InvalidQueryError(f"alpha must be in (0, 1], got {alpha}")
        self.query = query
        self.alpha = float(alpha)
        self.config = (config or RuntimeConfig()).validate()
        self.metrics = metrics if metrics is not None else MetricsCollector()

        self.query_cut = query.alpha_cut(alpha)
        self.query_mbr = MBR.from_points(self.query_cut)
        # Q'_alpha is only consumed by the Lemma-1 upper bound, which the
        # reverse filter never reads (nor a reverse query with no candidate),
        # so the sampling (and its rng draws) is deferred until first access.
        self._rng = rng
        self._query_samples: Optional[np.ndarray] = None

    @property
    def query_samples(self) -> np.ndarray:
        """``Q'_alpha`` — the Lemma-1 sample of the alpha-cut (lazily drawn)."""
        if self._query_samples is None:
            self._query_samples = self.query.sample_alpha_cut(
                self.alpha, self.config.upper_bound_samples, self._rng
            )
        return self._query_samples

    # ------------------------------------------------------------------
    # Bounds against index entries
    # ------------------------------------------------------------------
    def node_lower_bound(self, mbr: MBR) -> float:
        """``MinDist`` between ``M_Q(alpha)`` and an internal node's MBR."""
        return min_dist(self.query_mbr, mbr)

    def simple_lower_bound(self, summary: FuzzyObjectSummary) -> float:
        """The basic algorithm's bound: ``MinDist(M_Q(alpha), M_A)``."""
        self.metrics.increment(MetricsCollector.LOWER_BOUND_EVALUATIONS)
        return min_dist(self.query_mbr, summary.support_mbr)

    def improved_lower_bound(self, summary: FuzzyObjectSummary) -> float:
        """``d-_alpha(A, Q) = MinDist(M_A(alpha)*, M_Q(alpha))`` (Section 3.2)."""
        self.metrics.increment(MetricsCollector.LOWER_BOUND_EVALUATIONS)
        return min_dist(self.query_mbr, summary.approx_alpha_mbr(self.alpha))

    def maxdist_upper_bound(self, summary: FuzzyObjectSummary) -> float:
        """``MaxDist(M_A(alpha)*, M_Q(alpha))`` — the lazy-probe upper bound."""
        self.metrics.increment(MetricsCollector.UPPER_BOUND_EVALUATIONS)
        return max_dist(self.query_mbr, summary.approx_alpha_mbr(self.alpha))

    def representative_upper_bound(self, summary: FuzzyObjectSummary) -> float:
        """``min_{q in Q'_alpha} ||rep(A) - q||`` — the Lemma 1 upper bound.

        ``rep(A)`` is a kernel point, so it belongs to every alpha-cut of
        ``A``; every sampled ``q`` belongs to ``Q_alpha``; hence any such pair
        distance upper-bounds the alpha-distance.
        """
        self.metrics.increment(MetricsCollector.UPPER_BOUND_EVALUATIONS)
        return float(set_to_set_distances(summary.representative[None], self.query_samples).min())

    def combined_upper_bound(self, summary: FuzzyObjectSummary) -> float:
        """The tighter of the MaxDist and representative/sample upper bounds."""
        return min(
            self.maxdist_upper_bound(summary),
            self.representative_upper_bound(summary),
        )

    # ------------------------------------------------------------------
    # Vectorized bounds against whole nodes (struct-of-arrays views)
    # ------------------------------------------------------------------
    def node_lower_bounds(self, soa: "NodeSoA") -> List[float]:
        """``MinDist`` of ``M_Q(alpha)`` to every child MBR of an internal node."""
        return soa.min_dist(self.query_mbr.lower, self.query_mbr.upper).tolist()

    def leaf_lower_bounds(self, soa: "NodeSoA", improved: bool) -> List[float]:
        """Lower bounds for every entry of a leaf node in one NumPy call.

        ``improved`` selects ``d-_alpha`` (Section 3.2) over the basic
        ``MinDist`` of support MBRs; element-wise the values match the scalar
        :meth:`improved_lower_bound` / :meth:`simple_lower_bound`.
        """
        self.metrics.increment(MetricsCollector.LOWER_BOUND_EVALUATIONS, soa.n)
        if improved:
            bounds = soa.improved_min_dist(
                self.alpha, self.query_mbr.lower, self.query_mbr.upper
            )
        else:
            bounds = soa.min_dist(self.query_mbr.lower, self.query_mbr.upper)
        return bounds.tolist()

    def leaf_upper_bounds(self, soa: "NodeSoA", use_representative: bool) -> List[float]:
        """Upper bounds (``d+_alpha``) for every entry of a leaf node.

        ``use_representative`` additionally applies the Lemma 1 bound from the
        stored kernel representatives to the sampled ``Q'_alpha`` and keeps
        the tighter value per entry, matching :meth:`combined_upper_bound`.
        """
        self.metrics.increment(MetricsCollector.UPPER_BOUND_EVALUATIONS, soa.n)
        bounds = soa.max_dist(self.alpha, self.query_mbr.lower, self.query_mbr.upper)
        if use_representative:
            bounds = np.minimum(bounds, soa.rep_upper_bounds(self.query_samples))
        return bounds.tolist()

    # ------------------------------------------------------------------
    # Exact distances
    # ------------------------------------------------------------------
    def distance_to(self, obj: FuzzyObject) -> float:
        """Exact ``d_alpha(A, Q)`` against a probed object."""
        self.metrics.increment(MetricsCollector.DISTANCE_EVALUATIONS)
        return alpha_distance_points(obj.alpha_cut(self.alpha), self.query_cut)

    def __repr__(self) -> str:
        samples = (
            "unsampled"
            if self._query_samples is None
            else str(self._query_samples.shape[0])
        )
        return (
            f"PreparedQuery(alpha={self.alpha}, cut={self.query_cut.shape[0]} pts, "
            f"samples={samples})"
        )
