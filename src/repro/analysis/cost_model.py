"""The analytical access-cost model of Section 5 (Equations 6-8).

The model estimates how many objects a *basic* AKNN search touches, assuming
a dataset of ideal fuzzy objects (Definition 8: spheres whose alpha-cut radius
is a function ``R(alpha)``):

1. Represent every object by its centre; the expected distance from the query
   centre to its k-th nearest centre in a unit space follows from the
   correlation fractal dimension (Equation 6 for uniform 2-d data).
2. The alpha-distance to the k-th neighbour is that centre distance minus the
   two alpha-cut radii: ``d_knn(alpha) = eps - 2 R(alpha)``.
3. The number of leaf/object accesses of the resulting range query follows
   the Papadopoulos-Manolopoulos formula (Equation 7); substituting the kNN
   range ``d_knn(alpha) + R(alpha)`` yields Equation 8.

All distances inside the formulas live in the unit space; the model accepts a
``space_size`` so callers can work in data coordinates (the paper's space is
100 x 100).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.config import DEFAULT_RTREE_MAX_ENTRIES

# Radius functions map a probability threshold to the alpha-cut radius of an
# ideal fuzzy object, in data coordinates.
RadiusFunction = Callable[[float], float]


def estimate_knn_radius(k: int, n_objects: int, dimension: float = 2.0) -> float:
    """Equation 6: expected centre distance to the k-th neighbour (unit space).

    For a uniform 2-d dataset (``D2 = 2``) this reduces to the closed form
    ``(1 / sqrt(pi)) * sqrt(k / (N - 1))``; other correlation dimensions use
    the general form obtained by inverting ``nb(eps) = (N-1) (sqrt(pi) eps)^D2``.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if n_objects < 2:
        raise ValueError("the cost model needs at least two objects")
    ratio = k / (n_objects - 1)
    return float(ratio ** (1.0 / dimension) / math.sqrt(math.pi))


def gaussian_cut_radius(
    alpha: float, object_radius: float = 0.5, sigma: float = 0.5
) -> float:
    """``R(alpha)`` of the paper's synthetic objects.

    Raw membership of a synthetic point at distance ``r`` from the centre is
    ``g(r) = exp(-r^2 / (2 sigma^2))``; Section 6.1 then normalises the values
    across 0 to 1, i.e. ``mu(r) = (g(r) - g(R)) / (1 - g(R))`` where ``R`` is
    the object radius.  Inverting ``mu(r) = alpha`` gives the alpha-cut radius
    ``sigma * sqrt(-2 ln(alpha + (1 - alpha) g(R)))``, clipped to ``[0, R]``.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if alpha == 1.0:
        return 0.0
    boundary_membership = math.exp(-(object_radius**2) / (2.0 * sigma**2))
    raw = alpha + (1.0 - alpha) * boundary_membership
    radius = sigma * math.sqrt(-2.0 * math.log(raw))
    return float(min(object_radius, max(0.0, radius)))


@dataclass
class AccessCostModel:
    """Equation 8: expected number of object accesses of a basic AKNN search.

    Parameters
    ----------
    n_objects:
        Dataset cardinality ``N``.
    radius_function:
        ``R(alpha)`` of the ideal fuzzy objects, in data coordinates.
    space_size:
        Side length of the (square) data space; 1.0 for unit-space inputs.
    node_capacity:
        Maximum R-tree leaf fan-out ``C_max``.
    utilization:
        Average node utilisation ``U_avg``; STR bulk loading packs nodes
        nearly full, so the default is 0.9.
    hausdorff_dimension, correlation_dimension:
        ``D0`` and ``D2`` of the object centres (both 2 for uniform 2-d data).
    """

    n_objects: int
    radius_function: RadiusFunction
    space_size: float = 1.0
    node_capacity: int = DEFAULT_RTREE_MAX_ENTRIES
    utilization: float = 0.9
    hausdorff_dimension: float = 2.0
    correlation_dimension: float = 2.0

    def __post_init__(self) -> None:
        if self.n_objects < 2:
            raise ValueError("the cost model needs at least two objects")
        if self.space_size <= 0:
            raise ValueError("space_size must be positive")
        if self.node_capacity < 1:
            raise ValueError("node_capacity must be positive")
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError("utilization must be in (0, 1]")

    # ------------------------------------------------------------------
    # Intermediate quantities
    # ------------------------------------------------------------------
    @property
    def average_capacity(self) -> float:
        """``C_avg = C_max * U_avg``."""
        return self.node_capacity * self.utilization

    def knn_center_distance(self, k: int) -> float:
        """Equation 6 scaled into data coordinates."""
        return (
            estimate_knn_radius(k, self.n_objects, self.correlation_dimension)
            * self.space_size
        )

    def knn_distance(self, k: int, alpha: float) -> float:
        """``d_knn(alpha) = eps - 2 R(alpha)`` in data coordinates."""
        return max(0.0, self.knn_center_distance(k) - 2.0 * self.radius_function(alpha))

    def search_range(self, k: int, alpha: float) -> float:
        """The equivalent range-query radius ``d_knn(alpha) + R(alpha)``."""
        return max(0.0, self.knn_distance(k, alpha) + self.radius_function(alpha))

    # ------------------------------------------------------------------
    # Equations 7 and 8
    # ------------------------------------------------------------------
    def range_query_accesses(self, search_range: float, capacity: Optional[float] = None) -> float:
        """Equation 7: expected leaf accesses of a range query of radius ``d``.

        ``capacity`` is ``C_avg``, the average number of data entries per
        accessed unit.  The default (``C_max * U_avg``) estimates accesses to
        R-tree *leaf nodes*; passing ``capacity=1`` estimates accesses to
        individual data entries, which in this library's layout (one fuzzy
        object per leaf entry, Section 3.1 of the paper) is the number of
        *objects* touched.
        """
        if search_range < 0:
            raise ValueError("search_range must be non-negative")
        c_avg = self.average_capacity if capacity is None else float(capacity)
        d_unit = search_range / self.space_size
        side = (c_avg / self.n_objects) ** (1.0 / self.hausdorff_dimension)
        leaves = (
            (self.n_objects - 1)
            / c_avg
            * (side + 2.0 * d_unit) ** self.correlation_dimension
        )
        return float(max(leaves, 1.0))

    def predict_object_accesses(self, k: int, alpha: float) -> float:
        """Equation 8: expected number of objects accessed by a basic AKNN query.

        Each fuzzy object is one leaf entry, so the object-level prediction
        evaluates the range-query formula with a per-entry capacity of one;
        the prediction can never drop below ``k`` because the k results
        themselves must always be verified.
        """
        objects = self.range_query_accesses(self.search_range(k, alpha), capacity=1.0)
        return float(max(objects, k))

    @classmethod
    def for_synthetic_dataset(
        cls,
        n_objects: int,
        space_size: float = 100.0,
        object_radius: float = 0.5,
        sigma: float = 0.5,
        node_capacity: int = DEFAULT_RTREE_MAX_ENTRIES,
        utilization: float = 0.9,
        correlation_dimension: Optional[float] = None,
        hausdorff_dimension: Optional[float] = None,
    ) -> "AccessCostModel":
        """Model preconfigured for the paper's synthetic dataset."""
        return cls(
            n_objects=n_objects,
            radius_function=lambda alpha: gaussian_cut_radius(alpha, object_radius, sigma),
            space_size=space_size,
            node_capacity=node_capacity,
            utilization=utilization,
            hausdorff_dimension=hausdorff_dimension or 2.0,
            correlation_dimension=correlation_dimension or 2.0,
        )
