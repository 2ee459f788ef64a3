"""Cost analysis of Section 5.

* :mod:`~repro.analysis.cost_model` — the analytical estimate of the number
  of objects accessed by an AKNN query (Equations 6-8), parameterised by the
  ideal-fuzzy-object radius function ``R(alpha)``.
"""

from repro.analysis.cost_model import (
    AccessCostModel,
    estimate_knn_radius,
)

__all__ = [
    "AccessCostModel",
    "estimate_knn_radius",
]
