"""Core query processing: AKNN and RKNN search over fuzzy objects.

The public entry point for most users is :class:`~repro.core.database.FuzzyDatabase`,
which bundles the object store, the R-tree and the searchers behind a small
API::

    db = FuzzyDatabase.build(objects, path="./db")
    result = db.execute(AknnRequest(query, k=20, alpha=0.5))
    ranges = db.execute(SweepRequest(query, k=20, alpha_range=(0.3, 0.6)))

Lower-level pieces (individual search algorithms and their method variants)
are exposed for experimentation and benchmarking:

* :class:`~repro.core.aknn.AKNNSearcher` — Algorithms 1 and 2 with the LB,
  LP and UB optimisations of Section 3.
* :class:`~repro.core.rknn.RKNNSearcher` — the basic, RSS and RSS-ICR
  strategies of Section 4.

The brute-force answers every search is tested against live outside this
package, in :mod:`repro.reference`, and share no code with it.
"""

from repro.core.requests import (
    AknnMethod,
    AknnRequest,
    QueryRequest,
    RangeRequest,
    ReverseRequest,
    SweepMethod,
    SweepRequest,
)
from repro.core.results import (
    AKNNResult,
    BatchResult,
    Neighbor,
    QueryStats,
    RKNNResult,
    RangeSearchResult,
)
from repro.core.query import PreparedQuery
from repro.core.aknn import AKNNSearcher, AKNN_METHODS
from repro.core.executor import BatchQueryExecutor
from repro.core.range_search import AlphaRangeSearcher
from repro.core.rknn import RKNNSearcher, RKNN_METHODS
from repro.core.database import FuzzyDatabase
from repro.core.reverse_nn import ReverseAKNNSearcher, ReverseKNNResult

__all__ = [
    "AknnMethod",
    "AknnRequest",
    "QueryRequest",
    "RangeRequest",
    "ReverseRequest",
    "SweepMethod",
    "SweepRequest",
    "AKNNResult",
    "BatchResult",
    "Neighbor",
    "QueryStats",
    "RKNNResult",
    "RangeSearchResult",
    "PreparedQuery",
    "AKNNSearcher",
    "AKNN_METHODS",
    "BatchQueryExecutor",
    "AlphaRangeSearcher",
    "RKNNSearcher",
    "RKNN_METHODS",
    "FuzzyDatabase",
    "ReverseAKNNSearcher",
    "ReverseKNNResult",
]
