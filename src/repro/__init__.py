"""Reproduction of "K-Nearest Neighbor Search for Fuzzy Objects" (SIGMOD 2010).

The library implements the paper's fuzzy object model, the alpha-distance,
and the AKNN / RKNN query processing algorithms (with every optimisation the
paper evaluates), together with the substrates they rely on: an R-tree over
fuzzy-object summaries, a disk-backed object store with exact access counting,
dataset generators matching the experimental setup and the Section-5 cost
model.  ``tests/test_paper.py`` asserts the shapes of Figures 11-15 and the
cost model's agreement on both engines; ``benchmarks/scale.py`` prints them.

Typical usage::

    import numpy as np
    from repro import FuzzyDatabase, FuzzyObject

    rng = np.random.default_rng(0)
    objects = [
        FuzzyObject(rng.random((50, 2)) + i, np.linspace(0.05, 1.0, 50))
        for i in range(100)
    ]
    db = FuzzyDatabase.build(objects)
    query = FuzzyObject.single_point([5.0, 5.0])
    result = db.execute(AknnRequest(query, k=5, alpha=0.5))
    for neighbor in result.sorted_by_distance():
        print(neighbor.object_id, neighbor.distance)

Every query is a typed request (:mod:`repro.core.requests`) executed through
the two methods ``execute`` / ``execute_batch``,
implemented identically by :class:`FuzzyDatabase`, :class:`ShardedDatabase`
and :class:`QueryService`; a batch may mix request types freely.
"""

from repro.config import PaperDefaults, RuntimeConfig, DEFAULTS
from repro.exceptions import (
    EmptyAlphaCutError,
    InvalidFuzzyObjectError,
    InvalidQueryError,
    ObjectNotFoundError,
    ReproError,
    SerializationError,
    ServiceOverloadedError,
    ServiceStoppedError,
    StorageCorruptionError,
    StorageError,
)
from repro.fuzzy import (
    DistanceProfile,
    FuzzyObject,
    FuzzyObjectSummary,
    Interval,
    IntervalSet,
    alpha_distance,
    distance_profile,
)
from repro.geometry import MBR, max_dist, min_dist
from repro.index import RTree
from repro.storage import ObjectStore
from repro.core import (
    AknnMethod,
    AknnRequest,
    QueryRequest,
    RangeRequest,
    ReverseRequest,
    SweepMethod,
    SweepRequest,
    AKNN_METHODS,
    AKNNResult,
    AKNNSearcher,
    AlphaRangeSearcher,
    FuzzyDatabase,
    Neighbor,
    QueryStats,
    ReverseAKNNSearcher,
    ReverseKNNResult,
    RKNN_METHODS,
    RKNNResult,
    RKNNSearcher,
    RangeSearchResult,
)
from repro.analysis import AccessCostModel
from repro.service import (
    DeliverySubscription,
    QueryService,
    ResultDelta,
    ServiceStats,
    ShardedDatabase,
    SubscriptionEngine,
)
from repro.storage import Manifest, SnapshotManager, WriteAheadLog

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # Configuration
    "PaperDefaults",
    "RuntimeConfig",
    "DEFAULTS",
    # Exceptions
    "ReproError",
    "InvalidFuzzyObjectError",
    "InvalidQueryError",
    "EmptyAlphaCutError",
    "StorageError",
    "StorageCorruptionError",
    "ObjectNotFoundError",
    "SerializationError",
    "ServiceOverloadedError",
    "ServiceStoppedError",
    # Fuzzy object model
    "FuzzyObject",
    "FuzzyObjectSummary",
    "DistanceProfile",
    "Interval",
    "IntervalSet",
    "alpha_distance",
    "distance_profile",
    # Geometry
    "MBR",
    "min_dist",
    "max_dist",
    # Substrates
    "RTree",
    "ObjectStore",
    # The query surface (typed requests)
    "AknnMethod",
    "AknnRequest",
    "QueryRequest",
    "RangeRequest",
    "ReverseRequest",
    "SweepMethod",
    "SweepRequest",
    # Query processing
    "FuzzyDatabase",
    "AKNNSearcher",
    "AKNN_METHODS",
    "RKNNSearcher",
    "RKNN_METHODS",
    "AlphaRangeSearcher",
    "AKNNResult",
    "RKNNResult",
    "RangeSearchResult",
    "Neighbor",
    "QueryStats",
    # Extension query (the paper's proposed follow-up work)
    "ReverseAKNNSearcher",
    "ReverseKNNResult",
    # Serving
    "ShardedDatabase",
    "QueryService",
    "ServiceStats",
    # Durability
    "WriteAheadLog",
    "Manifest",
    "SnapshotManager",
    # Standing queries
    "SubscriptionEngine",
    "DeliverySubscription",
    "ResultDelta",
    # Analysis
    "AccessCostModel",
]
