"""Sequential-scan baselines.

The linear scan is the ground-truth oracle of the library: it probes every
object in the store, evaluates exact alpha-distances (or full distance
profiles) and answers AKNN / RKNN / range queries without any index.  The
paper uses it implicitly as the correctness reference ("the most
straightforward approach for answering AKNN query is to linearly scan the
whole dataset", Section 3.1); here it also anchors every invariant test.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.results import AKNNResult, Neighbor, QueryStats, RangeSearchResult, RKNNResult
from repro.exceptions import InvalidQueryError
from repro.fuzzy.alpha_distance import alpha_distance, distance_profile
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.fuzzy.intervals import IntervalSet
from repro.fuzzy.profile import DistanceProfile
from repro.metrics.timer import Timer
from repro.storage.object_store import ObjectStore

# Convention shared by every RKNN implementation: the elementary piece
# ``(a, b]`` of a step function is reported as the closed interval ``[a, b]``.
# The left endpoint is a measure-zero over-approximation; using the same
# convention everywhere makes results from different methods comparable.


def rank_objects(
    distances: Dict[int, float], k: int
) -> Tuple[List[int], float, float]:
    """Deterministic top-k selection shared by all RKNN refinement code.

    Returns ``(top_k_ids, kth_distance, k_plus_1_distance)`` where ties are
    broken by object id and the (k+1)-th distance is ``inf`` when fewer than
    ``k + 1`` objects are available.
    """
    ordered = sorted(distances.items(), key=lambda item: (item[1], item[0]))
    top = [object_id for object_id, _ in ordered[:k]]
    kth = ordered[min(k, len(ordered)) - 1][1] if ordered else float("inf")
    k_plus_1 = ordered[k][1] if len(ordered) > k else float("inf")
    return top, kth, k_plus_1


class LinearScanSearcher:
    """Index-free exact query evaluation over an :class:`ObjectStore`."""

    def __init__(self, store: ObjectStore):
        self.store = store

    # ------------------------------------------------------------------
    # AKNN
    # ------------------------------------------------------------------
    def aknn(self, query: FuzzyObject, k: int, alpha: float) -> AKNNResult:
        """Exact k nearest neighbours at ``alpha`` by scanning every object."""
        if k <= 0:
            raise InvalidQueryError(f"k must be positive, got {k}")
        if not 0.0 < alpha <= 1.0:
            raise InvalidQueryError(f"alpha must be in (0, 1], got {alpha}")
        before = self.store.statistics.snapshot()
        timer = Timer().start()
        distances: List[Tuple[float, int]] = []
        for object_id in self.store.object_ids():
            obj = self.store.get(object_id)
            distances.append((alpha_distance(obj, query, alpha), object_id))
        distances.sort(key=lambda pair: (pair[0], pair[1]))
        neighbors = [
            Neighbor(
                object_id=object_id,
                distance=distance,
                lower_bound=distance,
                upper_bound=distance,
                probed=True,
            )
            for distance, object_id in distances[:k]
        ]
        elapsed = timer.stop()
        stats = QueryStats(
            object_accesses=self.store.statistics.object_accesses - before.object_accesses,
            distance_evaluations=len(distances),
            elapsed_seconds=elapsed,
        )
        return AKNNResult(neighbors=neighbors, k=k, alpha=alpha, method="linear_scan", stats=stats)

    # ------------------------------------------------------------------
    # Range search at a fixed alpha
    # ------------------------------------------------------------------
    def range_search(
        self, query: FuzzyObject, alpha: float, radius: float
    ) -> RangeSearchResult:
        """All objects whose alpha-distance to ``query`` is at most ``radius``."""
        if radius < 0:
            raise InvalidQueryError(f"radius must be non-negative, got {radius}")
        if not 0.0 < alpha <= 1.0:
            raise InvalidQueryError(f"alpha must be in (0, 1], got {alpha}")
        before = self.store.statistics.snapshot()
        timer = Timer().start()
        matches: List[Tuple[int, float]] = []
        count = 0
        for object_id in self.store.object_ids():
            obj = self.store.get(object_id)
            distance = alpha_distance(obj, query, alpha)
            count += 1
            if distance <= radius:
                matches.append((object_id, distance))
        matches.sort(key=lambda pair: (pair[1], pair[0]))
        elapsed = timer.stop()
        stats = QueryStats(
            object_accesses=self.store.statistics.object_accesses - before.object_accesses,
            distance_evaluations=count,
            elapsed_seconds=elapsed,
        )
        return RangeSearchResult(matches=matches, radius=radius, alpha=alpha, stats=stats)

    # ------------------------------------------------------------------
    # RKNN ground truth
    # ------------------------------------------------------------------
    def distance_profiles(
        self, query: FuzzyObject, max_level: Optional[float] = None
    ) -> Dict[int, DistanceProfile]:
        """Exact distance profile of every stored object against ``query``."""
        profiles: Dict[int, DistanceProfile] = {}
        for object_id in self.store.object_ids():
            obj = self.store.get(object_id)
            profiles[object_id] = distance_profile(obj, query, max_level=max_level)
        return profiles

    def rknn(
        self, query: FuzzyObject, k: int, alpha_range: Tuple[float, float]
    ) -> RKNNResult:
        """Exact RKNN answer by exhaustive piecewise evaluation.

        Every stored object is probed once, its full distance profile is
        computed, and the combined membership levels split ``alpha_range``
        into elementary pieces on which all distances are constant; the top-k
        of each piece is recorded.
        """
        alpha_start, alpha_end = _validate_range(alpha_range)
        if k <= 0:
            raise InvalidQueryError(f"k must be positive, got {k}")
        before = self.store.statistics.snapshot()
        timer = Timer().start()
        profiles = self.distance_profiles(query, max_level=alpha_end)
        assignments = evaluate_piecewise(profiles, k, alpha_start, alpha_end)
        elapsed = timer.stop()
        stats = QueryStats(
            object_accesses=self.store.statistics.object_accesses - before.object_accesses,
            distance_evaluations=len(profiles),
            elapsed_seconds=elapsed,
        )
        return RKNNResult(
            assignments=assignments,
            k=k,
            alpha_range=(alpha_start, alpha_end),
            method="linear_scan",
            stats=stats,
        )


def evaluate_piecewise(
    profiles: Dict[int, DistanceProfile],
    k: int,
    alpha_start: float,
    alpha_end: float,
) -> Dict[int, IntervalSet]:
    """Exact qualifying ranges from a full set of distance profiles.

    The combined membership levels of all profiles partition
    ``[alpha_start, alpha_end]`` into pieces on which every distance is
    constant; the top-k (ties broken by object id) of each piece defines the
    assignment.  This is the semantics every RKNN method must reproduce.
    """
    assignments: Dict[int, IntervalSet] = {}
    if not profiles:
        return assignments
    boundaries = _piece_boundaries(profiles, alpha_start, alpha_end)
    previous = alpha_start
    for boundary in boundaries:
        evaluation_point = min(boundary, 1.0)
        distances = {
            object_id: profile.value(evaluation_point)
            for object_id, profile in profiles.items()
        }
        top, _, _ = rank_objects(distances, k)
        for object_id in top:
            assignments.setdefault(object_id, IntervalSet()).add_range(previous, boundary)
        previous = boundary
    return assignments


def _piece_boundaries(
    profiles: Dict[int, DistanceProfile], alpha_start: float, alpha_end: float
) -> List[float]:
    """Right endpoints of the elementary pieces covering ``[alpha_start, alpha_end]``.

    The closed left endpoint is evaluated as its own (degenerate) piece: when
    ``alpha_start`` coincides exactly with a membership level, the kNN set at
    that single threshold can differ from the one on the piece just above it,
    and Definition 5 includes it in the answer.
    """
    levels: set = set()
    for profile in profiles.values():
        for level in profile.levels:
            if alpha_start < level < alpha_end:
                levels.add(float(level))
    boundaries = [alpha_start]
    boundaries.extend(sorted(levels))
    boundaries.append(alpha_end)
    return boundaries


def _validate_range(alpha_range: Tuple[float, float]) -> Tuple[float, float]:
    alpha_start, alpha_end = float(alpha_range[0]), float(alpha_range[1])
    if not 0.0 < alpha_start <= 1.0 or not 0.0 < alpha_end <= 1.0:
        raise InvalidQueryError(
            f"alpha range endpoints must be in (0, 1], got {alpha_range}"
        )
    if alpha_end < alpha_start:
        raise InvalidQueryError(
            f"alpha range start {alpha_start} exceeds end {alpha_end}"
        )
    return alpha_start, alpha_end
