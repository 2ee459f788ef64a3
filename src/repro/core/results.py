"""Result and statistics types returned by the searchers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.fuzzy.alpha_distance import alpha_distance
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.fuzzy.intervals import IntervalSet


@dataclass
class QueryStats:
    """Cost counters collected while answering one query.

    ``object_accesses`` is the paper's headline metric (Figures 11, 13, 15a);
    ``elapsed_seconds`` corresponds to the running-time figures (12, 14, 15b).
    The remaining counters expose where each optimisation saves work.

    ``distance_evaluations`` counts exact alpha-distance work actually done:
    one per ``(query, object)`` distance evaluated, and in a sweep (every
    method) one per distance profile computed.  A profile the same request
    computed earlier, or a distance the caller already held, counts none.
    A bucket's families read it from their
    :class:`~repro.core.executor.Decisions` record (its ``EVALUATED`` rows),
    never from a counter kept beside the decisions.
    """

    object_accesses: int = 0
    node_accesses: int = 0
    distance_evaluations: int = 0
    lower_bound_evaluations: int = 0
    upper_bound_evaluations: int = 0
    aknn_calls: int = 0
    range_calls: int = 0
    refinement_steps: int = 0
    elapsed_seconds: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another stats record into this one."""
        self.object_accesses += other.object_accesses
        self.node_accesses += other.node_accesses
        self.distance_evaluations += other.distance_evaluations
        self.lower_bound_evaluations += other.lower_bound_evaluations
        self.upper_bound_evaluations += other.upper_bound_evaluations
        self.aknn_calls += other.aknn_calls
        self.range_calls += other.range_calls
        self.refinement_steps += other.refinement_steps
        self.elapsed_seconds += other.elapsed_seconds
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0.0) + value

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary used by the benchmark reporting code."""
        payload = {
            "object_accesses": self.object_accesses,
            "node_accesses": self.node_accesses,
            "distance_evaluations": self.distance_evaluations,
            "lower_bound_evaluations": self.lower_bound_evaluations,
            "upper_bound_evaluations": self.upper_bound_evaluations,
            "aknn_calls": self.aknn_calls,
            "range_calls": self.range_calls,
            "refinement_steps": self.refinement_steps,
            "elapsed_seconds": self.elapsed_seconds,
        }
        payload.update(self.extra)
        return payload


@dataclass(frozen=True)
class Coverage:
    """Which shards contributed to an answer, and at which epochs.

    Attached to results by the sharded fan-out layer.  ``complete`` coverage
    means every shard answered and the result is exact; partial coverage
    means the answer is exact *restricted to the answering shards'
    partitions* — objects owned by a failed shard are simply absent.
    ``epochs`` records each answering shard's mutation counter at answer
    time and ``epoch`` the database-wide epoch, giving callers the staleness
    bound needed to decide whether a degraded answer is acceptable.
    """

    total_shards: int
    answered: Tuple[int, ...]
    failed: Tuple[int, ...] = ()
    reasons: Tuple[Tuple[int, str], ...] = ()
    epochs: Tuple[Tuple[int, int], ...] = ()
    epoch: int = 0

    @property
    def complete(self) -> bool:
        """True when every shard contributed (the answer is exact)."""
        return not self.failed and len(self.answered) == self.total_shards

    def as_dict(self) -> Dict[str, object]:
        return {
            "total_shards": self.total_shards,
            "answered": list(self.answered),
            "failed": list(self.failed),
            "reasons": {index: reason for index, reason in self.reasons},
            "epochs": {index: epoch for index, epoch in self.epochs},
            "epoch": self.epoch,
            "complete": self.complete,
        }


@dataclass(frozen=True)
class Neighbor:
    """One returned nearest neighbour.

    ``distance`` is the exact alpha-distance when the searcher evaluated it;
    lazily-confirmed neighbours (accepted purely through their bounds, which
    is the point of the lazy-probe optimisation) carry the bound interval
    instead and ``distance`` is ``None``.
    """

    object_id: int
    distance: Optional[float]
    lower_bound: float
    upper_bound: float
    probed: bool

    @property
    def best_known_distance(self) -> float:
        """Exact distance when available, otherwise the upper bound."""
        return self.distance if self.distance is not None else self.upper_bound


def resolve_exact(
    result: Union["AKNNResult", "RangeSearchResult"],
    query: FuzzyObject,
    alpha: float,
    fetch: Callable[[int], FuzzyObject],
    known: Optional[Dict[int, float]] = None,
) -> Dict[int, float]:
    """``{object_id: exact distance}`` of every member of an AKNN or range
    answer (its ``matches``).  One in ``known`` keeps that distance unread;
    any other confirmed from its bounds (``distance=None``) pays one
    ``fetch(object_id)`` and one closest-pair evaluation."""
    known = known or {}
    return {
        int(i): known[i] if i in known else float(
            alpha_distance(fetch(i), query, alpha) if d is None else d
        )
        for i, d in result.matches
    }


@dataclass
class AKNNResult:
    """Answer of an ad-hoc kNN query (Definition 4)."""

    neighbors: List[Neighbor]
    k: int
    alpha: float
    method: str
    stats: QueryStats = field(default_factory=QueryStats)
    coverage: Optional[Coverage] = None

    @property
    def object_ids(self) -> List[int]:
        """Ids of the returned neighbours (order insensitive per the paper)."""
        return [n.object_id for n in self.neighbors]

    @property
    def matches(self) -> List[Tuple[int, Optional[float]]]:
        """``(object_id, distance)`` per neighbour, as a range answer's
        ``matches``: ``None`` for one confirmed from its bounds."""
        return [(n.object_id, n.distance) for n in self.neighbors]

    def sorted_by_distance(self) -> List[Neighbor]:
        """Neighbours ordered by their best known distance."""
        return sorted(self.neighbors, key=lambda n: (n.best_known_distance, n.object_id))

    def __len__(self) -> int:
        return len(self.neighbors)


@dataclass
class BatchResult:
    """Answer of a batched AKNN call (one :class:`AKNNResult` per query).

    ``stats`` aggregates the whole batch: node accesses count *shared* visits
    (each R-tree node is expanded at most once per batch), ``object_accesses``
    counts unique objects fetched, and ``stats.extra`` carries the executor's
    throughput and cache telemetry.
    """

    results: List[AKNNResult]
    k: int
    alpha: float
    method: str
    stats: QueryStats = field(default_factory=QueryStats)
    coverage: Optional[Coverage] = None

    @property
    def throughput_qps(self) -> float:
        """Queries answered per second of wall-clock batch time."""
        if self.stats.elapsed_seconds <= 0.0:
            return 0.0
        return len(self.results) / self.stats.elapsed_seconds

    def __len__(self) -> int:
        return len(self.results)


@dataclass
class RangeSearchResult:
    """Answer of a range-at-alpha search (all objects within ``radius``).

    ``matches`` holds ``(object_id, distance)``, nearest (best known
    distance, then id) first.  A probed match carries its exact distance; a
    bound-confirmed one, accepted through its upper bound without a read,
    carries ``None`` and its upper bound in ``upper_bounds``.
    """

    matches: List[Tuple[int, Optional[float]]]
    radius: float
    alpha: float
    stats: QueryStats = field(default_factory=QueryStats)
    coverage: Optional[Coverage] = None
    upper_bounds: Dict[int, float] = field(default_factory=dict)

    @property
    def object_ids(self) -> List[int]:
        """Ids of the matching objects."""
        return [object_id for object_id, _ in self.matches]

    def __len__(self) -> int:
        return len(self.matches)


@dataclass
class RKNNResult:
    """Answer of a range kNN query (Definition 5).

    ``assignments`` maps each qualifying object id to the union of probability
    thresholds at which it belongs to the k nearest neighbours.
    """

    assignments: Dict[int, IntervalSet]
    k: int
    alpha_range: Tuple[float, float]
    method: str
    stats: QueryStats = field(default_factory=QueryStats)
    coverage: Optional[Coverage] = None

    @property
    def object_ids(self) -> List[int]:
        """Ids of every object that qualifies somewhere in the range."""
        return sorted(self.assignments.keys())

    def qualifying_at(self, alpha: float) -> List[int]:
        """Objects whose qualifying range covers ``alpha``."""
        return sorted(
            object_id
            for object_id, ranges in self.assignments.items()
            if ranges.contains(alpha)
        )

    def __len__(self) -> int:
        return len(self.assignments)
