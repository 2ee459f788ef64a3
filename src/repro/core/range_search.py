"""Range search at a fixed probability threshold.

``AlphaRangeSearcher`` retrieves every object whose alpha-distance to the
query is at most a given radius.  It is the second building block of the RSS
optimisation for RKNN queries (Algorithm 4, line 3): after one AKNN query at
the end of the probability range fixes the radius, a single range search at
the start of the range collects the complete candidate set.  Over a
*partition set* the answer is the union of the parts' answers
(:func:`range_fanout`, :func:`collect_over_parts`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import RuntimeConfig
from repro.core.query import PreparedQuery
from repro.core.results import QueryStats, RangeSearchResult
from repro.exceptions import InvalidQueryError
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.index.entry import LeafEntry
from repro.index.rtree import RTree
from repro.metrics.counters import MetricsCollector
from repro.metrics.timer import Timer
from repro.storage.object_store import ObjectStore


class AlphaRangeSearcher:
    """Answers "all objects within ``radius`` at threshold ``alpha``" queries."""

    def __init__(
        self,
        store: ObjectStore,
        tree: RTree,
        config: Optional[RuntimeConfig] = None,
    ):
        self.store = store
        self.tree = tree
        self.config = (config or RuntimeConfig()).validate()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def search(
        self,
        query: FuzzyObject,
        alpha: float,
        radius: float,
        use_improved_bounds: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> RangeSearchResult:
        """Return ``(object_id, distance)`` for every object within ``radius``."""
        if radius < 0:
            raise InvalidQueryError(f"radius must be non-negative, got {radius}")
        metrics = MetricsCollector()
        prepared = PreparedQuery(query, alpha, self.config, rng, metrics)
        before = self.store.statistics.snapshot()
        timer = Timer().start()
        matches, _ = self.collect(prepared, radius, use_improved_bounds=use_improved_bounds)
        elapsed = timer.stop()
        stats = QueryStats(
            object_accesses=self.store.statistics.object_accesses - before.object_accesses,
            node_accesses=metrics.get(MetricsCollector.NODE_ACCESSES),
            distance_evaluations=metrics.get(MetricsCollector.DISTANCE_EVALUATIONS),
            lower_bound_evaluations=metrics.get(MetricsCollector.LOWER_BOUND_EVALUATIONS),
            range_calls=1,
            elapsed_seconds=elapsed,
        )
        return RangeSearchResult(matches=matches, radius=radius, alpha=alpha, stats=stats)

    # ------------------------------------------------------------------
    # Lower-level entry used by the RKNN searcher
    # ------------------------------------------------------------------
    def collect(
        self,
        prepared: PreparedQuery,
        radius: float,
        use_improved_bounds: bool = True,
    ) -> Tuple[List[Tuple[int, float]], Dict[int, FuzzyObject]]:
        """Traverse the tree, probe candidates, and also hand back the objects.

        The probed :class:`FuzzyObject` instances are returned so the caller
        (the RSS / RSS-ICR refinement) can compute their distance profiles
        without paying a second object access for data it already read.
        """
        metrics = prepared.metrics
        matches: List[Tuple[int, float]] = []
        objects: Dict[int, FuzzyObject] = {}
        if len(self.tree) == 0:
            return matches, objects

        stack = [self.tree.root]
        while stack:
            node = stack.pop()
            metrics.increment(MetricsCollector.NODE_ACCESSES)
            if not node.entries:
                continue
            # Bounds for the whole node come from its SoA view in one NumPy
            # call; only surviving entries are touched in Python.
            if node.is_leaf:
                bounds = prepared.leaf_lower_bounds(
                    node.soa(), improved=use_improved_bounds
                )
                for entry, bound in zip(node.entries, bounds):
                    if bound > radius:
                        continue
                    leaf: LeafEntry = entry  # type: ignore[assignment]
                    obj = self.store.get(leaf.object_id)
                    distance = prepared.distance_to(obj)
                    if distance <= radius:
                        matches.append((leaf.object_id, distance))
                        objects[leaf.object_id] = obj
            else:
                bounds = prepared.node_lower_bounds(node.soa())
                for entry, bound in zip(node.entries, bounds):
                    if bound <= radius:
                        stack.append(entry.child)  # type: ignore[union-attr]
        matches.sort(key=_by_distance)
        return matches, objects


def _by_distance(match: Tuple[int, float]) -> Tuple[float, int]:
    return match[1], match[0]


def range_fanout(
    query: FuzzyObject,
    alpha: float,
    radius: float,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[Callable, Callable]:
    """One range query over a partition set: ``(local, merge)``.

    ``local(part)`` runs the part's ``range_searcher``; ``merge(per_part)``
    is the union of the parts' answers, one part's answer as it is.
    """
    timer = Timer().start()

    def local(part) -> RangeSearchResult:
        return part.range_searcher.search(query, alpha, radius, rng=rng)

    def merge(per_part: Sequence[RangeSearchResult]) -> RangeSearchResult:
        if len(per_part) == 1:
            return per_part[0]
        matches = sorted((m for result in per_part for m in result.matches), key=_by_distance)
        stats = QueryStats()
        for result in per_part:
            stats.merge(result.stats)
        stats.range_calls = 1
        stats.elapsed_seconds = timer.stop()
        stats.extra["shard_fanouts"] = float(len(per_part))
        return RangeSearchResult(matches=matches, radius=radius, alpha=alpha, stats=stats)

    return local, merge


def collect_over_parts(
    fan_out: Callable[[str, Callable], List], prepared: PreparedQuery, radius: float
) -> Tuple[List[Tuple[int, float]], Dict[int, FuzzyObject]]:
    """:meth:`AlphaRangeSearcher.collect` over a partition set (the union);
    ``fan_out(op, fn)`` applies ``fn`` to every part."""
    matches: List[Tuple[int, float]] = []
    objects: Dict[int, FuzzyObject] = {}
    for part_matches, part_objects in fan_out(
        "range", lambda part: part.range_searcher.collect(prepared, radius)
    ):
        matches.extend(part_matches)
        objects.update(part_objects)
    matches.sort(key=_by_distance)
    return matches, objects
