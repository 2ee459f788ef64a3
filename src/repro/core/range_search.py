"""Range search at a fixed probability threshold.

A range query retrieves every object whose alpha-distance to the query is at
most a given radius.  It is the second building block of the RSS optimisation
for RKNN queries (Algorithm 4, line 3): after one AKNN query at the end of the
probability range fixes the radius, a single range search at the start of the
range collects the complete candidate set.

Range is answered a *bucket* at a time — queries sharing ``alpha``, each with
its own radius — over a *partition set* (:func:`range_bucket`).  Per part
that is one descent of the tree for the whole bucket
(:func:`~repro.core.executor.shared_traversal`, the AKNN batch descent with
the radii given instead of bootstrapped) and one
:func:`~repro.core.executor.probe_rows` pass, which reads each candidate
object once however many queries want it; the merge is the union of the
parts' matches.  A single query (:meth:`AlphaRangeSearcher.search`) and the
sweep's candidate collection (:func:`collect_over_parts`) are buckets of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import RuntimeConfig
from repro.core.executor import probe_rows, shared_traversal
from repro.core.query import PreparedQuery
from repro.core.results import QueryStats, RangeSearchResult
from repro.exceptions import InvalidQueryError
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.index.rtree import RTree
from repro.metrics.counters import MetricsCollector
from repro.metrics.timer import Timer
from repro.storage.object_store import ObjectStore

Match = Tuple[int, float]


@dataclass
class PartMatches:
    """One part's answer to a range bucket."""

    matches: List[List[Match]]  # per query, unsorted
    evaluations: List[int]  # per query: exact distances evaluated
    objects: Dict[int, FuzzyObject]  # every object read
    counts: Dict[str, int]  # the part's totals, by QueryStats field name


def _by_distance(match: Match) -> Tuple[float, int]:
    return match[1], match[0]


def range_bucket(
    queries: Sequence[FuzzyObject],
    alpha: float,
    radii: Sequence[float],
    config: RuntimeConfig,
    rng: Optional[np.random.Generator] = None,
    improved: bool = True,
    deadline=None,
) -> Tuple[Callable, Callable]:
    """One range bucket (shared ``alpha``, one radius per query) over a
    partition set: ``(local, merge)``.

    ``local(part)`` answers every query against one part (``store`` /
    ``tree``): one :func:`shared_traversal` pruning at the radii (``improved``
    selects ``d-_alpha`` over the support-MBR ``MinDist``), then one
    :func:`probe_rows` pass; a query keeps ``(id, d)`` for ``d <= radius``.
    ``merge(per_part)`` returns one :class:`RangeSearchResult` per query: the
    union of the parts' matches, sorted by ``(distance, id)``.

    Each result counts its own ``distance_evaluations`` and ``range_calls =
    1``; the bucket's shared object, node, lower-bound and distance totals
    are reported under ``extra["bucket_<name>"]``.  A bucket of one owns
    every cost, so its scalars carry the totals.  A radius may be ``inf``
    (the sweep's), never NaN or negative.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.shape != (len(queries),):
        raise InvalidQueryError(f"need one radius per query, got {radii.shape}")
    bad = radii[~(radii >= 0.0)]  # NaN fails the comparison too
    if bad.size:
        raise InvalidQueryError(f"radius must be non-negative, got {bad[0]}")
    prepared = [PreparedQuery(query, alpha, config, rng) for query in queries]
    q_lo = np.stack([p.query_mbr.lower for p in prepared])
    q_hi = np.stack([p.query_mbr.upper for p in prepared])
    timer = Timer().start()

    def local(part) -> PartMatches:
        if deadline is not None:
            deadline.check("range")
        metrics = MetricsCollector()
        query_metrics = [MetricsCollector() for _ in prepared]
        matches: List[List[Match]] = [[] for _ in prepared]
        objects: Dict[int, FuzzyObject] = {}
        before = part.store.statistics.object_accesses
        if len(part.tree):

            def fetch(object_id: int) -> FuzzyObject:
                obj = objects[object_id] = part.store.get(object_id)
                return obj

            candidates = shared_traversal(
                part.tree, alpha, improved, q_lo, q_hi, radii, metrics, deadline
            )
            rows = [ids.tolist() for ids in candidates]
            probes = probe_rows(
                fetch, prepared, rows, alpha, [{} for _ in prepared],
                query_metrics, deadline,
            )
            answers = zip(rows, probes, radii.tolist())
            for qi, (row, dists, radius) in enumerate(answers):
                matches[qi] = [m for m in zip(row, dists.tolist()) if m[1] <= radius]
        evaluations = [
            qm.get(MetricsCollector.DISTANCE_EVALUATIONS) for qm in query_metrics
        ]
        counts = {
            "object_accesses": part.store.statistics.object_accesses - before,
            "node_accesses": metrics.get(MetricsCollector.NODE_ACCESSES),
            "distance_evaluations": sum(evaluations),
            "lower_bound_evaluations": metrics.get(
                MetricsCollector.LOWER_BOUND_EVALUATIONS
            ),
        }
        return PartMatches(matches, evaluations, objects, counts)

    def merge(per_part: Sequence[PartMatches]) -> List[RangeSearchResult]:
        counted = {
            name: sum(part.counts[name] for part in per_part)
            for name in per_part[0].counts
        }
        single = len(prepared) == 1
        extra = {} if single else {f"bucket_{k}": float(v) for k, v in counted.items()}
        if len(per_part) > 1:
            extra["shard_fanouts"] = float(len(per_part))
        elapsed = timer.stop()
        results = []
        for qi, radius in enumerate(radii.tolist()):
            own = counted if single else {
                "distance_evaluations": sum(part.evaluations[qi] for part in per_part)
            }
            stats = QueryStats(
                range_calls=1, elapsed_seconds=elapsed, extra=dict(extra), **own
            )
            matches = sorted(
                (m for part in per_part for m in part.matches[qi]), key=_by_distance
            )
            results.append(RangeSearchResult(matches, radius, alpha, stats))
        return results

    return local, merge


class AlphaRangeSearcher:
    """Answers "all objects within ``radius`` at threshold ``alpha``" queries
    over one store and tree: a partition set of one."""

    def __init__(
        self,
        store: ObjectStore,
        tree: RTree,
        config: Optional[RuntimeConfig] = None,
    ):
        self.store = store
        self.tree = tree
        self.config = (config or RuntimeConfig()).validate()

    def search(
        self,
        query: FuzzyObject,
        alpha: float,
        radius: float,
        use_improved_bounds: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> RangeSearchResult:
        """Return ``(object_id, distance)`` for every object within ``radius``."""
        (result,) = self.search_batch(
            [query], alpha, [radius], improved=use_improved_bounds, rng=rng
        )
        return result

    def search_batch(
        self,
        queries: Sequence[FuzzyObject],
        alpha: float,
        radii: Sequence[float],
        improved: bool = True,
        rng: Optional[np.random.Generator] = None,
        deadline=None,
    ) -> List[RangeSearchResult]:
        """Answer a range bucket (:func:`range_bucket`) over this searcher."""
        local, merge = range_bucket(
            queries, alpha, radii, self.config, rng, improved, deadline
        )
        return merge([local(self)])


def collect_over_parts(
    fan_out: Callable[[str, Callable], List],
    query: FuzzyObject,
    alpha: float,
    radius: float,
    config: RuntimeConfig,
    rng: Optional[np.random.Generator] = None,
    deadline=None,
) -> Tuple[RangeSearchResult, Dict[int, FuzzyObject]]:
    """The sweep's candidate collection: a range bucket of one over a
    partition set (``fan_out(op, fn)`` applies ``fn`` to every part).

    Also hands back every object it read, so the caller (the RSS / RSS-ICR
    refinement) computes their distance profiles without a second access.
    """
    local, merge = range_bucket(
        [query], alpha, [radius], config, rng, deadline=deadline
    )
    per_part = fan_out("range", local)
    (result,) = merge(per_part)
    objects: Dict[int, FuzzyObject] = {}
    for part in per_part:
        objects.update(part.objects)
    return result, objects
