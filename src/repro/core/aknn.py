"""Ad-hoc kNN (AKNN) query processing — Section 3 of the paper.

Four method variants are provided, matching the competitors of the
experimental evaluation (Figures 11, 12 and 15):

``basic``
    Algorithm 1: best-first R-tree traversal where every leaf entry is keyed
    by ``MinDist`` between the query alpha-cut MBR and the object's *support*
    MBR, and every popped leaf is probed from the object store.

``lb``
    The improved lower bound of Section 3.2: leaf entries are keyed by
    ``d-_alpha = MinDist(M_A(alpha)*, M_Q(alpha))`` where ``M_A(alpha)*`` is
    reconstructed from the conservative lines stored in the leaf summary.

``lb_lp``
    Adds the lazy probe of Section 3.3 (Algorithm 2): popped leaf entries are
    buffered instead of probed; a buffered candidate is emitted without any
    probe when its upper bound (``MaxDist``) beats the lower bound of
    everything still unexplored, and probes only happen when the buffer holds
    more candidates than there are result slots left.

``lb_lp_ub``
    Adds the improved upper bound of Section 3.4 (Lemma 1): the upper bound
    of a buffered candidate is the tighter of ``MaxDist`` and the distance
    from the object's stored representative kernel point to a small sample of
    the query alpha-cut.

Implementation note (documented deviation from the pseudo-code of
Algorithm 2): a candidate that has to be probed re-enters the candidate pool
with its exact distance as both bounds, and emission into the result set is
always guarded by the rank test "no more than k-1 objects can be strictly
closer".  This is the same lazy-probing policy — probes are mandatory only on
buffer overflow and tight upper bounds avoid them altogether — but it is
robust to ties and to adversarial bound configurations, which the verbatim
pseudo-code is not.  All four variants return a correct order-insensitive
k-nearest-neighbour set (asserted against a linear scan in the test suite).
:func:`aknn_fanout` is one query over a *partition set* (per-part search and
the exact merge of the parts' top-ks).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import RuntimeConfig
from repro.core.query import PreparedQuery
from repro.core.results import AKNNResult, Neighbor, QueryStats, merge_topk, resolve_exact
from repro.exceptions import InvalidQueryError
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.index.entry import LeafEntry
from repro.index.rtree import RTree
from repro.metrics.counters import MetricsCollector
from repro.metrics.timer import Timer
from repro.storage.object_store import ObjectStore

AKNN_METHODS: Tuple[str, ...] = ("basic", "lb", "lb_lp", "lb_lp_ub")

# Heap element kinds.
_NODE = 0
_LEAF = 1
_OBJECT = 2


class _Candidate:
    """A leaf entry buffered by the lazy-probe variants."""

    __slots__ = ("entry", "lower", "upper", "exact")

    def __init__(self, entry: LeafEntry, lower: float, upper: float):
        self.entry = entry
        self.lower = lower
        self.upper = upper
        self.exact: Optional[float] = None

    def settle(self, exact: float) -> None:
        """Record the exact distance after a probe; bounds collapse onto it."""
        self.exact = exact
        self.lower = exact
        self.upper = exact

    @property
    def probed(self) -> bool:
        return self.exact is not None


class AKNNSearcher:
    """Answers AKNN queries over an object store + R-tree pair."""

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
        k: int,
        alpha: float,
        method: str = "lb_lp_ub",
        rng: Optional[np.random.Generator] = None,
    ) -> AKNNResult:
        """Return the ``k`` objects with smallest alpha-distance to ``query``."""
        if k <= 0:
            raise InvalidQueryError(f"k must be positive, got {k}")
        if method not in AKNN_METHODS:
            raise InvalidQueryError(
                f"unknown AKNN method {method!r}; expected one of {AKNN_METHODS}"
            )
        metrics = MetricsCollector()
        prepared = PreparedQuery(query, alpha, self.config, rng, metrics)
        store_before = self.store.statistics.snapshot()
        timer = Timer().start()

        if method in ("basic", "lb"):
            neighbors = self._eager_search(prepared, k, improved=(method == "lb"))
        else:
            neighbors = self._lazy_search(
                prepared, k, use_representative_ub=(method == "lb_lp_ub")
            )

        elapsed = timer.stop()
        stats = self._build_stats(metrics, store_before, elapsed)
        return AKNNResult(neighbors=neighbors, k=k, alpha=alpha, method=method, stats=stats)

    # ------------------------------------------------------------------
    # Algorithm 1 (basic) and its LB refinement
    # ------------------------------------------------------------------
    def _eager_search(
        self, prepared: PreparedQuery, k: int, improved: bool
    ) -> List[Neighbor]:
        metrics = prepared.metrics
        counter = itertools.count()
        heap: List[Tuple[float, int, int, object]] = []
        if len(self.tree) > 0:
            heapq.heappush(heap, (0.0, next(counter), _NODE, self.tree.root))
        result: List[Neighbor] = []

        while heap and len(result) < k:
            key, _, kind, payload = heapq.heappop(heap)
            if kind == _NODE:
                metrics.increment(MetricsCollector.NODE_ACCESSES)
                if not payload.entries:
                    continue
                # Whole-node bound evaluation against the SoA view: one NumPy
                # call per node instead of one Python call per entry.
                if payload.is_leaf:
                    bounds = prepared.leaf_lower_bounds(payload.soa(), improved=improved)
                    for entry, bound in zip(payload.entries, bounds):
                        heapq.heappush(heap, (bound, next(counter), _LEAF, entry))
                else:
                    bounds = prepared.node_lower_bounds(payload.soa())
                    for entry, bound in zip(payload.entries, bounds):
                        heapq.heappush(heap, (bound, next(counter), _NODE, entry.child))
            elif kind == _LEAF:
                obj = self.store.get(payload.object_id)
                distance = prepared.distance_to(obj)
                heapq.heappush(heap, (distance, next(counter), _OBJECT, payload.object_id))
            else:
                result.append(
                    Neighbor(
                        object_id=int(payload),
                        distance=key,
                        lower_bound=key,
                        upper_bound=key,
                        probed=True,
                    )
                )
        return result

    # ------------------------------------------------------------------
    # Algorithm 2 (lazy probe), with or without the improved upper bound
    # ------------------------------------------------------------------
    def _lazy_search(
        self, prepared: PreparedQuery, k: int, use_representative_ub: bool
    ) -> List[Neighbor]:
        metrics = prepared.metrics
        counter = itertools.count()
        heap: List[Tuple[float, int, int, object]] = []
        if len(self.tree) > 0:
            heapq.heappush(heap, (0.0, next(counter), _NODE, self.tree.root))
        buffer: List[_Candidate] = []
        result: List[Neighbor] = []
        # Upper bounds are evaluated lazily, one whole node at a time: the
        # first entry popped from a leaf node triggers a single vectorized
        # evaluation shared by its siblings, so nodes whose entries never
        # leave the heap pay nothing (matching the lazy-probe accounting at
        # node granularity).
        node_uppers: dict = {}

        def upper_bounds_for(soa) -> List[float]:
            key = id(soa)
            uppers = node_uppers.get(key)
            if uppers is None:
                uppers = prepared.leaf_upper_bounds(
                    soa, use_representative=use_representative_ub
                )
                node_uppers[key] = uppers
            return uppers

        def head_key() -> float:
            return heap[0][0] if heap else float("inf")

        def try_confirm() -> bool:
            """Emit one buffered candidate that is provably in the top-k."""
            if not buffer:
                return False
            hmin = head_key()
            # Candidates are inspected best-upper-bound first.
            for candidate in sorted(buffer, key=lambda c: (c.upper, c.entry.object_id)):
                if candidate.upper > hmin:
                    break
                closer = sum(
                    1
                    for other in buffer
                    if other is not candidate and other.lower < candidate.upper
                )
                if len(result) + closer <= k - 1:
                    buffer.remove(candidate)
                    result.append(
                        Neighbor(
                            object_id=candidate.entry.object_id,
                            distance=candidate.exact,
                            lower_bound=candidate.lower,
                            upper_bound=candidate.upper,
                            probed=candidate.probed,
                        )
                    )
                    return True
            return False

        def probe(candidate: _Candidate) -> None:
            obj = self.store.get(candidate.entry.object_id)
            candidate.settle(prepared.distance_to(obj))

        while len(result) < k and (heap or buffer):
            if try_confirm():
                continue
            overflow = len(buffer) > k - len(result)
            if overflow:
                unprobed = [c for c in buffer if not c.probed]
                if unprobed:
                    # Mandatory probe: resolve the most promising unresolved
                    # candidate, which tightens its bounds to the exact value.
                    probe(min(unprobed, key=lambda c: (c.lower, c.entry.object_id)))
                    continue
                # Everything buffered is exact; only advancing the main queue
                # (raising the unexplored lower bound) can unlock progress.
            if not heap:
                # No unexplored entries remain but the rank test is still
                # inconclusive (possible only through ties): settle the best
                # unprobed candidate to break the tie exactly.
                unprobed = [c for c in buffer if not c.probed]
                if not unprobed:
                    # All exact and still not confirmable cannot happen, but
                    # guard against it by emitting the closest candidate.
                    best = min(buffer, key=lambda c: (c.upper, c.entry.object_id))
                    buffer.remove(best)
                    result.append(
                        Neighbor(
                            object_id=best.entry.object_id,
                            distance=best.exact,
                            lower_bound=best.lower,
                            upper_bound=best.upper,
                            probed=best.probed,
                        )
                    )
                    continue
                probe(min(unprobed, key=lambda c: (c.lower, c.entry.object_id)))
                continue

            key, _, kind, payload = heapq.heappop(heap)
            if kind == _NODE:
                metrics.increment(MetricsCollector.NODE_ACCESSES)
                if not payload.entries:
                    continue
                # Whole-node lower-bound evaluation against the SoA view; the
                # entry remembers its node row so the upper bound can be
                # resolved lazily on pop.
                if payload.is_leaf:
                    soa = payload.soa()
                    lowers = prepared.leaf_lower_bounds(soa, improved=True)
                    for index, (entry, lower) in enumerate(
                        zip(payload.entries, lowers)
                    ):
                        heapq.heappush(
                            heap, (lower, next(counter), _LEAF, (entry, soa, index))
                        )
                else:
                    bounds = prepared.node_lower_bounds(payload.soa())
                    for entry, bound in zip(payload.entries, bounds):
                        heapq.heappush(heap, (bound, next(counter), _NODE, entry.child))
            else:  # _LEAF
                entry, soa, index = payload
                upper = upper_bounds_for(soa)[index]
                buffer.append(_Candidate(entry, lower=key, upper=upper))
        return result

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _build_stats(
        self, metrics: MetricsCollector, store_before, elapsed: float
    ) -> QueryStats:
        delta_accesses = self.store.statistics.object_accesses - store_before.object_accesses
        return QueryStats(
            object_accesses=delta_accesses,
            node_accesses=metrics.get(MetricsCollector.NODE_ACCESSES),
            distance_evaluations=metrics.get(MetricsCollector.DISTANCE_EVALUATIONS),
            lower_bound_evaluations=metrics.get(MetricsCollector.LOWER_BOUND_EVALUATIONS),
            upper_bound_evaluations=metrics.get(MetricsCollector.UPPER_BOUND_EVALUATIONS),
            aknn_calls=1,
            elapsed_seconds=elapsed,
        )


def aknn_fanout(
    query: FuzzyObject,
    k: int,
    alpha: float,
    method: str = "lb_lp_ub",
    rng: Optional[np.random.Generator] = None,
    exact: bool = True,
) -> Tuple[Callable, Callable]:
    """One AKNN query over a partition set: ``(local, merge)``.

    ``local(part)`` runs the part's ``aknn_searcher``; with ``exact`` (the
    answers of several parts will be merged) it also probes every
    lazily-confirmed neighbour, inside the caller's fan-out, so the merge
    compares exact distances.  ``merge(per_part)`` keeps the ``k`` smallest
    across the parts' answers; one part's answer is returned as it is, so a
    set of one pays neither the probes nor the merge.
    """
    timer = Timer().start()

    def local(part) -> AKNNResult:
        result = part.aknn_searcher.search(query, k, alpha, method=method, rng=rng)
        if exact:
            fetch = part.aknn_searcher.store.get
            result.neighbors = [
                resolve_exact(neighbor, query, alpha, fetch) for neighbor in result.neighbors
            ]
        return result

    def merge(per_part: Sequence[AKNNResult]) -> AKNNResult:
        if len(per_part) == 1:
            return per_part[0]
        stats = QueryStats()
        for result in per_part:
            stats.merge(result.stats)
        stats.aknn_calls = 1
        stats.extra["shard_fanouts"] = float(len(per_part))
        neighbors = merge_topk([result.neighbors for result in per_part], k)
        stats.elapsed_seconds = timer.stop()
        return AKNNResult(neighbors=neighbors, k=k, alpha=alpha, method=method, stats=stats)

    return local, merge
