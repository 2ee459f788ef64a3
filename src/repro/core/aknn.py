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
k-nearest-neighbour set (asserted against :mod:`repro.reference` in the
test suite).

Each variant is one search over a *partition set* (parts expose ``store`` and
``tree``; one store and tree are a set of one, :func:`searcher_over` spans
several): the frontier holds every part's root, and a node or candidate reads
objects from its own part's store, so N parts pay what one tree would.
"""

from __future__ import annotations

import bisect
import heapq
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import RuntimeConfig
from repro.core.query import PreparedQuery
from repro.core.results import AKNNResult, Neighbor, QueryStats
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
    """A leaf entry buffered by the lazy-probe variants, and its part."""

    __slots__ = ("entry", "lower", "upper", "exact", "part")

    def __init__(self, entry: LeafEntry, lower: float, upper: float, part=None):
        self.entry = entry
        self.lower = lower
        self.upper = upper
        self.exact: Optional[float] = None
        self.part = part

    def settle(self, exact: float) -> None:
        """Record the exact distance after a probe; bounds collapse onto it."""
        self.exact = exact
        self.lower = exact
        self.upper = exact

    @property
    def probed(self) -> bool:
        return self.exact is not None


class _LeafCursor:
    """A leaf's entries in ``(lower, counter)`` order, one queue element at a time.

    Expanding a leaf numbers its entries ``base .. base + n - 1`` in entry
    order, exactly as pushing them one by one did, but only the next entry in
    ``(lower, counter)`` order sits in the queue; popping it pushes the one
    after.  The queue's minimum is therefore always the element it would be
    with every entry pushed, and the global pop order, ties included, is
    unchanged -- at the cost of one push per *popped* entry.
    """

    __slots__ = ("part", "entries", "soa", "lowers", "order", "base", "pos", "uppers")

    def __init__(self, part, entries: List[LeafEntry], soa, lowers: List[float], base: int):
        self.part = part
        self.entries = entries
        self.soa = soa
        self.lowers = lowers
        self.order = sorted(range(len(lowers)), key=lowers.__getitem__)  # stable
        self.base = base
        self.pos = 0
        self.uppers: Optional[List[float]] = None

    def head(self) -> Tuple[float, int, int, "_LeafCursor"]:
        index = self.order[self.pos]
        return (self.lowers[index], self.base + index, _LEAF, self)


class _Frontier:
    """The best-first queue of one search, keyed ``(key, counter)``.

    Every non-empty part's root is pushed first, in part order, with key 0.0;
    a node travels as ``(part, node)``.  Counters are handed out in push
    order, so equal keys pop first-pushed first.  Internal nodes push every
    child; a leaf pushes one :class:`_LeafCursor`, and :meth:`pop` returns
    its entries as ``(cursor, index)``.
    """

    __slots__ = ("heap", "counter")

    def __init__(self, parts: Sequence):
        self.heap: List[tuple] = []
        self.counter = 0
        for part in parts:
            if len(part.tree) > 0:
                self.push(0.0, _NODE, (part, part.tree.root))

    def __bool__(self) -> bool:
        return bool(self.heap)

    def head_key(self) -> float:
        return self.heap[0][0] if self.heap else float("inf")

    def push(self, key: float, kind: int, payload) -> None:
        heapq.heappush(self.heap, (key, self.counter, kind, payload))
        self.counter += 1

    def pop(self) -> Tuple[float, int, object]:
        key, _, kind, payload = self.heap[0]
        if kind != _LEAF:
            heapq.heappop(self.heap)
            return key, kind, payload
        index = payload.order[payload.pos]
        payload.pos += 1
        if payload.pos < len(payload.order):
            heapq.heapreplace(self.heap, payload.head())
        else:
            heapq.heappop(self.heap)
        return key, kind, (payload, index)

    def expand(self, part, node, prepared: PreparedQuery, improved: bool) -> None:
        """Queue a popped node's children, bounded in one call over its SoA view."""
        if not node.entries:
            return
        soa = node.soa()
        if node.is_leaf:
            lowers = prepared.leaf_lower_bounds(soa, improved=improved)
            cursor = _LeafCursor(part, node.entries, soa, lowers, self.counter)
            heapq.heappush(self.heap, cursor.head())
            self.counter += len(lowers)
        else:
            for entry, bound in zip(node.entries, prepared.node_lower_bounds(soa)):
                self.push(bound, _NODE, (part, entry.child))


class AKNNSearcher:
    """Answers AKNN queries over an object store + R-tree pair: a set of one,
    its own part (:func:`searcher_over` builds one over several parts)."""

    def __init__(
        self,
        store: Optional[ObjectStore],
        tree: Optional[RTree],
        config: Optional[RuntimeConfig] = None,
    ):
        self.store = store
        self.tree = tree
        self.config = (config or RuntimeConfig()).validate()
        self.parts: Sequence = (self,)

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
        accesses_before = self._object_accesses()
        timer = Timer().start()

        if method in ("basic", "lb"):
            neighbors = self._eager_search(prepared, k, improved=(method == "lb"))
        else:
            neighbors = self._lazy_search(
                prepared, k, use_representative_ub=(method == "lb_lp_ub")
            )

        elapsed = timer.stop()
        stats = self._build_stats(metrics, accesses_before, elapsed)
        return AKNNResult(neighbors=neighbors, k=k, alpha=alpha, method=method, stats=stats)

    # ------------------------------------------------------------------
    # Algorithm 1 (basic) and its LB refinement
    # ------------------------------------------------------------------
    def _eager_search(
        self, prepared: PreparedQuery, k: int, improved: bool
    ) -> List[Neighbor]:
        metrics = prepared.metrics
        frontier = _Frontier(self.parts)
        result: List[Neighbor] = []

        while frontier and len(result) < k:
            key, kind, payload = frontier.pop()
            if kind == _NODE:
                metrics.increment(MetricsCollector.NODE_ACCESSES)
                frontier.expand(*payload, prepared, improved)
            elif kind == _LEAF:
                cursor, index = payload
                obj = cursor.part.store.get(cursor.entries[index].object_id)
                frontier.push(prepared.distance_to(obj), _OBJECT, payload)
            else:
                cursor, index = payload
                result.append(
                    Neighbor(
                        object_id=int(cursor.entries[index].object_id),
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
        frontier = _Frontier(self.parts)
        buffer: List[_Candidate] = []
        result: List[Neighbor] = []

        def emit(candidate: _Candidate) -> None:
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

        def try_confirm() -> bool:
            """Emit one buffered candidate that is provably in the top-k."""
            hmin = frontier.head_key()
            eligible = [c for c in buffer if c.upper <= hmin]
            if not eligible:
                return False
            lowers = sorted([c.lower for c in buffer])
            budget = k - 1 - len(result)
            # Candidates are inspected best-upper-bound first.
            for candidate in sorted(eligible, key=lambda c: (c.upper, c.entry.object_id)):
                # Buffered lowers strictly below this upper bound, less the
                # candidate's own when it is one of them.
                closer = bisect.bisect_left(lowers, candidate.upper) - (
                    candidate.lower < candidate.upper
                )
                if closer <= budget:
                    emit(candidate)
                    return True
            return False

        def probe(candidate: _Candidate) -> None:
            obj = candidate.part.store.get(candidate.entry.object_id)
            candidate.settle(prepared.distance_to(obj))

        while len(result) < k and (frontier or buffer):
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
            if not frontier:
                # No unexplored entries remain but the rank test is still
                # inconclusive (possible only through ties): settle the best
                # unprobed candidate to break the tie exactly.
                unprobed = [c for c in buffer if not c.probed]
                if not unprobed:
                    # All exact and still not confirmable cannot happen, but
                    # guard against it by emitting the closest candidate.
                    emit(min(buffer, key=lambda c: (c.upper, c.entry.object_id)))
                    continue
                probe(min(unprobed, key=lambda c: (c.lower, c.entry.object_id)))
                continue

            key, kind, payload = frontier.pop()
            if kind == _NODE:
                metrics.increment(MetricsCollector.NODE_ACCESSES)
                frontier.expand(*payload, prepared, improved=True)
            else:  # _LEAF
                # Upper bounds are evaluated lazily, one whole node at a time:
                # the first entry popped from a leaf pays one vectorized
                # evaluation shared by its siblings, so leaves whose entries
                # never leave the queue pay nothing.
                cursor, index = payload
                if cursor.uppers is None:
                    cursor.uppers = prepared.leaf_upper_bounds(
                        cursor.soa, use_representative=use_representative_ub
                    )
                buffer.append(
                    _Candidate(
                        cursor.entries[index], key, cursor.uppers[index], cursor.part
                    )
                )
        return result

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _object_accesses(self) -> int:
        return sum(part.store.statistics.object_accesses for part in self.parts)

    def _build_stats(
        self, metrics: MetricsCollector, accesses_before: int, elapsed: float
    ) -> QueryStats:
        stats = QueryStats(
            object_accesses=self._object_accesses() - accesses_before,
            node_accesses=metrics.get(MetricsCollector.NODE_ACCESSES),
            distance_evaluations=metrics.get(MetricsCollector.DISTANCE_EVALUATIONS),
            lower_bound_evaluations=metrics.get(MetricsCollector.LOWER_BOUND_EVALUATIONS),
            upper_bound_evaluations=metrics.get(MetricsCollector.UPPER_BOUND_EVALUATIONS),
            aknn_calls=1,
            elapsed_seconds=elapsed,
        )
        if len(self.parts) > 1:
            stats.extra["shard_fanouts"] = float(len(self.parts))
        return stats


def searcher_over(
    fan_out: Callable[[str, Callable], List], config: Optional[RuntimeConfig] = None
) -> AKNNSearcher:
    """An :class:`AKNNSearcher` over the parts ``fan_out("aknn", fn)`` admits.

    The fan-out reads nothing (it is where a sharded database's fault plan,
    retries and breakers meet each shard); the search's reads go through
    each part's ``store``.
    """
    searcher = AKNNSearcher(None, None, config)
    searcher.parts = fan_out("aknn", lambda part: part)
    return searcher
