"""The leaf-cursor frontier against the push-every-entry search it replaced.

``AKNNSearcher`` keeps one cursor per expanded leaf in its queue instead of
every entry, and its rank test counts closer candidates by bisection instead
of a scan over the buffer.  Both are meant to change nothing a caller can
see.  The searches as they were before are kept *here* as the reference
(the ``test_kernel_parity.py`` / ``test_probe_state.py`` convention), and
every method, several ``k`` and ``alpha``, must return the same neighbour
list -- ids, distances, bounds, ``probed``, in order -- and the same value in
every ``QueryStats`` counter.  The tie-heavy fixture puts the query's MBR
around every object, so every lower bound is 0 and the pop order is decided
by the counters alone.
"""

import dataclasses
import heapq
import itertools
from typing import List

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.core.aknn import _LEAF, _NODE, _OBJECT, AKNN_METHODS, AKNNSearcher, _Candidate
from repro.core.database import FuzzyDatabase
from repro.core.results import Neighbor
from repro.datasets.builder import build_dataset
from repro.datasets.queries import generate_query_object
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.metrics.counters import MetricsCollector


def reference_eager_search(self, prepared, k, improved) -> List[Neighbor]:
    metrics = prepared.metrics
    counter = itertools.count()
    heap = []
    if len(self.tree) > 0:
        heapq.heappush(heap, (0.0, next(counter), _NODE, self.tree.root))
    result = []
    while heap and len(result) < k:
        key, _, kind, payload = heapq.heappop(heap)
        if kind == _NODE:
            metrics.increment(MetricsCollector.NODE_ACCESSES)
            if not payload.entries:
                continue
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


def reference_lazy_search(self, prepared, k, use_representative_ub) -> List[Neighbor]:
    metrics = prepared.metrics
    counter = itertools.count()
    heap = []
    if len(self.tree) > 0:
        heapq.heappush(heap, (0.0, next(counter), _NODE, self.tree.root))
    buffer = []
    result = []
    node_uppers = {}

    def upper_bounds_for(soa):
        key = id(soa)
        uppers = node_uppers.get(key)
        if uppers is None:
            uppers = prepared.leaf_upper_bounds(soa, use_representative=use_representative_ub)
            node_uppers[key] = uppers
        return uppers

    def emit(candidate):
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

    def try_confirm():
        if not buffer:
            return False
        hmin = heap[0][0] if heap else float("inf")
        for candidate in sorted(buffer, key=lambda c: (c.upper, c.entry.object_id)):
            if candidate.upper > hmin:
                break
            closer = sum(
                1 for other in buffer if other is not candidate and other.lower < candidate.upper
            )
            if len(result) + closer <= k - 1:
                emit(candidate)
                return True
        return False

    def probe(candidate):
        obj = self.store.get(candidate.entry.object_id)
        candidate.settle(prepared.distance_to(obj))

    while len(result) < k and (heap or buffer):
        if try_confirm():
            continue
        if len(buffer) > k - len(result):
            unprobed = [c for c in buffer if not c.probed]
            if unprobed:
                probe(min(unprobed, key=lambda c: (c.lower, c.entry.object_id)))
                continue
        if not heap:
            unprobed = [c for c in buffer if not c.probed]
            if not unprobed:
                emit(min(buffer, key=lambda c: (c.upper, c.entry.object_id)))
                continue
            probe(min(unprobed, key=lambda c: (c.lower, c.entry.object_id)))
            continue
        key, _, kind, payload = heapq.heappop(heap)
        if kind == _NODE:
            metrics.increment(MetricsCollector.NODE_ACCESSES)
            if not payload.entries:
                continue
            if payload.is_leaf:
                soa = payload.soa()
                lowers = prepared.leaf_lower_bounds(soa, improved=True)
                for index, (entry, lower) in enumerate(zip(payload.entries, lowers)):
                    heapq.heappush(heap, (lower, next(counter), _LEAF, (entry, soa, index)))
            else:
                bounds = prepared.node_lower_bounds(payload.soa())
                for entry, bound in zip(payload.entries, bounds):
                    heapq.heappush(heap, (bound, next(counter), _NODE, entry.child))
        else:
            entry, soa, index = payload
            buffer.append(_Candidate(entry, lower=key, upper=upper_bounds_for(soa)[index]))
    return result


class ReferenceSearcher(AKNNSearcher):
    _eager_search = reference_eager_search
    _lazy_search = reference_lazy_search


def _twins(objects, count, first_id):
    return [
        FuzzyObject(obj.points.copy(), obj.memberships.copy(), object_id=first_id + i)
        for i, obj in enumerate(objects[:count])
    ]


@pytest.fixture(scope="module")
def spread_case():
    """60 overlapping objects in a deep tree (8 entries a node) and 3 queries."""
    objects = build_dataset(
        kind="synthetic", n_objects=60, points_per_object=30, seed=43, space_size=8.0
    )
    database = FuzzyDatabase.build(objects, config=RuntimeConfig(rtree_max_entries=8))
    rng = np.random.default_rng(778)
    queries = [
        generate_query_object(rng, kind="synthetic", space_size=8.0, points_per_object=30)
        for _ in range(3)
    ]
    yield database, queries
    database.close()


@pytest.fixture(scope="module")
def tie_case():
    """Every lower bound 0, and exact twins: ties decide every pop.

    The query's kernel has points at the corners of a box around the whole
    space, so its alpha-cut MBR covers every object's box at every alpha.
    Two twins touch a corner, so their exact distance, 0, also ties with the
    head of the queue.
    """
    base = build_dataset(
        kind="synthetic", n_objects=50, points_per_object=20, seed=44, space_size=8.0
    )
    touching = FuzzyObject(
        np.array([[-2.0, -2.0], [-1.5, -1.6], [-1.8, -1.2]]), np.array([1.0, 0.6, 0.3]),
        object_id=2000,
    )
    objects = base + _twins(base, 10, 1000) + [touching] + _twins([touching], 1, 2001)
    database = FuzzyDatabase.build(objects)
    corners = np.array([[-2.0, -2.0], [10.0, -2.0], [-2.0, 10.0], [10.0, 10.0]])
    rng = np.random.default_rng(9)
    inner = rng.random((20, 2)) * 8.0
    query = FuzzyObject(
        np.vstack([corners, inner]),
        np.concatenate([np.ones(4), rng.random(20) * 0.9 + 0.05]),
    )
    yield database, [query]
    database.close()


def _run(searcher_cls, database, query, k, alpha, method):
    searcher = searcher_cls(database.store, database.tree, database.config)
    return searcher.search(query, k, alpha, method=method, rng=np.random.default_rng(5))


def _counters(stats):
    fields = dataclasses.asdict(stats)
    fields.pop("elapsed_seconds")
    return fields


@pytest.mark.parametrize("case", ["spread_case", "tie_case"])
@pytest.mark.parametrize("method", AKNN_METHODS)
@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("k", [1, 4, 13, 200])
def test_frontier_equals_reference(request, case, method, alpha, k):
    database, queries = request.getfixturevalue(case)
    for query in queries:
        expected = _run(ReferenceSearcher, database, query, k, alpha, method)
        actual = _run(AKNNSearcher, database, query, k, alpha, method)
        assert actual.neighbors == expected.neighbors
        assert _counters(actual.stats) == _counters(expected.stats)


def test_tie_case_bounds_are_all_zero(tie_case):
    """The tie fixture really is one: every leaf lower bound is 0."""
    database, (query,) = tie_case
    searcher = AKNNSearcher(database.store, database.tree, database.config)
    result = searcher.search(query, 62, 0.5, method="lb_lp")
    assert len(result.neighbors) == 62
    assert all(neighbor.lower_bound == 0.0 for neighbor in result.neighbors if not neighbor.probed)
