"""Alpha-distance join — the first of the paper's proposed follow-up queries.

The conclusion of the paper names spatial join queries over fuzzy objects as
the natural next step after kNN search.  This module implements the
*alpha-distance join*: given two fuzzy datasets ``R`` and ``S``, a probability
threshold ``alpha`` and a distance threshold ``epsilon``, report every pair
``(A, B)`` with ``d_alpha(A, B) <= epsilon``.

Two strategies are provided:

``nested_loop``
    Probe every pair and evaluate the exact alpha-distance — the ground-truth
    baseline (quadratic in the dataset sizes).

``index``
    A synchronised dual R-tree traversal.  Node pairs are pruned with the
    ``MinDist`` of their MBRs; leaf-entry pairs are pruned with the improved
    lower bound built from the conservative-line summaries (Equation 2 applied
    to both sides) and, when that fails, a cheap upper bound from the two
    stored representative points which can accept a pair without probing
    either object.  Only the surviving pairs are probed and verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.results import QueryStats
from repro.exceptions import InvalidQueryError
from repro.fuzzy.alpha_distance import alpha_distance_points
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.fuzzy.summary import FuzzyObjectSummary
from repro.geometry.mbr import min_dist
from repro.index.node import RTreeNode
from repro.index.rtree import RTree
from repro.metrics.counters import MetricsCollector
from repro.metrics.timer import Timer
from repro.storage.object_store import ObjectStore

JOIN_METHODS: Tuple[str, ...] = ("nested_loop", "index")


@dataclass
class JoinResult:
    """Answer of an alpha-distance join."""

    pairs: List[Tuple[int, int, float]]
    alpha: float
    epsilon: float
    method: str
    stats: QueryStats = field(default_factory=QueryStats)

    @property
    def pair_ids(self) -> List[Tuple[int, int]]:
        """The matching ``(left_id, right_id)`` pairs without distances."""
        return [(left, right) for left, right, _ in self.pairs]

    def __len__(self) -> int:
        return len(self.pairs)


class AlphaDistanceJoin:
    """Joins two indexed fuzzy datasets on their alpha-distance."""

    def __init__(
        self,
        left_store: ObjectStore,
        left_tree: RTree,
        right_store: Optional[ObjectStore] = None,
        right_tree: Optional[RTree] = None,
    ):
        self.left_store = left_store
        self.left_tree = left_tree
        self.right_store = right_store if right_store is not None else left_store
        self.right_tree = right_tree if right_tree is not None else left_tree
        self._self_join = self.right_store is self.left_store and self.right_tree is self.left_tree

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def join(self, alpha: float, epsilon: float, method: str = "index") -> JoinResult:
        """All pairs with ``d_alpha <= epsilon``; self-joins skip identical ids."""
        if not 0.0 < alpha <= 1.0:
            raise InvalidQueryError(f"alpha must be in (0, 1], got {alpha}")
        if epsilon < 0:
            raise InvalidQueryError(f"epsilon must be non-negative, got {epsilon}")
        if method not in JOIN_METHODS:
            raise InvalidQueryError(
                f"unknown join method {method!r}; expected one of {JOIN_METHODS}"
            )
        metrics = MetricsCollector()
        left_before = self.left_store.statistics.snapshot()
        right_before = self.right_store.statistics.snapshot()
        timer = Timer().start()
        if method == "nested_loop":
            pairs = self._nested_loop_join(alpha, epsilon, metrics)
        else:
            pairs = self._index_join(alpha, epsilon, metrics)
        elapsed = timer.stop()

        accesses = self.left_store.statistics.object_accesses - left_before.object_accesses
        if self.right_store is not self.left_store:
            accesses += (
                self.right_store.statistics.object_accesses - right_before.object_accesses
            )
        stats = QueryStats(
            object_accesses=accesses,
            node_accesses=metrics.get(MetricsCollector.NODE_ACCESSES),
            distance_evaluations=metrics.get(MetricsCollector.DISTANCE_EVALUATIONS),
            lower_bound_evaluations=metrics.get(MetricsCollector.LOWER_BOUND_EVALUATIONS),
            upper_bound_evaluations=metrics.get(MetricsCollector.UPPER_BOUND_EVALUATIONS),
            elapsed_seconds=elapsed,
        )
        pairs.sort(key=lambda item: (item[0], item[1]))
        return JoinResult(pairs=pairs, alpha=alpha, epsilon=epsilon, method=method, stats=stats)

    # ------------------------------------------------------------------
    # Baseline
    # ------------------------------------------------------------------
    def _nested_loop_join(
        self, alpha: float, epsilon: float, metrics: MetricsCollector
    ) -> List[Tuple[int, int, float]]:
        pairs: List[Tuple[int, int, float]] = []
        left_cuts = {
            object_id: self.left_store.get(object_id).alpha_cut(alpha)
            for object_id in self.left_store.object_ids()
        }
        if self._self_join:
            right_cuts = left_cuts
        else:
            right_cuts = {
                object_id: self.right_store.get(object_id).alpha_cut(alpha)
                for object_id in self.right_store.object_ids()
            }
        for left_id, left_cut in left_cuts.items():
            for right_id, right_cut in right_cuts.items():
                if self._self_join and right_id <= left_id:
                    continue
                metrics.increment(MetricsCollector.DISTANCE_EVALUATIONS)
                distance = alpha_distance_points(left_cut, right_cut)
                if distance <= epsilon:
                    pairs.append((left_id, right_id, distance))
        return pairs

    # ------------------------------------------------------------------
    # Dual R-tree traversal
    # ------------------------------------------------------------------
    def _index_join(
        self, alpha: float, epsilon: float, metrics: MetricsCollector
    ) -> List[Tuple[int, int, float]]:
        if len(self.left_tree) == 0 or len(self.right_tree) == 0:
            return []
        pairs: List[Tuple[int, int, float]] = []
        cut_cache_left: Dict[int, np.ndarray] = {}
        cut_cache_right: Dict[int, np.ndarray] = cut_cache_left if self._self_join else {}
        stack: List[Tuple[RTreeNode, RTreeNode]] = [(self.left_tree.root, self.right_tree.root)]
        scheduled = {(id(self.left_tree.root), id(self.right_tree.root))}

        def schedule(left_node: RTreeNode, right_node: RTreeNode) -> None:
            key = (id(left_node), id(right_node))
            if key not in scheduled:
                scheduled.add(key)
                stack.append((left_node, right_node))

        while stack:
            left_node, right_node = stack.pop()
            metrics.increment(MetricsCollector.NODE_ACCESSES)
            same_node = self._self_join and left_node is right_node

            if left_node.is_leaf and right_node.is_leaf:
                for i, left_entry in enumerate(left_node.entries):
                    right_entries = (
                        right_node.entries[i:] if same_node else right_node.entries
                    )
                    for right_entry in right_entries:
                        if min_dist(left_entry.mbr, right_entry.mbr) > epsilon:
                            continue
                        self._process_leaf_pair(
                            left_entry.summary,
                            right_entry.summary,
                            alpha,
                            epsilon,
                            pairs,
                            cut_cache_left,
                            cut_cache_right,
                            metrics,
                        )
            elif left_node.is_leaf:
                left_mbr = left_node.compute_mbr()
                for right_entry in right_node.entries:
                    if min_dist(left_mbr, right_entry.mbr) <= epsilon:
                        schedule(left_node, right_entry.child)
            elif right_node.is_leaf:
                right_mbr = right_node.compute_mbr()
                for left_entry in left_node.entries:
                    if min_dist(left_entry.mbr, right_mbr) <= epsilon:
                        schedule(left_entry.child, right_node)
            else:
                for i, left_entry in enumerate(left_node.entries):
                    right_entries = (
                        right_node.entries[i:] if same_node else right_node.entries
                    )
                    for right_entry in right_entries:
                        if min_dist(left_entry.mbr, right_entry.mbr) <= epsilon:
                            schedule(left_entry.child, right_entry.child)
        return self._deduplicate(pairs)

    def _process_leaf_pair(
        self,
        left_summary: FuzzyObjectSummary,
        right_summary: FuzzyObjectSummary,
        alpha: float,
        epsilon: float,
        pairs: List[Tuple[int, int, float]],
        cut_cache_left: Dict[int, np.ndarray],
        cut_cache_right: Dict[int, np.ndarray],
        metrics: MetricsCollector,
    ) -> None:
        left_id = left_summary.object_id
        right_id = right_summary.object_id
        if self._self_join:
            if right_id == left_id:
                return
            # Normalise self-join pairs so each unordered pair is reported once
            # regardless of which traversal order produced it.
            left_id, right_id = min(left_id, right_id), max(left_id, right_id)
            left_summary, right_summary = (
                (left_summary, right_summary)
                if left_summary.object_id == left_id
                else (right_summary, left_summary)
            )
        metrics.increment(MetricsCollector.LOWER_BOUND_EVALUATIONS)
        lower = min_dist(
            left_summary.approx_alpha_mbr(alpha), right_summary.approx_alpha_mbr(alpha)
        )
        if lower > epsilon:
            return
        # Cheap accept: the two representative kernel points belong to every
        # alpha-cut, so their distance upper-bounds the alpha-distance.
        metrics.increment(MetricsCollector.UPPER_BOUND_EVALUATIONS)
        representative_distance = float(
            np.linalg.norm(left_summary.representative - right_summary.representative)
        )
        if representative_distance <= epsilon:
            pairs.append((left_id, right_id, representative_distance))
            return
        left_cut = self._cut(left_id, alpha, self.left_store, cut_cache_left)
        right_cut = self._cut(right_id, alpha, self.right_store, cut_cache_right)
        metrics.increment(MetricsCollector.DISTANCE_EVALUATIONS)
        distance = alpha_distance_points(left_cut, right_cut)
        if distance <= epsilon:
            pairs.append((left_id, right_id, distance))

    @staticmethod
    def _cut(
        object_id: int, alpha: float, store: ObjectStore, cache: Dict[int, np.ndarray]
    ) -> np.ndarray:
        if object_id not in cache:
            cache[object_id] = store.get(object_id).alpha_cut(alpha)
        return cache[object_id]

    @staticmethod
    def _deduplicate(pairs: List[Tuple[int, int, float]]) -> List[Tuple[int, int, float]]:
        best: Dict[Tuple[int, int], float] = {}
        for left_id, right_id, distance in pairs:
            key = (left_id, right_id)
            if key not in best or distance < best[key]:
                best[key] = distance
        return [(left, right, distance) for (left, right), distance in best.items()]
