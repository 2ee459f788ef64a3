"""Vectorized batch AKNN execution.

:class:`BatchQueryExecutor` answers a *batch* of AKNN queries (one shared
``k`` and threshold ``alpha``) far faster than looping the single-query
searcher, by amortising all index work across the batch:

* **Shared pruning-radius bootstrap.**  A KD-tree over every object's
  representative kernel point (built once per executor and reused across
  batches) yields, per query, a handful of candidates whose exact distances
  immediately give a valid k-th-distance radius ``tau`` — before the R-tree
  is even touched.
* **One shared traversal.**  Every R-tree node is visited at most once per
  batch.  A node is expanded only for the *active* queries whose radius it
  can still beat, and the lower bounds (``d-_alpha`` of Section 3.2, or the
  support-MBR ``MinDist`` for ``method="basic"``) of all its entries against
  all active queries are evaluated as one ``(active, n)`` NumPy matrix
  against the node's struct-of-arrays view.  The Equation-2 reconstruction
  per node is computed once per (node, alpha) and shared by the whole batch
  through the node's per-alpha cache.
* **Vectorized exact refinement.**  Surviving candidates are probed through
  one chunked closest-pair evaluation per query (a single distance matrix
  against the concatenated candidate alpha-cuts, reduced per candidate with
  ``minimum.reduceat``), instead of one Python-level closest-pair call per
  candidate.
* **Shared probe state.**  Each distinct object is fetched from the store
  and its alpha-cut materialised at most once per batch, no matter how many
  queries probe it.

The returned neighbour sets are exact and identical to the single-query
methods (asserted by the parity tests) up to distance ties at the k-th rank,
where any of the equally-correct k-sets may be returned (this engine breaks
ties by object id).  The per-neighbour distances are always exact
(``probed=True``), unlike the lazy single-query variants which may confirm
through bounds alone.

The whole batch runs on the calling thread, so the store and tree need no
locking.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.config import RuntimeConfig
from repro.core.query import PreparedQuery
from repro.core.results import AKNNResult, BatchResult, Neighbor, QueryStats
from repro.exceptions import InvalidQueryError
from repro.fuzzy.fuzzy_object import CUT_CACHE_STATS, FuzzyObject
from repro.geometry.distance import pairwise_sq_blocks
from repro.index.rtree import RTree
from repro.index.soa import min_dist_to_boxes
from repro.metrics.counters import MetricsCollector
from repro.metrics.timer import Timer
from repro.storage.object_store import ObjectStore

# Relative + absolute slack when comparing a lower bound against a pruning
# radius, absorbing the tiny float drift between vectorized and scalar paths.
_PRUNE_SLACK = 1e-9

# Extra bootstrap candidates probed beyond k; a slightly larger pool gives a
# tighter starting radius for near-tie configurations at negligible cost.
_BOOTSTRAP_EXTRA = 4

# Node pops between deadline checks in the shared traversal.  Small enough
# that an expired batch stops within a few node expansions, large enough that
# the clock read never shows up in profiles.
_DEADLINE_CHECK_INTERVAL = 32


def _exact_min_distances(
    query_cut: np.ndarray, cuts: Sequence[np.ndarray]
) -> np.ndarray:
    """Exact alpha-distances from one query cut to each candidate cut.

    Evaluates the closest-pair distance of ``query_cut`` against every cut in
    ``cuts`` with one blocked pass of the pairwise kernel over the
    concatenated candidate points, reduced per candidate via
    ``minimum.reduceat``.
    """
    sizes = [cut.shape[0] for cut in cuts]
    points = np.concatenate(cuts, axis=0)
    starts = np.zeros(len(cuts), dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    nearest = np.full(points.shape[0], np.inf)
    for _, sq in pairwise_sq_blocks(query_cut, points):
        np.minimum(nearest, sq.min(axis=0), out=nearest)
    return np.sqrt(np.minimum.reduceat(nearest, starts))


class BatchQueryExecutor:
    """Answers batches of AKNN queries over an object store + R-tree pair."""

    def __init__(
        self,
        store: ObjectStore,
        tree: RTree,
        config: Optional[RuntimeConfig] = None,
    ):
        self.store = store
        self.tree = tree
        self.config = (config or RuntimeConfig()).validate()
        # ((tree size, tree mutations), KD-tree over representatives, aligned
        # object ids); rebuilt lazily whenever the indexed set changes — the
        # mutation counter catches insert/delete pairs that keep the size.
        self._rep_index: Optional[Tuple[Tuple[int, int], object, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def aknn_batch(
        self,
        queries: Sequence[FuzzyObject],
        k: int,
        alpha: float,
        method: str = "lb_lp_ub",
        rng: Optional[np.random.Generator] = None,
        initial_tau: Optional[np.ndarray] = None,
        initial_exact: Optional[Sequence[Dict[int, float]]] = None,
        deadline=None,
    ) -> BatchResult:
        """Answer every query's AKNN at one shared ``k`` and ``alpha``.

        ``deadline`` is an optional :class:`~repro.service.policy.Deadline`;
        the batch checks it between traversal chunks and refinement steps and
        aborts with :class:`~repro.exceptions.DeadlineExceededError` once it
        expires, so an already-dead batch never burns a full traversal.

        ``method`` selects the lower bound driving the shared pruning
        (``"basic"`` uses the support-MBR ``MinDist``; every other variant
        uses the conservative-line bound ``d-_alpha``); all methods return
        the same exact neighbour sets.

        ``initial_tau`` is an optional per-query pruning radius.  When
        given, the local KD-tree bootstrap is skipped and the traversal
        prunes against these radii directly.  The returned neighbour lists
        are complete only *up to the supplied radius*: every object whose
        exact distance is at most a query's radius is considered, anything
        beyond it may be dropped.  A radius that upper-bounds the query's
        true k-th neighbour distance therefore yields the full exact top-k
        (the sharded database passes one globally-bootstrapped radius to
        every shard, which keeps per-shard candidate sets as tight as the
        unsharded ones); a deliberately smaller radius yields a truncated
        list — the reverse-kNN engine exploits this with
        ``tau = d_alpha(A, Q)``, whose truncation provably preserves the
        membership decision (see
        :func:`repro.core.reverse_nn.membership_from_neighbors`) but would
        NOT be a valid top-k answer on its own.  ``initial_exact``
        optionally seeds each query's exact-distance memo (one dict per
        query) so distances the caller already evaluated — e.g. for the
        bootstrap nominees — are not recomputed during refinement.
        """
        if k <= 0:
            raise InvalidQueryError(f"k must be positive, got {k}")
        from repro.core.aknn import AKNN_METHODS

        if method not in AKNN_METHODS:
            raise InvalidQueryError(
                f"unknown AKNN method {method!r}; expected one of {AKNN_METHODS}"
            )
        queries = list(queries)
        metrics = MetricsCollector()
        store_before = self.store.statistics.snapshot()
        cut_hits_before = CUT_CACHE_STATS["hits"]
        cut_misses_before = CUT_CACHE_STATS["misses"]
        timer = Timer().start()

        query_metrics = [MetricsCollector() for _ in queries]
        if not queries or len(self.tree) == 0:
            per_query: List[List[Neighbor]] = [[] for _ in queries]
        else:
            if deadline is not None:
                deadline.check("batch")
            per_query = self._run_batch(
                queries, k, alpha, method, rng, metrics, query_metrics,
                initial_tau=initial_tau, initial_exact=initial_exact,
                deadline=deadline,
            )

        elapsed = timer.stop()
        metrics.increment(MetricsCollector.BATCH_QUERIES, len(queries))
        results = []
        for query_index, neighbors in enumerate(per_query):
            qm = query_metrics[query_index]
            results.append(
                AKNNResult(
                    neighbors=neighbors,
                    k=k,
                    alpha=alpha,
                    method=method,
                    stats=QueryStats(
                        distance_evaluations=qm.get(
                            MetricsCollector.DISTANCE_EVALUATIONS
                        ),
                        aknn_calls=1,
                    ),
                )
            )
        stats = self._aggregate_stats(
            metrics,
            query_metrics,
            store_before,
            elapsed,
            len(queries),
            cut_hits_before,
            cut_misses_before,
        )
        return BatchResult(results=results, k=k, alpha=alpha, method=method, stats=stats)

    # ------------------------------------------------------------------
    # Batch pipeline
    # ------------------------------------------------------------------
    def _run_batch(
        self,
        queries: List[FuzzyObject],
        k: int,
        alpha: float,
        method: str,
        rng: Optional[np.random.Generator],
        metrics: MetricsCollector,
        query_metrics: List[MetricsCollector],
        initial_tau: Optional[np.ndarray] = None,
        initial_exact: Optional[Sequence[Dict[int, float]]] = None,
        deadline=None,
    ) -> List[List[Neighbor]]:
        improved = method != "basic"
        prepared = [
            PreparedQuery(query, alpha, self.config, rng, query_metrics[i])
            for i, query in enumerate(queries)
        ]
        q_lo = np.stack([p.query_mbr.lower for p in prepared])
        q_hi = np.stack([p.query_mbr.upper for p in prepared])

        cuts: Dict[int, np.ndarray] = {}
        if initial_exact is not None:
            if len(initial_exact) != len(prepared):
                raise InvalidQueryError(
                    f"initial_exact needs one memo per query "
                    f"({len(prepared)}), got {len(initial_exact)}"
                )
            exact: List[Dict[int, float]] = [dict(d) for d in initial_exact]
        else:
            exact = [dict() for _ in prepared]
        if initial_tau is not None:
            tau = np.asarray(initial_tau, dtype=float)
            if tau.shape != (len(prepared),):
                raise InvalidQueryError(
                    f"initial_tau must have shape ({len(prepared)},), got {tau.shape}"
                )
        else:
            tau = self._bootstrap_tau(prepared, k, alpha, cuts, exact, metrics)
        if deadline is not None:
            deadline.check("batch bootstrap")
        candidates = self._shared_traversal(
            prepared, alpha, improved, q_lo, q_hi, tau, metrics, deadline=deadline
        )
        if deadline is not None:
            deadline.check("batch traversal")

        needed = np.unique(
            np.concatenate(
                [ids for per_query in candidates for ids in per_query] or
                [np.empty(0, dtype=np.int64)]
            )
        )
        self._fetch_cuts(needed, alpha, cuts)
        results: List[List[Neighbor]] = [[] for _ in prepared]

        for qi, blocks in enumerate(candidates):
            if deadline is not None:
                deadline.check("batch refinement")
            if not blocks:
                continue
            ids = np.concatenate(blocks)
            dists = self._probe(prepared[qi], ids, cuts, exact[qi])
            order = np.lexsort((ids, dists))[:k]
            results[qi] = [
                Neighbor(
                    object_id=int(ids[j]),
                    distance=float(dists[j]),
                    lower_bound=float(dists[j]),
                    upper_bound=float(dists[j]),
                    probed=True,
                )
                for j in order
            ]
        metrics.increment(
            "batch_candidates", int(sum(len(known) for known in exact))
        )
        return results

    def _bootstrap_tau(
        self,
        prepared: List[PreparedQuery],
        k: int,
        alpha: float,
        cuts: Dict[int, np.ndarray],
        exact: List[Dict[int, float]],
        metrics: MetricsCollector,
    ) -> np.ndarray:
        """A valid per-query pruning radius from the shared representative index.

        For each query the KD-tree over ``rep(A)`` points nominates the
        objects whose representatives are closest to the centre of the query
        alpha-cut MBR; probing those exactly makes the k-th smallest probed
        distance a valid upper bound on the true k-th neighbour distance
        (where the nominations land only affects how tight the radius is,
        never correctness).
        """
        n_queries = len(prepared)
        tau = np.full(n_queries, np.inf)
        rep_tree, rep_oids = self._representative_index()
        if rep_tree is None or rep_oids.shape[0] < k:
            return tau
        kk = min(k + _BOOTSTRAP_EXTRA, rep_oids.shape[0])
        centers = np.stack(
            [(p.query_mbr.lower + p.query_mbr.upper) / 2.0 for p in prepared]
        )
        _, rep_idx = rep_tree.query(centers, k=kk)
        if kk == 1:
            rep_idx = rep_idx[:, None]
        nominated = rep_oids[rep_idx]
        metrics.increment(
            MetricsCollector.UPPER_BOUND_EVALUATIONS, n_queries * kk
        )
        self._fetch_cuts(np.unique(nominated), alpha, cuts)
        for qi in range(n_queries):
            dists = self._probe(prepared[qi], nominated[qi], cuts, exact[qi])
            tau[qi] = float(np.partition(dists, k - 1)[k - 1])
        return tau

    def _shared_traversal(
        self,
        prepared: List[PreparedQuery],
        alpha: float,
        improved: bool,
        q_lo: np.ndarray,
        q_hi: np.ndarray,
        tau: np.ndarray,
        metrics: MetricsCollector,
        deadline=None,
    ) -> List[List[np.ndarray]]:
        """Visit every needed node once, gathering candidate ids per query.

        Bounds are evaluated only for the queries still *active* at a node
        (their radius exceeds the node's ``MinDist``), as one
        ``(active, n)`` matrix per node.  Returns, per query, the id blocks of
        every leaf entry whose lower bound survives the query's radius.
        """
        n_queries = len(prepared)
        threshold = tau * (1.0 + _PRUNE_SLACK) + _PRUNE_SLACK
        candidates: List[List[np.ndarray]] = [[] for _ in prepared]
        lb_counter = MetricsCollector.LOWER_BOUND_EVALUATIONS
        # Stack of (node, active query indices); the radius is fixed up
        # front by the bootstrap, so no best-first ordering is needed.
        stack: List[Tuple[object, np.ndarray]] = [
            (self.tree.root, np.arange(n_queries))
        ]
        pops = 0
        while stack:
            node, active = stack.pop()
            pops += 1
            if deadline is not None and pops % _DEADLINE_CHECK_INTERVAL == 0:
                deadline.check("batch traversal")
            metrics.increment(MetricsCollector.NODE_ACCESSES)
            if not node.entries:
                continue
            soa = node.soa()
            if node.is_leaf:
                if improved:
                    box_lo, box_hi = soa.approx_alpha_bounds(alpha)
                else:
                    box_lo, box_hi = soa.lo, soa.hi
                lb = min_dist_to_boxes(q_lo[active], q_hi[active], box_lo, box_hi)
                metrics.increment(lb_counter, int(active.shape[0]) * soa.n)
                survivors = lb <= threshold[active, None]
                object_ids = soa.object_ids
                for row, qi in enumerate(active.tolist()):
                    mask = survivors[row]
                    if mask.any():
                        candidates[qi].append(object_ids[mask].copy())
            else:
                child_dists = soa.min_dist(q_lo[active], q_hi[active])
                reachable = child_dists <= threshold[active, None]
                keep = reachable.any(axis=0)
                for j, entry in enumerate(node.entries):
                    if keep[j]:
                        stack.append((entry.child, active[reachable[:, j]]))
                    else:
                        metrics.increment(MetricsCollector.NODES_PRUNED)
        return candidates

    # ------------------------------------------------------------------
    # Probe helpers
    # ------------------------------------------------------------------
    def _representative_index(self) -> Tuple[Optional[object], np.ndarray]:
        """KD-tree over every summary's representative point (cached)."""
        key = (len(self.tree), getattr(self.tree, "mutations", 0))
        if self._rep_index is not None and self._rep_index[0] == key:
            return self._rep_index[1], self._rep_index[2]
        reps: List[np.ndarray] = []
        oids: List[int] = []
        for entry in self.tree.leaf_entries():
            reps.append(entry.summary.representative)
            oids.append(entry.object_id)
        if not reps:
            return None, np.empty(0, dtype=np.int64)
        tree = cKDTree(np.asarray(reps))
        oid_array = np.asarray(oids, dtype=np.int64)
        self._rep_index = (key, tree, oid_array)
        return tree, oid_array

    def _fetch_cuts(
        self,
        object_ids: np.ndarray,
        alpha: float,
        cuts: Dict[int, np.ndarray],
    ) -> Dict[int, np.ndarray]:
        """Fetch each distinct object once and materialise its alpha-cut."""
        for object_id in object_ids.tolist():
            if object_id not in cuts:
                cuts[object_id] = self.store.get(object_id).alpha_cut(alpha)
        return cuts

    def _probe(
        self,
        prepared: PreparedQuery,
        object_ids: np.ndarray,
        cuts: Dict[int, np.ndarray],
        known: Dict[int, float],
    ) -> np.ndarray:
        """Exact alpha-distances of one query to ``object_ids`` (memoised)."""
        ids = object_ids.tolist()
        missing = [oid for oid in ids if oid not in known] if known else ids
        if missing:
            distances = _exact_min_distances(
                prepared.query_cut, [cuts[oid] for oid in missing]
            )
            prepared.metrics.increment(
                MetricsCollector.DISTANCE_EVALUATIONS, len(missing)
            )
            known.update(zip(missing, distances.tolist()))
            if len(missing) == len(ids):
                return distances
        return np.asarray([known[oid] for oid in ids])

    def _aggregate_stats(
        self,
        metrics: MetricsCollector,
        query_metrics: List[MetricsCollector],
        store_before,
        elapsed: float,
        n_queries: int,
        cut_hits_before: int,
        cut_misses_before: int,
    ) -> QueryStats:
        for qm in query_metrics:
            metrics.merge(qm)
        store_stats = self.store.statistics
        stats = QueryStats(
            object_accesses=store_stats.object_accesses - store_before.object_accesses,
            node_accesses=metrics.get(MetricsCollector.NODE_ACCESSES),
            distance_evaluations=metrics.get(MetricsCollector.DISTANCE_EVALUATIONS),
            lower_bound_evaluations=metrics.get(
                MetricsCollector.LOWER_BOUND_EVALUATIONS
            ),
            upper_bound_evaluations=metrics.get(
                MetricsCollector.UPPER_BOUND_EVALUATIONS
            ),
            aknn_calls=n_queries,
            elapsed_seconds=elapsed,
        )
        stats.extra["batch_queries"] = float(n_queries)
        stats.extra["nodes_pruned"] = float(metrics.get(MetricsCollector.NODES_PRUNED))
        stats.extra["batch_candidates"] = float(metrics.get("batch_candidates"))
        stats.extra["cache_hits"] = float(
            store_stats.cache_hits - store_before.cache_hits
        )
        stats.extra["cut_cache_hits"] = float(
            CUT_CACHE_STATS["hits"] - cut_hits_before
        )
        stats.extra["cut_cache_misses"] = float(
            CUT_CACHE_STATS["misses"] - cut_misses_before
        )
        if elapsed > 0.0:
            stats.extra["throughput_qps"] = n_queries / elapsed
        return stats
