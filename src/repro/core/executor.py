"""Vectorized batch AKNN execution.

:class:`BatchQueryExecutor` answers a *batch* of AKNN queries (one shared
``k`` and threshold ``alpha``) far faster than looping the single-query
searcher, by amortising all index work across the batch:

* **Shared pruning-radius bootstrap.**  A KD-tree over every object's
  representative kernel point (cached across batches) yields, per query, a
  handful of candidates whose exact distances immediately give a valid
  k-th-distance radius ``tau`` — before the R-tree is even touched.  It is
  written once, over a *partition set*: :class:`RepresentativeIndex` covers
  any number of R-trees and :func:`bootstrap_radii` reads each nominee from
  the part holding it.  Its one caller is :func:`aknn_bucket_pass`, the AKNN
  bucket of both engines: it runs the bootstrap over the partition set (a
  database's one tree, or the sharded database's live shards) and hands
  every part's executor the resulting radii (``initial_tau``) and the
  distances already paid for (``initial_exact``).  An executor is one
  part's stage and never bootstraps on its own.
* **One shared traversal** (:func:`shared_traversal`, which range buckets
  descend too).  Every R-tree node is visited at most once per batch.  A
  node is expanded only for the *active* queries whose radius it can still
  beat, and the lower bounds (``d-_alpha`` of Section 3.2, or the
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
  queries probe it — and only when some query still owes it a distance:
  a candidate whose distance the caller already seeded is never read.

The returned neighbour sets are exact and identical to the single-query
methods (asserted by the parity tests) up to distance ties at the k-th rank,
where any of the equally-correct k-sets may be returned (this engine breaks
ties by object id).  A bucket of many reports every neighbour's distance
exact (``probed=True``); a bucket of one is the single-query search
(:func:`~repro.core.aknn.searcher_over`) on either engine, whose lazy
variants may confirm a neighbour through bounds alone.

The whole batch runs on the calling thread, so the store and tree need no
locking.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.spatial import cKDTree

from repro.config import RuntimeConfig
from repro.core.aknn import AKNN_METHODS, searcher_over
from repro.core.query import PreparedQuery
from repro.core.results import AKNNResult, BatchResult, Neighbor, QueryStats, merge_topk
from repro.exceptions import InvalidQueryError
from repro.fuzzy.fuzzy_object import CUT_CACHE_STATS, FuzzyObject
from repro.geometry.distance import pairwise_sq_blocks
from repro.index.rtree import RTree
from repro.index.soa import kth_max_dists, min_dist_to_boxes
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

# (alpha, k) pairs whose reverse-filter table a partition set keeps; a bucket
# of one more pair drops the oldest.
_KTH_TABLE_PAIRS = 8


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


class RepresentativeIndex:
    """Per-partition-set state that outlives a batch (cached).

    ``over(trees)`` indexes every ``rep(A)`` of the given R-trees — one tree
    for a single database, the live shards' trees for a sharded one — and
    records which member holds each object.  ``kth_table`` keeps the reverse
    filter's k-th ``MaxDist`` per row for a few ``(alpha, k)`` pairs.  The
    cache key is, per member, its identity, size and ``tree.mutations``, so
    a mutation (also an insert + delete pair that keeps the size) or a change
    of the covered set rebuilds either; anything else returns the same
    answer.
    """

    def __init__(self) -> None:
        # (key, the trees — kept alive so their ids stay unique, the answer);
        # one tuple swapped in whole, so concurrent batches never see a mix.
        self._cached: Optional[Tuple] = None
        # The same, with {(alpha, k): {(start, stop): k-th MaxDist rows}} as
        # the answer; a lost race between two builders only costs a rebuild.
        self._tables: Optional[Tuple] = None

    @staticmethod
    def _key(trees: Sequence[RTree]) -> Tuple:
        return tuple((id(tree), len(tree), tree.mutations) for tree in trees)

    def over(
        self, trees: Sequence[RTree]
    ) -> Tuple[Optional[cKDTree], np.ndarray, Dict[int, int]]:
        """``(KD-tree, aligned object ids, object id -> position in trees)``."""
        key = self._key(trees)
        cached = self._cached
        if cached is not None and cached[0] == key:
            return cached[2]
        reps: List[np.ndarray] = []
        oids: List[int] = []
        member_of: Dict[int, int] = {}
        for member, tree in enumerate(trees):
            first = len(oids)
            for entry in tree.leaf_entries():
                reps.append(entry.summary.representative)
                oids.append(entry.object_id)
            member_of.update(dict.fromkeys(oids[first:], member))
        answer = (
            cKDTree(np.asarray(reps)) if reps else None,
            np.asarray(oids, dtype=np.int64),
            member_of,
        )
        self._cached = (key, tuple(trees), answer)
        return answer

    def kth_table(
        self,
        trees: Sequence[RTree],
        alpha: float,
        k: int,
        start: int,
        stop: int,
        box_lo: np.ndarray,
        box_hi: np.ndarray,
    ) -> Tuple[np.ndarray, bool]:
        """Rows ``start:stop``'s k-th ``MaxDist`` to the whole box set, and whether it was built.

        ``box_lo`` / ``box_hi`` are every member's ``M_A(alpha)*`` boxes in
        ``leaf_alpha_bounds`` order, member after member, so the key of
        ``trees`` fixes them.  A hit is returned as stored; a miss builds the
        slice with :func:`~repro.index.soa.kth_max_dists`.  At most
        ``_KTH_TABLE_PAIRS`` ``(alpha, k)`` pairs are kept, oldest out first.
        """
        key = self._key(trees)
        cached = self._tables
        if cached is None or cached[0] != key:
            cached = (key, tuple(trees), {})
        pair, rows = (float(alpha), int(k)), (start, stop)
        kth = cached[2].get(pair, {}).get(rows)
        if kth is not None:
            return kth, False
        kth = kth_max_dists(
            box_lo[start:stop], box_hi[start:stop], box_lo, box_hi, k,
            self_index=np.arange(start, stop),
        )
        tables = dict(cached[2])
        tables[pair] = {**tables.get(pair, {}), rows: kth}
        if len(tables) > _KTH_TABLE_PAIRS:
            del tables[next(iter(tables))]
        self._tables = (key, cached[1], tables)
        return kth, True


def bootstrap_radii(
    index: RepresentativeIndex,
    parts: Sequence,
    prepared: Sequence[PreparedQuery],
    k: int,
    alpha: float,
    exact: List[Dict[int, float]],
    metrics: MetricsCollector,
    query_metrics: List[MetricsCollector],
) -> np.ndarray:
    """A valid per-query pruning radius over a partition set.

    ``parts`` each expose ``tree`` and ``store``.  For each query the
    KD-tree over every part's ``rep(A)`` points nominates the objects whose
    representatives are closest to the centre of the query alpha-cut MBR;
    probing those exactly — each read from the part the index found it in —
    makes the k-th smallest probed distance a valid upper bound on the true
    k-th neighbour distance over all parts (where the nominations land only
    affects how tight the radius is, never correctness).  Returns the radii;
    ``exact`` gains every distance paid for, so an executor seeded with it
    never evaluates — nor fetches — a nominee again.  Fewer than ``k``
    indexed objects leave the radii at ``inf``.  The radii hold only against
    the snapshot they were probed from.
    """
    n_queries = len(prepared)
    tau = np.full(n_queries, np.inf)
    kdtree, object_ids, member_of = index.over([part.tree for part in parts])
    if object_ids.shape[0] < k:
        return tau
    kk = min(k + _BOOTSTRAP_EXTRA, object_ids.shape[0])
    centers = np.stack(
        [(p.query_mbr.lower + p.query_mbr.upper) / 2.0 for p in prepared]
    )
    _, rep_idx = kdtree.query(centers, k=kk)
    if kk == 1:
        rep_idx = rep_idx[:, None]
    metrics.increment(MetricsCollector.UPPER_BOUND_EVALUATIONS, n_queries * kk)
    probes = probe_rows(
        lambda object_id: parts[member_of[object_id]].store.get(object_id),
        prepared, object_ids[rep_idx].tolist(), alpha, exact, query_metrics,
    )
    for qi, dists in enumerate(probes):
        tau[qi] = float(np.partition(dists, k - 1)[k - 1])
    return tau


def probe_rows(
    fetch: Callable[[int], FuzzyObject],
    prepared: Sequence[PreparedQuery],
    rows: List[List[int]],
    alpha: float,
    exact: List[Dict[int, float]],
    query_metrics: List[MetricsCollector],
    deadline=None,
) -> List[np.ndarray]:
    """Each query's exact alpha-distances to its row of object ids.

    An object is read through ``fetch`` (once, ascending id order) only
    when some query still owes it a distance; a row fully covered by its
    memo (``exact``, which gains every distance paid for) costs no access
    at all.
    """
    owed = [
        [oid for oid in row if oid not in known] if known else row
        for row, known in zip(rows, exact)
    ]
    cuts = {
        object_id: fetch(object_id).alpha_cut(alpha)
        for object_id in sorted(set().union(*owed))
    }
    distances: List[np.ndarray] = []
    for qi, (row, missing) in enumerate(zip(rows, owed)):
        if deadline is not None:
            deadline.check("batch refinement")
        known = exact[qi]
        if missing:
            fresh = _exact_min_distances(
                prepared[qi].query_cut, [cuts[oid] for oid in missing]
            )
            query_metrics[qi].increment(
                MetricsCollector.DISTANCE_EVALUATIONS, len(missing)
            )
            known.update(zip(missing, fresh.tolist()))
        if missing and len(missing) == len(row):
            distances.append(fresh)
        else:
            distances.append(np.asarray([known[oid] for oid in row], dtype=float))
    return distances


def shared_traversal(
    tree: RTree,
    alpha: float,
    improved: bool,
    q_lo: np.ndarray,
    q_hi: np.ndarray,
    tau: np.ndarray,
    metrics: MetricsCollector,
    deadline=None,
) -> List[np.ndarray]:
    """One descent of ``tree`` for a whole bucket, gathering candidate ids per query.

    ``tau`` is each query's radius: an AKNN bucket's bootstrapped k-th
    distance, or a range bucket's own radii (:mod:`repro.core.range_search`),
    so both families share this one descent.  Every node is visited at most
    once; bounds are evaluated only for the queries still *active* at a node
    (their radius exceeds the node's ``MinDist``), as one ``(active, n)``
    matrix per node.  Returns, per query, the ids of every leaf entry whose
    lower bound survives the query's radius, in leaf-visit then entry order.
    """
    n_queries = q_lo.shape[0]
    threshold = tau * (1.0 + _PRUNE_SLACK) + _PRUNE_SLACK
    # (query index, object id) of every surviving leaf entry, leaf by leaf
    # (seeded empty, so a traversal that reaches no leaf still concatenates).
    hit_queries = [np.empty(0, dtype=np.int64)]
    hit_ids = [np.empty(0, dtype=np.int64)]
    lb_counter = MetricsCollector.LOWER_BOUND_EVALUATIONS
    # Stack of (node, active query indices); the radii are fixed up
    # front, so no best-first ordering is needed.
    stack: List[Tuple[object, np.ndarray]] = [
        (tree.root, np.arange(n_queries))
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
            rows, cols = np.nonzero(lb <= threshold[active, None])
            hit_queries.append(active[rows])
            hit_ids.append(soa.object_ids[cols])
        else:
            child_dists = soa.min_dist(q_lo[active], q_hi[active])
            reachable = child_dists <= threshold[active, None]
            keep = reachable.any(axis=0)
            for j, entry in enumerate(node.entries):
                if keep[j]:
                    stack.append((entry.child, active[reachable[:, j]]))
                else:
                    metrics.increment(MetricsCollector.NODES_PRUNED)
    # One stable sort groups the hits by query without reordering them.
    owners = np.concatenate(hit_queries)
    order = np.argsort(owners, kind="stable")
    splits = np.cumsum(np.bincount(owners, minlength=n_queries))[:-1]
    return np.split(np.concatenate(hit_ids)[order], splits)


def aknn_bucket_pass(
    index: RepresentativeIndex,
    parts: Sequence,
    fan_out: Callable[[str, Callable], List],
    queries: Sequence[FuzzyObject],
    k: int,
    alpha: float,
    method: str,
    config: RuntimeConfig,
    metrics: MetricsCollector,
    rng: Optional[np.random.Generator] = None,
    deadline=None,
) -> List[AKNNResult]:
    """One AKNN bucket (shared ``k`` / ``alpha``) over a partition set.

    The AKNN bucket of both engines: a database runs it over itself, a set
    of one, and the sharded database over its live shards.  ``parts`` each
    expose ``store`` / ``tree`` / ``executor``; ``fan_out(op, fn)`` applies
    ``fn`` to every part (as for
    :func:`repro.core.reverse_nn.reverse_bucket_pass`).

    A bucket of one is one best-first search over every part's root
    (:func:`~repro.core.aknn.searcher_over`).  A bucket of many is one
    :func:`bootstrap_radii` over all parts (``index`` caches its KD-tree,
    ``metrics`` counts its nominations), then every part's executor runs
    under the global radii with the distances already paid for; the radii
    hold only against the snapshot they were probed from.  Each query is
    prepared once for the bootstrap and every part; the parts' top-ks merge
    exactly.  ``batch_queries`` is counted last, after every fan-out, so a
    pass that a lost part makes the caller rerun counts its bucket once.
    """
    if deadline is not None:
        deadline.check("aknn")
    if len(queries) == 1:
        return [searcher_over(fan_out, config).search(queries[0], k, alpha, method, rng)]
    prepared = [PreparedQuery(q, alpha, config, rng) for q in queries]
    initial_exact: List[Dict[int, float]] = [dict() for _ in prepared]
    bootstrap_evals = [MetricsCollector() for _ in prepared]
    initial_tau = bootstrap_radii(
        index, parts, prepared, k, alpha, initial_exact, metrics, bootstrap_evals,
    )
    batches = fan_out(
        "aknn_batch",
        lambda part: part.executor.aknn_batch(
            prepared, k, alpha, method=method, rng=rng,
            initial_tau=initial_tau, initial_exact=initial_exact, deadline=deadline,
        ),
    )
    results = []
    for qi, evals in enumerate(bootstrap_evals):
        per_part = [batch.results[qi] for batch in batches]
        stats = QueryStats(
            distance_evaluations=sum(r.stats.distance_evaluations for r in per_part)
            + evals.get(MetricsCollector.DISTANCE_EVALUATIONS),
            aknn_calls=1,
        )
        neighbors = merge_topk([r.neighbors for r in per_part], k)
        results.append(AKNNResult(neighbors, k, alpha, method, stats))
    metrics.increment(MetricsCollector.BATCH_QUERIES, len(queries))
    return results


class BatchQueryExecutor:
    """One part's stage of an AKNN bucket: a shared traversal of its R-tree
    under radii the caller supplies, then the exact refinement."""

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
    def aknn_batch(
        self,
        queries: Sequence[Union[FuzzyObject, PreparedQuery]],
        k: int,
        alpha: float,
        method: str = "lb_lp_ub",
        rng: Optional[np.random.Generator] = None,
        initial_tau: Optional[np.ndarray] = None,
        initial_exact: Optional[Sequence[Dict[int, float]]] = None,
        deadline=None,
    ) -> BatchResult:
        """Answer every query's AKNN at one shared ``k`` and ``alpha``.

        A query may arrive already prepared (a :class:`PreparedQuery` at this
        ``alpha``): a caller fanning one batch out to several executors
        prepares each query once and every executor reuses it.

        ``deadline`` is an optional :class:`~repro.service.policy.Deadline`;
        the batch checks it between traversal chunks and refinement steps and
        aborts with :class:`~repro.exceptions.DeadlineExceededError` once it
        expires, so an already-dead batch never burns a full traversal.

        ``method`` selects the lower bound driving the shared pruning
        (``"basic"`` uses the support-MBR ``MinDist``; every other variant
        uses the conservative-line bound ``d-_alpha``); all methods return
        the same exact neighbour sets.

        ``initial_tau`` holds one pruning radius per query and is required
        for a non-empty batch: the executor never bootstraps a radius of its
        own (:func:`aknn_bucket_pass` supplies the bucket's global ones).
        The traversal prunes against these radii and the returned neighbour
        lists are complete only *up to the supplied radius*: every object
        whose exact distance is at most a query's radius is considered,
        anything beyond it is dropped.  A radius that upper-bounds the
        query's true k-th neighbour distance therefore yields the full exact
        top-k; a deliberately smaller radius yields a truncated list — the
        reverse-kNN engine exploits this with ``tau = d_alpha(A, Q)``, whose
        truncation provably preserves the membership decision (see
        :func:`repro.core.reverse_nn.membership_from_neighbors`) but would
        NOT be a valid top-k answer on its own.  ``initial_exact``
        optionally seeds each query's exact-distance memo (one dict per
        query) so distances the caller already evaluated — e.g. for the
        bootstrap nominees — are not recomputed during refinement.
        """
        if k <= 0:
            raise InvalidQueryError(f"k must be positive, got {k}")
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
        queries: List[Union[FuzzyObject, PreparedQuery]],
        k: int,
        alpha: float,
        method: str,
        rng: Optional[np.random.Generator],
        metrics: MetricsCollector,
        query_metrics: List[MetricsCollector],
        initial_tau: Optional[np.ndarray],
        initial_exact: Optional[Sequence[Dict[int, float]]],
        deadline,
    ) -> List[List[Neighbor]]:
        improved = method != "basic"
        prepared = [
            q if isinstance(q, PreparedQuery)
            else PreparedQuery(q, alpha, self.config, rng)
            for q in queries
        ]
        if any(p.alpha != alpha for p in prepared):
            raise InvalidQueryError(f"a prepared query is not at alpha={alpha}")
        q_lo = np.stack([p.query_mbr.lower for p in prepared])
        q_hi = np.stack([p.query_mbr.upper for p in prepared])

        tau = np.asarray(initial_tau, dtype=float)
        if tau.shape != (len(prepared),):
            raise InvalidQueryError(
                f"initial_tau needs one radius per query ({len(prepared)}), "
                f"got shape {tau.shape}"
            )
        if initial_exact is not None:
            if len(initial_exact) != len(prepared):
                raise InvalidQueryError(
                    f"initial_exact needs one memo per query "
                    f"({len(prepared)}), got {len(initial_exact)}"
                )
            exact: List[Dict[int, float]] = [dict(d) for d in initial_exact]
        else:
            exact = [dict() for _ in prepared]
        candidates = shared_traversal(
            self.tree, alpha, improved, q_lo, q_hi, tau, metrics, deadline=deadline
        )
        if deadline is not None:
            deadline.check("batch traversal")

        rows = [ids.tolist() for ids in candidates]
        probes = probe_rows(
            self.store.get, prepared, rows, alpha, exact, query_metrics, deadline
        )
        results: List[List[Neighbor]] = []
        for ids, radius, dists in zip(candidates, tau, probes):
            order = np.lexsort((ids, dists))[:k]
            order = order[dists[order] <= radius]
            results.append(
                [
                    Neighbor(object_id, distance, distance, distance, True)
                    for object_id, distance in zip(
                        ids[order].tolist(), dists[order].tolist()
                    )
                ]
            )
        # The (query, object) pairs this executor examined: its traversal
        # survivors, not whatever else the caller's memo happened to hold.
        metrics.increment("batch_candidates", sum(len(row) for row in rows))
        return results

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
