"""Reverse kNN over fuzzy objects — the paper's second proposed follow-up query.

Given a query fuzzy object ``Q``, a threshold ``alpha`` and a result size
``k``, the reverse AKNN query returns every dataset object ``A`` that counts
``Q`` among its own ``k`` nearest neighbours at ``alpha`` (monochromatic
semantics: ``A``'s neighbours are drawn from the dataset without ``A`` itself,
plus ``Q``).

The plan is filter, then verify.  The filter is the all-pairs
disqualification test — ``A`` is out once ``k`` objects have
``MaxDist(M_A(alpha)*, M_B(alpha)*)`` below ``MinDist(M_A(alpha)*,
M_Q(alpha))`` — over the ``(N, d)`` Equation-2 box arrays gathered straight
from the leaf SoA views, without touching the store.  Its MaxDist half does
not depend on the query: fewer than ``k`` objects beat the threshold exactly
when ``A``'s k-th smallest MaxDist is at or above it, so that one value per
row (:func:`~repro.index.soa.kth_max_dists`) is built once per partition-set
version, ``alpha`` and ``k`` and cached in the
:class:`~repro.core.executor.RepresentativeIndex`; a query then pays one
``MinDist`` per row.  Verification then answers every surviving candidate's
(k+1)-NN through **one** shared
:meth:`~repro.core.executor.BatchQueryExecutor.aknn_batch` traversal: each candidate's exact distance to ``Q`` doubles as an externally
bootstrapped pruning radius (any object at or beyond ``d_alpha(A, Q)`` can
never be strictly closer to ``A`` than ``Q``, so truncating the traversal
there preserves the membership decision), and every distinct object is
fetched from the store once for the whole batch.  Results report the method
``"batch"``.

:func:`reverse_bucket_pass` is that plan for a *bucket* of reverse
queries sharing ``(k, alpha)``, written once over a *partition set*: the
bucket reads (or, after a write, rebuilds) the cached k-th MaxDist table, and
the union of every query's surviving candidates is verified through a single
shared traversal per partition (per-candidate radii take the maximum over
the bucket, which keeps each per-query decision exact).
:meth:`ReverseAKNNSearcher.search_batch` runs it over one tree — a partition
set of one, fanned out by a plain call — and the sharded database over its
live shards through its strict fan-out; the gather, the filter, the
candidate plan, the merge and the cost totals exist only here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import RuntimeConfig
from repro.core.executor import (
    BatchQueryExecutor,
    RepresentativeIndex,
    _exact_min_distances,
)
from repro.core.query import PreparedQuery
from repro.core.results import Coverage, QueryStats, merge_topk
from repro.exceptions import InvalidQueryError
from repro.fuzzy.alpha_distance import DistanceProfileStore
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.index.rtree import RTree
from repro.index.soa import min_dist_to_boxes
from repro.metrics.counters import MetricsCollector
from repro.metrics.timer import Timer
from repro.storage.object_store import ObjectStore


def membership_from_neighbors(
    neighbors, candidate_id: int, distance_to_query: float, k: int
) -> bool:
    """Decide reverse-neighbour membership from a (k+1)-NN answer.

    ``Q`` is among the candidate's k nearest neighbours iff fewer than ``k``
    dataset objects other than the candidate itself are strictly closer to it
    than ``Q``.  Any valid top-(k+1) list over a candidate set truncated at
    ``distance_to_query`` suffices: when fewer than ``k`` objects are closer,
    all of them (plus the candidate at distance zero) outrank everything at
    or beyond ``distance_to_query`` and appear in the list; when at least
    ``k`` are, the list fills with closer objects, of which at most one entry
    is the candidate itself.
    """
    closer = 0
    for neighbor in neighbors:
        if neighbor.object_id == candidate_id:
            continue
        if neighbor.distance < distance_to_query:
            closer += 1
            if closer >= k:
                return False
    return True


def bucket_candidate_distances(
    prepared: Sequence[PreparedQuery],
    masks: np.ndarray,
    union: np.ndarray,
    cand_cuts: Sequence[np.ndarray],
    metrics: Optional[MetricsCollector] = None,
    cand_ids: Optional[Sequence[int]] = None,
    profile_store: Optional["DistanceProfileStore"] = None,
) -> Tuple[List[np.ndarray], List[np.ndarray], np.ndarray]:
    """Exact per-query candidate distances plus the bucket's shared radii.

    For each query, the columns (positions within ``union``) of its surviving
    candidates and their exact ``d_alpha(A, Q)`` values; ``tau`` is the
    per-candidate maximum over the bucket, the valid truncation radius for
    the shared verification traversal (see :func:`membership_from_neighbors`).

    When ``profile_store`` (and the aligned ``cand_ids``) are given, each
    (query, candidate) evaluation is served from the shared
    :class:`~repro.fuzzy.alpha_distance.DistanceProfileStore` memo when
    possible — a distance profile materialised by the RKNN sweep searcher for
    the same query instance answers it for free — and every freshly computed
    distance is memoised back, so overlapping evaluations between the sweep
    and reverse engines are paid once per pair.
    """
    per_query_cols: List[np.ndarray] = []
    per_query_dists: List[np.ndarray] = []
    tau = np.zeros(union.shape[0])
    memo = profile_store if cand_ids is not None else None
    for qi, query in enumerate(prepared):
        cols = np.flatnonzero(masks[qi][union])
        dists = np.empty(cols.shape[0])
        # Per-pair lookups only pay off for a query instance the store has
        # already seen (a sweep or an earlier reverse call); a fresh query
        # object — the common serving case — can never hit, so it keeps the
        # one-shot vectorized evaluation path regardless of what other
        # queries have cached.
        use_memo = memo is not None and memo.has_query(query.query)
        if cols.shape[0]:
            if not use_memo:
                pending = list(range(cols.shape[0]))
                pending_cuts = [cand_cuts[j] for j in cols.tolist()]
            else:
                pending = []
                pending_cuts = []
                for pos, col in enumerate(cols.tolist()):
                    cached = memo.distance_at(
                        query.query, cand_ids[col], query.alpha
                    )
                    if cached is None:
                        pending.append(pos)
                        pending_cuts.append(cand_cuts[col])
                    else:
                        dists[pos] = cached
            if pending:
                computed = _exact_min_distances(query.query_cut, pending_cuts)
                if metrics is not None:
                    metrics.increment(
                        MetricsCollector.DISTANCE_EVALUATIONS, len(pending)
                    )
                dists[np.asarray(pending, dtype=np.intp)] = computed
                if use_memo:
                    for pos, value in zip(pending, computed.tolist()):
                        memo.insert_distance(
                            query.query,
                            cand_ids[int(cols[pos])],
                            query.alpha,
                            value,
                        )
            np.maximum.at(tau, cols, dists)
        per_query_cols.append(cols)
        per_query_dists.append(dists)
    return per_query_cols, per_query_dists, tau


def query_filter_thresholds(
    prepared: Sequence[PreparedQuery],
    box_lo: np.ndarray,
    box_hi: np.ndarray,
) -> np.ndarray:
    """Per-(query, row) disqualification thresholds for the all-pairs filter.

    Row ``(q, A)`` is ``MinDist(M_A(alpha)*, M_Q(alpha))`` — the value
    ``A``'s k-th ``MaxDist(M_A*, M_B*)`` is compared against, for every row
    of the whole (all partitions') box set.
    """
    return min_dist_to_boxes(
        np.stack([p.query_mbr.lower for p in prepared]),
        np.stack([p.query_mbr.upper for p in prepared]),
        box_lo,
        box_hi,
    )


@dataclass
class BucketVerificationPlan:
    """Candidate-side state shared by one bucket's verification traversal.

    Produced by :func:`plan_bucket_verification`; every partition's executor
    verifies the same plan.
    """

    union: np.ndarray
    cand_ids: List[int]
    cand_objs: List[FuzzyObject]
    per_query_cols: List[np.ndarray]
    per_query_dists: List[np.ndarray]
    tau: np.ndarray
    seeds: List[Dict[int, float]]

    @property
    def probes(self) -> List[int]:
        """Exact candidate probes attributable to each query."""
        return [int(cols.shape[0]) for cols in self.per_query_cols]


def plan_bucket_verification(
    prepared: Sequence[PreparedQuery],
    masks: np.ndarray,
    ids: np.ndarray,
    fetch_object,
    alpha: float,
    metrics: Optional[MetricsCollector] = None,
    profile_store: Optional["DistanceProfileStore"] = None,
) -> Optional[BucketVerificationPlan]:
    """Candidate prep for a reverse bucket's shared verification traversal.

    Materialises the union of every query's surviving candidates (``masks``
    over the global row array ``ids``; ``fetch_object(row)`` resolves one row
    to its object, wherever it is stored), evaluates the per-query exact
    distances, and derives the bucket-wide truncation radii ``tau`` plus the
    per-candidate self-distance seeds handed to the batch executor.  Returns
    ``None`` when no candidate survives anywhere in the bucket.
    """
    union = np.flatnonzero(masks.any(axis=0))
    if union.shape[0] == 0:
        return None
    cand_ids = [int(ids[j]) for j in union]
    cand_objs = [fetch_object(int(j)) for j in union]
    cand_cuts = [obj.alpha_cut(alpha) for obj in cand_objs]
    per_query_cols, per_query_dists, tau = bucket_candidate_distances(
        prepared,
        masks,
        union,
        cand_cuts,
        metrics,
        cand_ids=cand_ids,
        profile_store=profile_store,
    )
    seeds = [{object_id: 0.0} for object_id in cand_ids]
    return BucketVerificationPlan(
        union=union,
        cand_ids=cand_ids,
        cand_objs=cand_objs,
        per_query_cols=per_query_cols,
        per_query_dists=per_query_dists,
        tau=tau,
        seeds=seeds,
    )


def build_bucket_results(
    k: int,
    alpha: float,
    method: str,
    elapsed: float,
    masks: np.ndarray,
    memberships: Sequence[List[int]],
    distance_maps: Sequence[Dict[int, float]],
    probes: Sequence[int],
    totals: Dict[str, int],
    extra_common: Dict[str, float],
) -> List["ReverseKNNResult"]:
    """Per-query results with per-query-honest cost attribution.

    Most of a bucket's work (filter table, shared traversal, store fetches)
    is paid once and cannot be attributed to one query, so per-result scalar
    counters charge each query only its own exact candidate probes
    (``probes``), with the bucket totals (``totals``, keyed by QueryStats
    field name) reported under ``extra["bucket_<name>"]``.  A bucket of one
    query owns every cost, so its scalars carry the full totals.
    """
    single = len(memberships) == 1
    results: List[ReverseKNNResult] = []
    for qi in range(len(memberships)):
        extra = dict(extra_common)
        extra["candidates"] = float(int(masks[qi].sum()))
        for name, value in totals.items():
            extra[f"bucket_{name}"] = float(value)
        scalars = {name: (value if single else 0) for name, value in totals.items()}
        if not single:
            scalars["distance_evaluations"] = probes[qi]
        stats = QueryStats(elapsed_seconds=elapsed, extra=extra, **scalars)
        results.append(
            ReverseKNNResult(
                object_ids=sorted(memberships[qi]),
                distances=distance_maps[qi],
                k=k,
                alpha=alpha,
                method=method,
                stats=stats,
            )
        )
    return results


def collect_memberships(
    k: int,
    cand_ids: Sequence[int],
    neighbor_lists: Sequence[Sequence],
    per_query_cols: Sequence[np.ndarray],
    per_query_dists: Sequence[np.ndarray],
) -> Tuple[List[List[int]], List[Dict[int, float]]]:
    """Per-query reverse-neighbour sets from the verified (k+1)-NN lists."""
    memberships: List[List[int]] = []
    distances: List[Dict[int, float]] = []
    for cols, dists in zip(per_query_cols, per_query_dists):
        object_ids: List[int] = []
        by_id: Dict[int, float] = {}
        for col, distance_to_query in zip(cols.tolist(), dists.tolist()):
            if membership_from_neighbors(
                neighbor_lists[col], cand_ids[col], distance_to_query, k
            ):
                object_ids.append(cand_ids[col])
                by_id[cand_ids[col]] = distance_to_query
        memberships.append(object_ids)
        distances.append(by_id)
    return memberships, distances


@dataclass
class ReverseKNNResult:
    """Answer of a reverse AKNN query."""

    object_ids: List[int]
    distances: Dict[int, float]
    k: int
    alpha: float
    method: str
    stats: QueryStats = field(default_factory=QueryStats)
    coverage: Optional["Coverage"] = None

    def __len__(self) -> int:
        return len(self.object_ids)


def reverse_bucket_pass(
    index: RepresentativeIndex,
    parts: Sequence,
    fan_out: Callable[[str, Callable], List],
    queries: Sequence[FuzzyObject],
    k: int,
    alpha: float,
    config: RuntimeConfig,
    rng: Optional[np.random.Generator] = None,
    deadline=None,
    profile_store: Optional[DistanceProfileStore] = None,
) -> List[ReverseKNNResult]:
    """One reverse bucket (shared ``k`` / ``alpha``) over a partition set.

    ``parts`` each expose ``store`` / ``tree`` / ``executor`` and
    ``fan_out(op, fn)`` applies ``fn`` to every part, returning the values in
    ``parts`` order — a plain call for a single tree, the sharded database's
    strict fan-out (fault injection, retries, survivor reruns) for shards:

    1. ``reverse_gather`` — every part exports its ``(n_p, d)`` Equation-2
       box arrays from the leaf SoA views;
    2. ``reverse_filter`` — each part decides the all-pairs
       disqualification test for *its* rows against the **whole** box set, so
       candidate sets are exactly as tight as one tree's: a row survives when
       its k-th MaxDist is at or above the query's MinDist.  ``index`` holds
       those k-th values per member set (the key covers every part's tree, so
       a write or a survivor rerun rebuilds) and builds a part's slice on a
       miss;
    3. the union of every query's surviving candidates is fetched through
       the part that gathered the row and planned once
       (:func:`plan_bucket_verification`);
    4. ``reverse_verify`` — every part answers the candidates' (k+1)-NN
       through its batch executor under the shared radii ``d_alpha(A, Q)``
       (maximised over the bucket), and the per-part lists merge before the
       membership count.

    The bucket totals are assembled here, once: the filter's ``Q·n`` bound
    evaluations, ``n`` more per row whose k-th table this bucket built
    (``Q·n + n²`` on a cold table), plus every part's verification traversal.
    """
    if k <= 0:
        raise InvalidQueryError(f"k must be positive, got {k}")
    if not 0.0 < alpha <= 1.0:
        raise InvalidQueryError(f"alpha must be in (0, 1], got {alpha}")
    queries = list(queries)
    if not queries:
        return []
    timer = Timer().start()
    metrics = MetricsCollector()
    accesses_before = sum(part.store.statistics.object_accesses for part in parts)
    if deadline is not None:
        deadline.check("reverse filter")
    prepared = [PreparedQuery(query, alpha, config, rng) for query in queries]
    gathered = fan_out(
        "reverse_gather", lambda part: part.tree.leaf_alpha_bounds(alpha)
    )
    # Row range of each part within the concatenated arrays (an empty tree
    # exports (0, 0)-shaped boxes, which cannot be concatenated).
    sizes = [part_ids.shape[0] for part_ids, _, _ in gathered]
    stops = np.cumsum(sizes).tolist()
    spans = {
        id(part): (stop - size, stop)
        for part, size, stop in zip(parts, sizes, stops)
    }
    part_of_row = np.repeat(np.arange(len(parts)), sizes)
    n = stops[-1]
    filled = [g for g in gathered if g[0].shape[0]] or gathered[:1]
    ids, box_lo, box_hi = (
        np.concatenate([g[axis] for g in filled]) for axis in range(3)
    )

    if n == 0:
        masks = np.ones((len(queries), n), dtype=bool)
    else:
        thresholds = query_filter_thresholds(prepared, box_lo, box_hi)
        trees = [part.tree for part in parts]

        def filter_rows(part) -> Tuple[np.ndarray, int]:
            start, stop = spans[id(part)]
            kth, built = index.kth_table(
                trees, alpha, k, start, stop, box_lo, box_hi
            )
            return kth >= thresholds[:, start:stop], (stop - start if built else 0)

        filtered = fan_out("reverse_filter", filter_rows)
        masks = np.concatenate([mask for mask, _ in filtered], axis=1)
        built_rows = sum(rows for _, rows in filtered)
        metrics.increment(
            MetricsCollector.LOWER_BOUND_EVALUATIONS,
            len(queries) * n + built_rows * n,
        )

    if deadline is not None:
        deadline.check("reverse verification")
    plan = plan_bucket_verification(
        prepared,
        masks,
        ids,
        lambda row: parts[part_of_row[row]].store.get(int(ids[row])),
        alpha,
        metrics,
        profile_store=profile_store,
    )
    memberships: List[List[int]] = [[] for _ in queries]
    distance_maps: List[Dict[int, float]] = [{} for _ in queries]
    probes = [0] * len(queries)
    verification = QueryStats()
    if plan is not None:
        batches = fan_out(
            "reverse_verify",
            lambda part: part.executor.aknn_batch(
                plan.cand_objs, k + 1, alpha, rng=rng,
                initial_tau=plan.tau, initial_exact=plan.seeds,
                deadline=deadline,
            ),
        )
        for batch in batches:
            verification.merge(batch.stats)
        merged = [
            merge_topk([batch.results[j].neighbors for batch in batches], k + 1)
            for j in range(len(plan.cand_ids))
        ]
        memberships, distance_maps = collect_memberships(
            k, plan.cand_ids, merged, plan.per_query_cols, plan.per_query_dists
        )
        probes = plan.probes

    return build_bucket_results(
        k,
        alpha,
        "batch",
        timer.stop(),
        masks,
        memberships,
        distance_maps,
        probes,
        totals={
            "object_accesses": sum(
                part.store.statistics.object_accesses for part in parts
            )
            - accesses_before,
            "node_accesses": verification.node_accesses,
            "distance_evaluations": metrics.get(
                MetricsCollector.DISTANCE_EVALUATIONS
            )
            + verification.distance_evaluations,
            "lower_bound_evaluations": metrics.get(
                MetricsCollector.LOWER_BOUND_EVALUATIONS
            )
            + verification.lower_bound_evaluations,
            "upper_bound_evaluations": verification.upper_bound_evaluations,
        },
        extra_common={
            "batch_reverse_queries": float(len(queries)),
            "reverse_candidates": float(len(plan.cand_ids) if plan else 0),
            "shard_fanouts": float(len(parts)),
        },
    )


class ReverseAKNNSearcher:
    """Answers reverse AKNN queries over an object store + R-tree pair."""

    def __init__(
        self,
        store: ObjectStore,
        tree: RTree,
        config: Optional[RuntimeConfig] = None,
        executor: Optional[BatchQueryExecutor] = None,
        profile_store: Optional[DistanceProfileStore] = None,
    ):
        self.store = store
        self.tree = tree
        self.config = (config or RuntimeConfig()).validate()
        # Verification runs through a shared executor (the database hands in
        # its own); the k-th MaxDist table belongs to this partition set of one.
        self.executor = executor or BatchQueryExecutor(store, tree, self.config)
        self._rep_index = RepresentativeIndex()
        # d_alpha(A, Q) memo shared with the RKNN sweep searcher (the
        # database hands both the same store): a profile the sweep computed
        # answers a reverse evaluation for free, and vice versa the scalar
        # memo dedupes repeated reverse submissions of one query instance.
        # (Explicit None check: an empty store is falsy via __len__.)
        if profile_store is None:
            profile_store = DistanceProfileStore(self.config.profile_cache_capacity)
        self.profile_store = profile_store

    def search_batch(
        self,
        queries: Sequence[FuzzyObject],
        k: int,
        alpha: float,
        rng: Optional[np.random.Generator] = None,
        deadline=None,
    ) -> List["ReverseKNNResult"]:
        """Answer a bucket of reverse AKNN queries sharing ``(k, alpha)``.

        :func:`reverse_bucket_pass` over this searcher as a partition set of
        one.  Returns one result per query.  ``deadline`` bounds the bucket.
        """
        return reverse_bucket_pass(
            self._rep_index, [self], lambda op, fn: [fn(self)],
            queries, k, alpha, self.config, rng=rng, deadline=deadline,
            profile_store=self.profile_store,
        )
