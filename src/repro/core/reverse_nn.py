"""Reverse kNN over fuzzy objects — the paper's second proposed follow-up query.

Given a query fuzzy object ``Q``, a threshold ``alpha`` and a result size
``k``, the reverse AKNN query returns every dataset object ``A`` that counts
``Q`` among its own ``k`` nearest neighbours at ``alpha`` (monochromatic
semantics: ``A``'s neighbours are drawn from the dataset without ``A`` itself,
plus ``Q``).

The plan is filter, then verify.  The filter is the all-pairs
disqualification test — ``A`` is out once ``k`` objects have
``MaxDist(M_A(alpha)*, M_B(alpha)*)`` below ``MinDist(M_A(alpha)*,
M_Q(alpha))`` — over the ``(N, d)`` Equation-2 box arrays of the partition
set's bound table (:meth:`~repro.core.executor.RepresentativeIndex.bounds`,
the one box source the AKNN buckets read too), without touching the store.
Its MaxDist half does not depend on the query: fewer than ``k`` objects beat
the threshold exactly when ``A``'s k-th smallest MaxDist is at or above it,
so that one value per row (:func:`~repro.index.soa.kth_max_dists`) is built
once per partition-set version, ``alpha`` and ``k`` and cached in the
:class:`~repro.core.executor.RepresentativeIndex`; a query then pays one
``MinDist`` per row.

Verification is the paper's lazy probe (Sections 3.3-3.4, Lemma 1) applied
to a count.  Every surviving candidate ``A`` has bounds to its query and to
every other object ``B`` from stored summaries alone (its ``M*`` box and
its representative kernel point ``rep(A)``), and :func:`count_test` decides
from them whether fewer than ``k`` objects are strictly closer to ``A``
than ``Q``.  Only an undecided candidate is read; its distance to ``Q``
becomes exact, and two passes then read, per undecided pair, first the
``k - #sure`` most promising undecided neighbours and then the rest.  Each
pair is a row of the bucket's :class:`~repro.core.executor.Decisions`
record, which the results and their distance counts are read from.  A
member the bounds confirm is reported with ``distance=None`` and its upper
bound in :attr:`ReverseKNNResult.upper_bounds`; README, "What a reverse
bucket reads", has the numbers.  Results report the method ``"batch"``.

:func:`reverse_bucket_pass` is that plan for a *bucket* of reverse queries
sharing ``(k, alpha)``, written once over a *partition set*: the bucket
reads (or, after a write, rebuilds) the cached k-th MaxDist table, one
traversal per part gathers every candidate's possible neighbours (radii
maximised over the bucket), and one bucket-wide memo reads each object at
most once however many queries and candidates need it.
A database runs it over itself — a partition set of one, fanned out by a
plain call — and the sharded database over its live shards through its
strict fan-out; the filter, the verification, the merge and the cost totals
exist only here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import RuntimeConfig
from repro.core import executor
from repro.core.executor import (
    CONFIRMED,
    Decisions,
    RepresentativeIndex,
    probe_rows,
    reader,
    shared_traversal,
    two_passes,
    upper_bounds,
)
from repro.core.query import PreparedQuery
from repro.core.results import Coverage, QueryStats
from repro.exceptions import InvalidQueryError
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.index.rtree import RTree
from repro.index.soa import min_dist_to_boxes, rep_to_samples_distances
from repro.metrics.counters import MetricsCollector
from repro.metrics.timer import Timer
from repro.storage.object_store import ObjectStore


def query_filter_thresholds(
    prepared: Sequence[PreparedQuery],
    box_lo: np.ndarray,
    box_hi: np.ndarray,
) -> np.ndarray:
    """Per-(query, row) disqualification thresholds for the all-pairs filter.

    Row ``(q, A)`` is ``MinDist(M_A(alpha)*, M_Q(alpha))`` — the value
    ``A``'s k-th ``MaxDist(M_A*, M_B*)`` is compared against, for every row
    of the whole (all partitions') box set.  It is also ``L(A, Q)``, the
    verification's lower bound.
    """
    return min_dist_to_boxes(
        np.stack([p.query_mbr.lower for p in prepared]),
        np.stack([p.query_mbr.upper for p in prepared]),
        box_lo,
        box_hi,
    )


def count_test(
    lower: np.ndarray,
    upper: np.ndarray,
    near_lower: np.ndarray,
    near_upper: np.ndarray,
    k: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Which ``(query, candidate)`` pairs the bounds decide.

    ``lower`` / ``upper``: ``(P,)`` bounds ``L(A, Q)`` / ``U(A, Q)`` of each
    pair; ``near_lower`` / ``near_upper``: ``(P, W)`` bounds ``L(A, B)`` /
    ``U(A, B)`` of the pair's candidate to each other object ``B`` its
    traversal found, padded with ``inf``.  ``Q`` is among ``A``'s k nearest
    exactly when fewer than ``k`` objects are *strictly* closer to ``A``
    than ``Q`` (``Q`` wins ties, as in :func:`repro.reference.reverse`).

    * ``B`` **may** be closer when ``L(A, B) <= U(A, Q)``: a closer ``B``
      has ``L(A, B) <= d(A, B) < d(A, Q) <= U(A, Q)``.  ``A`` is **in** when
      at most ``k - 1`` objects may be closer.  ``<=`` rather than ``<``
      costs nothing in exact arithmetic and keeps a closer ``B`` counted
      when its bound and the distance round to the same value.
    * ``B`` is **surely** closer when ``U(A, B) < L(A, Q)``: then ``d(A, B)
      <= U(A, B) < L(A, Q) <= d(A, Q)``.  ``A`` is **out** when at least
      ``k`` are.  This must be strict: at ``U(A, B) == L(A, Q)`` the two
      distances may tie, and a tie does not push ``Q`` out.
    * Every other pair is undecided.  A surely-closer ``B`` may also be
      closer, so the two tests never both hold, and a read only moves a
      bound towards the distance, so a decided pair stays decided.  Once
      ``d(A, Q)`` and every open ``B``'s ``d(A, B)`` are exact, an open
      ``B`` ties ``Q``, and the pair is in exactly when it is not out.

    Returns ``(in, out, sure, open)``: two ``(P,)`` masks, then which
    neighbours are surely closer and which may be closer but are not sure.
    """
    maybe = near_lower <= upper[:, None]
    sure = near_upper < lower[:, None]
    return maybe.sum(axis=1) <= k - 1, sure.sum(axis=1) >= k, sure, maybe & ~sure


@dataclass
class VerificationPlan:
    """One bucket's candidates and their bounds to the queries, read-free.

    Column ``c`` is candidate ``cand_ids[c]`` (``M_A(alpha)*`` box ``lo[c]``
    / ``hi[c]``, ``rep(A)`` ``reps[c]``).
    Row ``p`` of ``decisions`` is its query with candidate ``pair_cand[p]``,
    bounded by ``L(A, Q)`` / ``U(A, Q)`` until ``d(A, Q)`` is known.
    ``radius[c]`` is the largest ``U(A, Q)`` over the bucket: no object
    farther from ``A`` can be counted by any of its pairs.
    """

    cand_ids: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    reps: np.ndarray
    pair_cand: np.ndarray
    decisions: Decisions
    radius: np.ndarray


def plan_bucket_verification(
    prepared: Sequence[PreparedQuery],
    masks: np.ndarray,
    ids: np.ndarray,
    boxes: Tuple[np.ndarray, np.ndarray, np.ndarray],
    thresholds: np.ndarray,
    metrics: MetricsCollector,
) -> Optional[VerificationPlan]:
    """Every surviving ``(query, candidate)`` pair's bounds, without a read.

    ``masks`` are the filter's survivors over the global rows ``ids``, whose
    ``(lower, upper, rep)`` arrays are ``boxes``; ``thresholds`` are the
    filter's ``L(A, Q)``.  ``U(A, Q)`` is ``MaxDist(M_A*, M_Q)`` tightened by
    Lemma 1 of ``rep(A)`` against ``Q'_alpha``.  Returns ``None`` when no
    candidate survives anywhere in the bucket.
    """
    union = np.flatnonzero(masks.any(axis=0))
    if union.shape[0] == 0:
        return None
    box_lo, box_hi, reps = (axis[union] for axis in boxes)
    pair_query, pair_cand = np.nonzero(masks[:, union])
    q_lo = np.stack([p.query_mbr.lower for p in prepared])
    q_hi = np.stack([p.query_mbr.upper for p in prepared])
    needed, owner = np.unique(pair_query, return_inverse=True)
    upper = upper_bounds(
        q_lo[needed], q_hi[needed], box_lo[pair_cand, None], box_hi[pair_cand, None],
        reps[pair_cand, None], [prepared[qi].query_samples for qi in needed], owner,
    )[:, 0]
    metrics.increment(MetricsCollector.UPPER_BOUND_EVALUATIONS, pair_query.shape[0])
    cand_ids = ids[union]
    record = Decisions(
        len(prepared), pair_query, cand_ids[pair_cand],
        thresholds[pair_query, union[pair_cand]], upper,
    )
    radius = np.zeros(union.shape[0])
    np.maximum.at(radius, pair_cand, record.upper)
    return VerificationPlan(cand_ids, box_lo, box_hi, reps, pair_cand, record, radius)


def verify_candidates(
    plan: VerificationPlan,
    per_part: Sequence[List[np.ndarray]],
    prepared: Sequence[PreparedQuery],
    k: int,
    config: RuntimeConfig,
    fetch: Callable[[int], FuzzyObject],
    metrics: MetricsCollector,
    deadline=None,
) -> np.ndarray:
    """Decide every pair of ``plan``, reading only what a count leaves open.

    ``per_part[j]`` is part ``j``'s ``shared_traversal(..., boxes=True)``
    around the candidates' boxes; ``fetch(object_id)`` reads an object once
    per bucket.  After :func:`count_test` on the stored bounds, every
    undecided pair's candidate is read: its ``d(A, Q)`` is settled in the
    plan's record (:func:`~repro.core.executor.probe_rows`) and each
    ``U(A, B)`` tightened by Lemma 1 of ``rep(B)`` against ``A``'s sample.
    Then :func:`~repro.core.executor.two_passes` over the undecided pairs'
    neighbours: pass 1 evaluates, per pair, the ``k - #sure`` open
    neighbours with the smallest ``(L(A, B), id)``; the test runs again and
    pass 2 evaluates every open neighbour left.  ``d(A, B)`` does not depend
    on the query, so each pair of objects is evaluated once (the record's
    ``shared_evaluations``).  The deadline is checked before each pass that
    reads.  Returns, per pair, whether it is out.
    """
    alpha = prepared[0].alpha
    record = plan.decisions
    traversed = [np.concatenate(column) for column in zip(*per_part)]
    # A candidate is not its own neighbour; group the rest by candidate.
    keep = np.flatnonzero(traversed[1] != plan.cand_ids[traversed[0]])
    keep = keep[np.argsort(traversed[0][keep], kind="stable")]
    # L(A, B) is the traversal's own bound around the candidate's box.
    owner, ids, lo, hi, reps, near_lower = (column[keep] for column in traversed)
    near_upper = upper_bounds(
        plan.lo, plan.hi, lo[:, None], hi[:, None], reps[:, None],
        list(plan.reps[:, None]), owner,
    )
    metrics.increment(MetricsCollector.UPPER_BOUND_EVALUATIONS, owner.shape[0])
    # One inf / unread sentinel past the end pads every candidate's row.
    hits = owner.shape[0]
    near_lower = np.append(near_lower, np.inf)
    near_upper = np.append(near_upper[:, 0], np.inf)
    near_ids = np.append(ids, -1)
    evaluated = np.zeros(hits + 1, dtype=bool)
    counts = np.bincount(owner, minlength=plan.cand_ids.shape[0])
    starts = np.cumsum(counts) - counts
    width = np.arange(counts.max(initial=0))
    rows = np.where(width < counts[:, None], starts[:, None] + width, hits)[plan.pair_cand]

    def test():
        return count_test(record.lower, record.upper, near_lower[rows], near_upper[rows], k)

    member, out = test()[:2]
    todo = np.flatnonzero(~member & ~out)
    for c in np.unique(plan.pair_cand[todo]).tolist():
        own = slice(starts[c], starts[c] + counts[c])
        sample = fetch(int(plan.cand_ids[c])).sample_alpha_cut(alpha, config.upper_bound_samples)
        np.minimum(near_upper[own], rep_to_samples_distances(reps[own], sample), out=near_upper[own])
        metrics.increment(MetricsCollector.UPPER_BOUND_EVALUATIONS, int(counts[c]))
    probe_rows(fetch, prepared, record, todo, alpha)

    pair_distances: Dict[Tuple[int, int], float] = {}
    passes = iter((1, 2))

    def owed():
        member, out, sure, open_ = test()
        return sure, open_ & ~evaluated[rows] & (~member & ~out)[:, None], near_lower[rows]

    def evaluate(cells: np.ndarray) -> None:
        """Make ``d(A, B)`` exact at every hit position the cells name."""
        pass_number = next(passes)
        if not cells.any():
            return
        if deadline is not None:
            deadline.check(f"reverse pass {pass_number}")
        wanted = np.unique(rows[cells])
        for c in np.unique(owner[wanted]).tolist():
            mine = wanted[owner[wanted] == c].tolist()
            a = int(plan.cand_ids[c])
            keys = [(min(a, b), max(a, b)) for b in ids[mine].tolist()]
            missing = [(h, key) for h, key in zip(mine, keys) if key not in pair_distances]
            if missing:
                # Through the module, so a wrapper around the kernel sees it.
                found = executor._exact_min_distances(
                    fetch(a).alpha_cut(alpha),
                    [fetch(int(ids[h])).alpha_cut(alpha) for h, _ in missing],
                )
                pair_distances.update(zip((key for _, key in missing), found.tolist()))
            near_lower[mine] = near_upper[mine] = [pair_distances[key] for key in keys]
            evaluated[mine] = True

    two_passes(owed, near_ids[rows], k, evaluate)
    record.shared_evaluations = len(pair_distances)
    return test()[1]


def build_bucket_results(
    k: int,
    alpha: float,
    method: str,
    elapsed: float,
    masks: np.ndarray,
    record: Decisions,
    totals: Dict[str, int],
    parts: int,
    extra_common: Dict[str, float],
) -> List["ReverseKNNResult"]:
    """Per-query results from the bucket's decision record.

    Most of a bucket's work (filter table, shared traversal, store fetches)
    is paid once and cannot be attributed to one query, so each result
    counts as :meth:`~repro.core.executor.Decisions.bucket_stats` says: its
    own ``d(A, Q)`` evaluations, the bucket's ``totals`` (keyed by
    QueryStats field name) under ``extra["bucket_<name>"]`` and the ``parts``
    it ran over.
    """
    results: List[ReverseKNNResult] = []
    stats = record.bucket_stats(totals, parts, elapsed_seconds=elapsed)
    for qi, (members, one) in enumerate(zip(record.answers(), stats)):
        one.extra.update(extra_common, candidates=float(int(masks[qi].sum())))
        results.append(
            ReverseKNNResult(
                object_ids=sorted(object_id for object_id, _, _, _ in members),
                distances={object_id: d for object_id, d, _, _ in members},
                k=k,
                alpha=alpha,
                method=method,
                stats=one,
                upper_bounds={i: upper for i, d, _, upper in members if d is None},
            )
        )
    return results


def collect_memberships(record: Decisions, out: np.ndarray) -> None:
    """Every pair not out is a member; one its bounds put in without a
    read is ``CONFIRMED``."""
    record.member = ~out
    record.by[record.member & (record.by == 0)] = CONFIRMED


@dataclass
class ReverseKNNResult:
    """Answer of a reverse AKNN query.

    ``distances`` maps every member to ``d_alpha(A, Q)``, or to ``None`` when
    its bounds confirmed it without a read; ``upper_bounds`` then holds its
    ``U(A, Q) >= d_alpha(A, Q)``.
    """

    object_ids: List[int]
    distances: Dict[int, Optional[float]]
    k: int
    alpha: float
    method: str
    stats: QueryStats = field(default_factory=QueryStats)
    coverage: Optional["Coverage"] = None
    upper_bounds: Dict[int, float] = field(default_factory=dict)

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
    metrics: MetricsCollector,
    deadline=None,
) -> List[ReverseKNNResult]:
    """One reverse bucket (shared ``k`` / ``alpha``) over a partition set.

    ``parts`` each expose ``store`` / ``tree`` and ``fan_out(op, fn)``
    applies ``fn`` to every part, returning the values in ``parts`` order —
    a plain call for a single tree, the sharded database's strict fan-out
    (fault injection, retries, survivor reruns) for shards:

    1. the ids, ``M_A(alpha)*`` boxes and ``rep(A)`` of every part's rows
       come from ``index.bounds`` (the AKNN buckets' bound table);
    2. ``reverse_filter`` — each part decides the all-pairs
       disqualification test for *its* rows against the **whole** box set, so
       candidate sets are exactly as tight as one tree's: a row survives when
       its k-th MaxDist is at or above the query's MinDist.  ``index`` holds
       those k-th values per member set (the key covers every part's tree, so
       a write or a survivor rerun rebuilds) and builds a part's slice on a
       miss;
    3. every surviving pair's bounds to its query are planned without a read
       (:func:`plan_bucket_verification`), one row of the bucket's
       :class:`~repro.core.executor.Decisions` record per pair;
    4. ``reverse_verify`` — every part runs one :func:`shared_traversal`
       around the candidates' boxes at their radii ``max_q U(A, Q)``, which
       finds every object a count can need; then
       :func:`verify_candidates` reads, between fan-outs and through the
       part that holds each object, only what :func:`count_test` leaves
       undecided, and writes each pair's decision into the record.

    The bucket totals are assembled here, once: the filter's ``Q·n`` bound
    evaluations, ``n`` more per row whose k-th table this bucket built
    (``Q·n + n²`` on a cold table), plus every part's verification traversal
    and the verification's bounds; the distances are read from the record.
    The engine's ``reverse_queries`` / ``reverse_candidates`` counters
    (``metrics``) are counted last, after every fan-out, so a pass that a
    lost part makes the caller rerun counts its bucket once.
    """
    if k <= 0:
        raise InvalidQueryError(f"k must be positive, got {k}")
    if not 0.0 < alpha <= 1.0:
        raise InvalidQueryError(f"alpha must be in (0, 1], got {alpha}")
    queries = list(queries)
    if not queries:
        return []
    timer = Timer().start()
    bounded = MetricsCollector()
    accesses_before = sum(part.store.statistics.object_accesses for part in parts)
    if deadline is not None:
        deadline.check("reverse filter")
    prepared = [PreparedQuery(query, alpha, config) for query in queries]
    trees = [part.tree for part in parts]
    _, ids = index.over(trees)
    n = ids.shape[0]
    masks = np.zeros((len(queries), n), dtype=bool)
    plan = None
    if n:
        table = index.bounds(trees, alpha)
        thresholds = query_filter_thresholds(prepared, table.lo, table.hi)
        position = {id(part): member for member, part in enumerate(parts)}

        def filter_rows(part) -> Tuple[np.ndarray, int]:
            member = position[id(part)]
            start, stop = table.spans[member]
            kth, built = index.kth_table(trees, alpha, k, member)
            return kth >= thresholds[:, start:stop], (stop - start if built else 0)

        filtered = fan_out("reverse_filter", filter_rows)
        masks = np.concatenate([mask for mask, _ in filtered], axis=1)
        built_rows = sum(rows for _, rows in filtered)
        bounded.increment(
            MetricsCollector.LOWER_BOUND_EVALUATIONS,
            len(queries) * n + built_rows * n,
        )
        plan = plan_bucket_verification(
            prepared, masks, ids, (table.lo, table.hi, table.reps), thresholds, bounded
        )

    record = Decisions(len(queries))
    traversal = MetricsCollector()
    if plan is not None:
        if deadline is not None:
            deadline.check("reverse verification")

        def around_candidates(part) -> Tuple[List[np.ndarray], MetricsCollector]:
            counted = MetricsCollector()
            hits = shared_traversal(
                part.tree, alpha, True, plan.lo, plan.hi, plan.radius, counted,
                deadline, boxes=True,
            )
            return hits, counted

        verified = fan_out("reverse_verify", around_candidates)
        for _, counted in verified:
            traversal.merge(counted)
        record = plan.decisions
        out = verify_candidates(
            plan, [hits for hits, _ in verified], prepared, k, config,
            reader(parts), bounded, deadline,
        )
        collect_memberships(record, out)

    candidates = plan.cand_ids.shape[0] if plan else 0
    results = build_bucket_results(
        k,
        alpha,
        "batch",
        timer.stop(),
        masks,
        record,
        totals={
            "object_accesses": sum(
                part.store.statistics.object_accesses for part in parts
            )
            - accesses_before,
            "node_accesses": traversal.get(MetricsCollector.NODE_ACCESSES),
            "lower_bound_evaluations": bounded.get(
                MetricsCollector.LOWER_BOUND_EVALUATIONS
            )
            + traversal.get(MetricsCollector.LOWER_BOUND_EVALUATIONS),
            "upper_bound_evaluations": bounded.get(
                MetricsCollector.UPPER_BOUND_EVALUATIONS
            ),
        },
        parts=len(parts),
        extra_common={
            "batch_reverse_queries": float(len(queries)),
            "reverse_candidates": float(candidates),
        },
    )
    metrics.increment(MetricsCollector.REVERSE_QUERIES, len(queries))
    metrics.increment(MetricsCollector.REVERSE_CANDIDATES, candidates)
    return results


class ReverseAKNNSearcher:
    """Answers reverse AKNN queries over an object store + R-tree pair."""

    def __init__(
        self,
        store: ObjectStore,
        tree: RTree,
        config: Optional[RuntimeConfig] = None,
    ):
        self.store = store
        self.tree = tree
        self.config = (config or RuntimeConfig()).validate()
        # The box table and k-th MaxDist tables of this partition set of one.
        self._rep_index = RepresentativeIndex()

    def search_batch(
        self,
        queries: Sequence[FuzzyObject],
        k: int,
        alpha: float,
        deadline=None,
    ) -> List["ReverseKNNResult"]:
        """Answer a bucket of reverse AKNN queries sharing ``(k, alpha)``.

        :func:`reverse_bucket_pass` over this searcher as a partition set of
        one.  Returns one result per query.  ``deadline`` bounds the bucket.
        """
        return reverse_bucket_pass(
            self._rep_index, [self], lambda op, fn: [fn(self)],
            queries, k, alpha, self.config, MetricsCollector(), deadline=deadline,
        )
