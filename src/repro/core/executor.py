"""Vectorized batch AKNN execution.

An AKNN *bucket of many* (queries sharing ``k``, ``alpha`` and method) is
answered by :func:`aknn_bucket_pass` far faster than looping the
single-query searcher, as the paper's lazy probe (Sections 3.3-3.4) for the
whole bucket over a *partition set* (a database's one tree, or the sharded
database's live shards):

* **Radius from bounds** (:func:`bootstrap_radii`).  A KD-tree over every
  ``rep(A)`` nominates a handful of objects per query; the k-th smallest of
  their stored upper bounds is a valid pruning radius, found without a
  read.  :class:`RepresentativeIndex` keeps the KD-tree and the bound table
  (:class:`BoundTable`, from the leaves' struct-of-arrays views) until a
  write changes the set.
* **One shared traversal per part** (:func:`shared_traversal`, which range
  buckets descend too).  Every node is visited at most once; a node is
  expanded only for the queries whose radius it can still beat, and its
  entries' lower bounds (``d-_alpha``, or the support-MBR ``MinDist`` for
  ``basic``) against them are one ``(active, n)`` NumPy matrix.
* **One decision record** (:class:`Decisions`), a row per ``(query,
  candidate)`` pair, owns the lazy probe: a rank test (:func:`rank_test`)
  confirms every candidate the bounds place in the top-k and drops every
  one they place outside it, probe pass 1 (:func:`probe_rows`) makes each
  query's most promising undecided candidates exact, the rank test runs
  again and pass 2 reads what is still undecided.  Each distinct object is
  read once per bucket however many queries, in either pass, want it.  The
  answers, and every count of exact distances, are read from the record.

The contract is per method.  ``basic`` probes every candidate (its
traversal bound, the support-MBR ``MinDist``, is not in the bound table);
``lb`` knows no upper bound until it probes, so it confirms only probed
candidates; both report every neighbour's distance exact
(``probed=True``).  ``lb_lp`` / ``lb_lp_ub`` report a probed neighbour's
distance exact and a bound-confirmed one's as ``distance=None`` with its
bounds, as a bucket of one (:func:`~repro.core.aknn.searcher_over`) does;
README, "Lazy AKNN buckets", has what each reads.  Every method returns
the exact id set, ties at the k-th rank broken by object id, nearest (best
known distance, then id) first.

:class:`BatchQueryExecutor` is one part's traversal + exact refinement under
radii the caller supplies; no request reaches it.  Everything runs on the
calling thread, so the store and tree need no locking.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.spatial import cKDTree

from repro.config import RuntimeConfig
from repro.core.aknn import AKNN_METHODS, searcher_over
from repro.core.query import PreparedQuery
from repro.core.results import AKNNResult, BatchResult, Neighbor, QueryStats
from repro.exceptions import InvalidQueryError
from repro.fuzzy.fuzzy_object import CUT_CACHE_STATS, FuzzyObject
from repro.geometry.distance import pairwise_sq_blocks
from repro.index.rtree import RTree
from repro.index.soa import (
    kth_max_dists,
    max_dist_to_boxes,
    min_dist_to_boxes,
    rep_to_samples_distances,
)
from repro.metrics.counters import MetricsCollector
from repro.metrics.timer import Timer
from repro.predicates import confirms, may_reach
from repro.storage.object_store import ObjectStore

# Extra bootstrap nominees beyond k; a slightly larger pool gives a tighter
# starting radius for near-tie configurations at negligible cost.
_BOOTSTRAP_EXTRA = 4

# Node pops between deadline checks in the shared traversal.  Small enough
# that an expired batch stops within a few node expansions, large enough that
# the clock read never shows up in profiles.
_DEADLINE_CHECK_INTERVAL = 32

# (alpha, k) pairs whose reverse-filter table a partition set keeps; a bucket
# of one more pair drops the oldest.
_KTH_TABLE_PAIRS = 8

# Thresholds whose AKNN bound table a partition set keeps; a bucket at one
# more alpha drops the oldest.
_BOUND_TABLE_ALPHAS = 8


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
    for a single database, the live shards' trees for a sharded one — in
    leaf-view order, member after member.  ``bounds`` keeps, per
    ``alpha``, every object's stored bound inputs in the same row order (the
    one box source of every family), and ``kth_table`` the reverse filter's
    k-th ``MaxDist`` per row for a few ``(alpha, k)`` pairs.  The cache key
    is, per member, its identity, size and ``tree.mutations``, so a mutation
    (also an insert + delete pair that keeps the size) or a change of the
    covered set rebuilds all of them; anything else returns the same answer.
    """

    def __init__(self) -> None:
        # (key, the trees — kept alive so their ids stay unique, the answer,
        # every row's rep(A), {alpha: bound table}); one tuple swapped in
        # whole, so concurrent batches never see a mix.
        self._cached: Optional[Tuple] = None
        # The same, with {(alpha, k): {member: its rows' k-th MaxDist}} as
        # the answer; a lost race between two builders only costs a rebuild.
        self._tables: Optional[Tuple] = None

    @staticmethod
    def _key(trees: Sequence[RTree]) -> Tuple:
        return tuple((id(tree), len(tree), tree.mutations) for tree in trees)

    def _covered(self, trees: Sequence[RTree]) -> Tuple:
        key = self._key(trees)
        cached = self._cached
        if cached is not None and cached[0] == key:
            return cached
        leaves = [soa for tree in trees for soa in tree.leaf_views()]
        reps = np.concatenate([soa.reps for soa in leaves]) if leaves else None
        answer = (
            cKDTree(reps) if reps is not None else None,
            np.concatenate([np.empty(0, dtype=np.int64)] + [soa.object_ids for soa in leaves]),
        )
        self._cached = cached = (key, tuple(trees), answer, reps, {})
        return cached

    def over(self, trees: Sequence[RTree]) -> Tuple[Optional[cKDTree], np.ndarray]:
        """``(KD-tree, aligned object ids)``."""
        return self._covered(trees)[2]

    def bounds(self, trees: Sequence[RTree], alpha: float) -> "BoundTable":
        """Every object's bound inputs at ``alpha``, in ``over`` row order.

        The ``M_A(alpha)*`` boxes are each tree's
        :meth:`~repro.index.rtree.RTree.leaf_alpha_bounds`, member after
        member; kept under the KD-tree's key for at most
        ``_BOUND_TABLE_ALPHAS`` thresholds, oldest out first.
        """
        cached = self._covered(trees)
        table = cached[4].get(float(alpha))
        if table is None:
            boxes = [tree.leaf_alpha_bounds(alpha) for tree in trees]
            stops = np.cumsum([ids.shape[0] for ids, _, _ in boxes]).tolist()
            # An empty tree exports (0, 0)-shaped boxes, which cannot be concatenated.
            filled = [box for box in boxes if box[0].shape[0]]
            table = BoundTable(
                cached[2][1],
                np.concatenate([lower for _, lower, _ in filled]),
                np.concatenate([upper for _, _, upper in filled]),
                cached[3],
                list(zip([0] + stops[:-1], stops)),
            )
            tables = {**cached[4], float(alpha): table}
            if len(tables) > _BOUND_TABLE_ALPHAS:
                del tables[next(iter(tables))]
            # Only onto the version it was built for: a newer one swapped in
            # meanwhile keeps its KD-tree.
            if self._cached is cached:
                self._cached = cached[:4] + (tables,)
        return table

    def kth_table(
        self, trees: Sequence[RTree], alpha: float, k: int, member: int
    ) -> Tuple[np.ndarray, bool]:
        """Member ``member``'s rows' k-th ``MaxDist`` to every box of
        :meth:`bounds`, and whether it was built.

        A hit is returned as stored; a miss builds the slice with
        :func:`~repro.index.soa.kth_max_dists`.  At most
        ``_KTH_TABLE_PAIRS`` ``(alpha, k)`` pairs are kept, oldest out first.
        """
        key = self._key(trees)
        cached = self._tables
        if cached is None or cached[0] != key:
            cached = (key, tuple(trees), {})
        pair = (float(alpha), int(k))
        kth = cached[2].get(pair, {}).get(member)
        if kth is not None:
            return kth, False
        table = self.bounds(trees, alpha)
        start, stop = table.spans[member]
        kth = kth_max_dists(
            table.lo[start:stop], table.hi[start:stop], table.lo, table.hi, k,
            self_index=np.arange(start, stop),
        )
        tables = dict(cached[2])
        tables[pair] = {**tables.get(pair, {}), member: kth}
        if len(tables) > _KTH_TABLE_PAIRS:
            del tables[next(iter(tables))]
        self._tables = (key, cached[1], tables)
        return kth, True


class BoundTable:
    """A partition-set version's stored bound inputs at one ``alpha``: every
    object's ``M_A(alpha)*`` box and ``rep(A)``, in ``over`` row order, and
    each member's ``(start, stop)`` rows."""

    __slots__ = ("lo", "hi", "reps", "spans", "_ids", "_order")

    def __init__(self, object_ids, lo, hi, reps, spans) -> None:
        self.lo, self.hi, self.reps, self.spans = lo, hi, reps, spans
        self._order = np.argsort(object_ids, kind="stable")
        self._ids = object_ids[self._order]

    def rows(self, object_ids: np.ndarray) -> np.ndarray:
        """The row of each (indexed) object id."""
        return self._order[np.searchsorted(self._ids, object_ids)]

    def bounds(
        self, prepared: Sequence[PreparedQuery], rows: np.ndarray, lemma1: bool = True,
        lower: bool = True,
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """``(Q, C)`` lower and upper bounds of query ``q`` against ``rows[q]``.

        ``d-_alpha`` against ``M_A(alpha)*`` (``None`` unless ``lower``) and
        :func:`upper_bounds`, with Lemma 1 when ``lemma1``; element for
        element the single-query search's values.
        """
        q_lo = np.stack([p.query_mbr.lower for p in prepared])
        q_hi = np.stack([p.query_mbr.upper for p in prepared])
        lo, hi = self.lo[rows], self.hi[rows]
        samples = [p.query_samples for p in prepared] if lemma1 else None
        upper = upper_bounds(q_lo, q_hi, lo, hi, self.reps[rows], samples)
        return (min_dist_to_boxes(q_lo, q_hi, lo, hi) if lower else None), upper


def upper_bounds(
    q_lo: np.ndarray, q_hi: np.ndarray, lo: np.ndarray, hi: np.ndarray,
    reps: Optional[np.ndarray] = None, samples: Optional[List[np.ndarray]] = None,
    owner: Union[slice, np.ndarray] = slice(None),
) -> np.ndarray:
    """``(B, n)`` upper bounds of query ``owner[b]`` against its own ``n`` objects.

    ``MaxDist`` from the query boxes (rows of ``q_lo`` / ``q_hi``) to the
    ``(B, n, d)`` ``M_A(alpha)*`` boxes, tightened by Lemma 1 (``min_{s in
    Q'} ||rep(A) - s||``) when the queries' ``samples`` are given: one
    paired call, a short sample set padded with copies of its first point
    (which leave each minimum as it is).
    """
    upper = max_dist_to_boxes(q_lo[owner], q_hi[owner], lo, hi)
    if samples is not None:
        padded = np.empty((len(samples), max(map(len, samples)), samples[0].shape[1]))
        for row, points in zip(padded, samples):
            row[: len(points)], row[len(points):] = points, points[0]
        np.minimum(upper, rep_to_samples_distances(reps, padded[owner]), out=upper)
    return upper


def bootstrap_radii(
    index: RepresentativeIndex,
    parts: Sequence,
    prepared: Sequence[PreparedQuery],
    k: int,
    alpha: float,
    metrics: MetricsCollector,
) -> np.ndarray:
    """A valid per-query pruning radius over a partition set, read from bounds alone.

    ``parts`` each expose ``tree``.  For each query the KD-tree over every
    part's ``rep(A)`` points nominates the objects whose representatives
    are closest to the centre of the query alpha-cut MBR; each nominee's
    stored upper bound (:meth:`BoundTable.bounds`) is at least its
    exact distance, so the k-th smallest is a valid upper bound on the true
    k-th neighbour distance over all parts (where the nominations land only
    affects how tight the radius is, never correctness).  No object is
    read.  Fewer than ``k`` indexed objects leave the radii at ``inf``.  The
    radii hold only against the snapshot their bounds were taken from.
    """
    tau = np.full(len(prepared), np.inf)
    trees = [part.tree for part in parts]
    kdtree, object_ids = index.over(trees)
    if object_ids.shape[0] < k:
        return tau
    kk = min(k + _BOOTSTRAP_EXTRA, object_ids.shape[0])
    centers = np.stack(
        [(p.query_mbr.lower + p.query_mbr.upper) / 2.0 for p in prepared]
    )
    _, rows = kdtree.query(centers, k=kk)
    rows = rows.reshape(len(prepared), kk)
    metrics.increment(MetricsCollector.UPPER_BOUND_EVALUATIONS, rows.size)
    _, upper = index.bounds(trees, alpha).bounds(prepared, rows, lower=False)
    return np.partition(upper, k - 1, axis=1)[:, k - 1]


# What decided a row of a :class:`Decisions` record; 0 while it is undecided,
# and for a row its bounds dropped.
CONFIRMED, EVALUATED, MEMO = 1, 2, 3


class Decisions:
    """One bucket pass's decisions: a struct of arrays, one row per
    ``(query, object)`` pair the pass bounded.

    ``query`` / ``object_id`` name the pair; ``lower`` / ``upper`` are its
    bounds, NaN where the pass computed none; ``exact`` is its distance, NaN
    until known, when both bounds become it too (a sweep's row keeps its
    distances at the range's two ends as ``lower`` / ``upper``).  ``by``
    says what decided the row: ``CONFIRMED`` (its bounds, without a read),
    ``EVALUATED`` (an exact distance this bucket paid for) or ``MEMO`` (one
    the caller already held: :meth:`BatchQueryExecutor.aknn_batch`'s
    ``initial_exact``).  ``member`` marks the rows in their query's answer.  Every
    family's results, and every count of exact distances they report, are
    read from here; ``shared_evaluations`` are the distances the bucket paid
    that no row holds (a reverse bucket's candidate-to-neighbour ones).
    """

    __slots__ = (
        "n_queries", "query", "object_id", "lower", "upper", "exact", "by", "member",
        "shared_evaluations",
    )

    def __init__(self, n_queries: int, query=(), object_id=(), lower=None, upper=None):
        self.n_queries = n_queries
        self.query = np.asarray(query, dtype=np.intp)
        self.object_id = np.asarray(object_id, dtype=np.int64)
        n = self.query.shape[0]
        self.lower = np.full(n, np.nan) if lower is None else lower
        self.upper = np.full(n, np.nan) if upper is None else upper
        self.exact = np.full(n, np.nan)
        self.by = np.zeros(n, dtype=np.int8)
        self.member = np.zeros(n, dtype=bool)
        self.shared_evaluations = 0

    @classmethod
    def concat(cls, records: Sequence["Decisions"]) -> "Decisions":
        """The rows of ``records`` (parts of one bucket), one after another."""
        joined = cls(records[0].n_queries)
        for name in ("query", "object_id", "lower", "upper", "exact", "by", "member"):
            setattr(joined, name, np.concatenate([getattr(r, name) for r in records]))
        joined.shared_evaluations = sum(r.shared_evaluations for r in records)
        return joined

    def settle(self, rows, exact, by: int = EVALUATED, upper=None) -> None:
        """``rows`` are known: their distance is ``exact`` (both bounds too,
        or ``upper`` above), found as ``by`` says."""
        self.exact[rows] = self.lower[rows] = exact
        self.upper[rows] = exact if upper is None else upper
        self.by[rows] = by

    def evaluations(self) -> np.ndarray:
        """Per query, the exact distances this bucket paid for."""
        return np.bincount(self.query[self.by == EVALUATED], minlength=self.n_queries)

    def total_evaluations(self) -> int:
        """Every exact distance this bucket paid for."""
        return int(np.count_nonzero(self.by == EVALUATED)) + self.shared_evaluations

    def bucket_stats(
        self, totals: Dict[str, int], parts: int, **common
    ) -> List[QueryStats]:
        """Per query, its :class:`QueryStats` under the one rule every
        bucket reports its costs by.

        ``totals`` are the bucket's shared costs by ``QueryStats`` field
        name; the record adds every distance it paid for.  Every query
        reports the totals under ``extra["bucket_<name>"]``, and the number
        of parts the pass ran over under ``extra["shard_fanouts"]`` (1.0 on
        one tree).  In its scalars, the query of a bucket of one owns every
        total, and a query of a bucket of many only the distances its own
        rows paid for.  ``common`` are the scalars every query carries
        (``aknn_calls``, ``elapsed_seconds``, ...).
        """
        totals = {**totals, "distance_evaluations": self.total_evaluations()}
        shared = {f"bucket_{name}": float(value) for name, value in totals.items()}
        shared["shard_fanouts"] = float(parts)
        return [
            QueryStats(
                extra=dict(shared), **common,
                **(totals if self.n_queries == 1 else {"distance_evaluations": evaluations}),
            )
            for evaluations in self.evaluations().tolist()
        ]

    def grid(self, column: np.ndarray, fill=np.inf) -> np.ndarray:
        """``column`` as a ``(queries, widest row)`` matrix, padded with
        ``fill``; the rows must be grouped by query."""
        sizes = np.bincount(self.query, minlength=self.n_queries)
        valid = np.arange(sizes.max(initial=0)) < sizes[:, None]
        cells = np.full(valid.shape, fill, dtype=column.dtype)
        cells[valid] = column
        return cells

    def bound(
        self, table: "BoundTable", prepared: Sequence[PreparedQuery], method: str,
        lower: bool = True,
    ) -> None:
        """``lower`` (unless the record keeps its own) / ``upper`` from
        ``table``'s stored bounds (rows grouped by query), as AKNN ``method``
        reads them: ``lb_lp_ub`` tightens U by Lemma 1, ``lb_lp`` keeps
        ``MaxDist``, ``lb`` knows no U until a read."""
        valid = self.grid(np.ones(self.query.shape, dtype=bool), False)
        rows = self.grid(table.rows(self.object_id), 0)  # padding reads row 0
        low, upper = table.bounds(prepared, rows, method == "lb_lp_ub", lower)
        self.lower, self.upper = (low[valid] if lower else self.lower), upper[valid]
        if method == "lb":
            self.upper[:] = np.inf

    def lazy_probe(
        self, k: int, tau: np.ndarray, read: Callable[[np.ndarray], None],
        deadline=None, stage: str = "", bounded: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Algorithm 2's lazy probe over this record (rows grouped by query).

        :func:`rank_test` on the bounds, pass 1 (:func:`two_passes`), the
        rank test again, pass 2; ``read(rows)`` settles the rows it is
        handed, each unread row once, and ``deadline`` is checked as
        ``stage`` between the passes.  Unless ``bounded``, every row is read
        in one pass and none confirmed.  Confirmed rows not read are marked
        ``CONFIRMED``.  Returns, per row, whether the second rank test
        confirmed it and whether it left it undecided.
        """
        rows = np.arange(self.query.shape[0])
        if not bounded or not rows.size:
            read(rows)
            return np.zeros(rows.shape, dtype=bool), np.ones(rows.shape, dtype=bool)
        valid = self.grid(np.ones(rows.shape, dtype=bool), False)

        def test():
            lower = self.grid(self.lower)
            return (*rank_test(lower, self.grid(self.upper), valid, k, tau), lower)

        def unread(cells: np.ndarray) -> None:
            read(rows[cells[valid] & (self.by == 0)])

        confirmed, probe = (
            cells[valid]
            for cells in two_passes(
                test, self.grid(self.object_id, 0), k, unread, deadline, stage
            )
        )
        self.by[confirmed & (self.by == 0)] = CONFIRMED
        return confirmed, probe

    def answers(self) -> List[List[Tuple[int, Optional[float], float, float]]]:
        """Per query, its members as ``(id, exact distance or None, lower,
        upper)``, nearest (best known distance, then id) first."""
        rows = np.flatnonzero(self.member)
        exact = self.exact[rows]
        best = np.where(np.isnan(exact), self.upper[rows], exact)
        rows = rows[np.lexsort((self.object_id[rows], best, self.query[rows]))]
        per_query: List[list] = [[] for _ in range(self.n_queries)]
        columns = (self.query, self.object_id, self.exact, self.lower, self.upper)
        for qi, object_id, d, lower, upper in zip(*(c[rows].tolist() for c in columns)):
            per_query[qi].append((object_id, None if d != d else d, lower, upper))
        return per_query


def two_passes(
    test: Callable[[], Tuple[np.ndarray, np.ndarray, np.ndarray]], ids: np.ndarray,
    k: int, read: Callable[[np.ndarray], None], deadline=None, stage: str = "",
) -> Tuple[np.ndarray, np.ndarray]:
    """The lazy probe's two passes over a ``(rows, width)`` grid of candidates.

    ``test()`` returns which cells the bounds decide, which still owe a read
    and the cells' lower bounds.  Pass 1 reads, per row, the ``k -
    decided`` owed cells with the smallest ``(lower, id)``
    (:func:`first_pass`), the most promising ones; ``deadline`` is checked
    (as ``stage``), the test runs again on what they made exact and pass 2
    reads what it still owes.  Returns the second test's decided and owed
    cells.
    """
    decided, owed, lower = test()
    read(first_pass(lower, ids, decided, owed, k))
    if deadline is not None:
        deadline.check(stage)
    decided, owed, _ = test()
    read(owed)
    return decided, owed


def reader(parts: Sequence) -> Callable[[int], FuzzyObject]:
    """A pass's ``fetch(object_id)``: each object read once, from the part
    whose store holds it (the last part's, which raises, when none does)."""
    objects: Dict[int, FuzzyObject] = {}

    def fetch(object_id: int) -> FuzzyObject:
        if object_id not in objects:
            for part in parts:
                if object_id in part.store:
                    break
            objects[object_id] = part.store.get(object_id)
        return objects[object_id]

    return fetch


def probe_rows(
    fetch: Callable[[int], FuzzyObject],
    prepared: Sequence[PreparedQuery],
    record: Decisions,
    rows: np.ndarray,
    alpha: float,
    deadline=None,
) -> None:
    """Settle ``record``'s ``rows`` with their exact alpha-distances.

    An object is read through ``fetch`` (once, ascending id order) only
    when one of ``rows`` still owes its distance; a row already known costs
    no access at all.
    """
    rows = rows[np.isnan(record.exact[rows])]
    cuts = {
        object_id: fetch(object_id).alpha_cut(alpha)
        for object_id in np.unique(record.object_id[rows]).tolist()
    }
    owners = record.query[rows]
    for qi in np.unique(owners).tolist():
        if deadline is not None:
            deadline.check("batch refinement")
        mine = rows[owners == qi]
        record.settle(mine, _exact_min_distances(
            prepared[qi].query_cut, [cuts[oid] for oid in record.object_id[mine].tolist()]
        ))


def shared_traversal(
    tree: RTree,
    alpha: float,
    improved: bool,
    q_lo: np.ndarray,
    q_hi: np.ndarray,
    tau: np.ndarray,
    metrics: MetricsCollector,
    deadline=None,
    boxes: bool = False,
) -> List[np.ndarray]:
    """One descent of ``tree`` for a whole bucket, gathering candidate ids per query.

    ``tau`` is each query's radius: an AKNN bucket's bootstrapped k-th
    distance, or a range bucket's own radii (:mod:`repro.core.range_search`),
    so both families share this one descent.  Every node is visited at most
    once; bounds are evaluated only for the queries still *active* at a node
    (their radius exceeds the node's ``MinDist``), as one ``(active, n)``
    matrix per node.  Returns, per query, the ids of every leaf entry whose
    lower bound survives the query's radius, in leaf-visit then entry order.
    With ``boxes``, the hits flat in that order instead, grouped by query:
    ``[query index, id, box lower, box upper, rep(A), lower bound]``, the
    box the traversal bounded (``M_A(alpha)*`` when ``improved``) and the
    ``MinDist`` to it that the prune test compared.
    """
    n_queries = q_lo.shape[0]
    # (query index, object id) of every surviving leaf entry, leaf by leaf
    # (seeded empty, so a traversal that reaches no leaf still concatenates).
    hit_queries = [np.empty(0, dtype=np.int64)]
    hit_ids = [np.empty(0, dtype=np.int64)]
    hit_boxes = [(np.empty((0, q_lo.shape[1])),) * 3 + (np.empty(0),)]
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
            rows, cols = np.nonzero(may_reach(lb, tau[active, None]))
            hit_queries.append(active[rows])
            hit_ids.append(soa.object_ids[cols])
            if boxes:
                hit_boxes.append((box_lo[cols], box_hi[cols], soa.reps[cols], lb[rows, cols]))
        else:
            child_dists = soa.min_dist(q_lo[active], q_hi[active])
            reachable = may_reach(child_dists, tau[active, None])
            keep = reachable.any(axis=0)
            for j, entry in enumerate(node.entries):
                if keep[j]:
                    stack.append((entry.child, active[reachable[:, j]]))
                else:
                    metrics.increment(MetricsCollector.NODES_PRUNED)
    # One stable sort groups the hits by query without reordering them.
    owners = np.concatenate(hit_queries)
    order = np.argsort(owners, kind="stable")
    if boxes:
        return [owners[order]] + [
            np.concatenate(column)[order] for column in (hit_ids, *zip(*hit_boxes))
        ]
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
    deadline=None,
) -> List[AKNNResult]:
    """One AKNN bucket (shared ``k`` / ``alpha``) over a partition set.

    The AKNN bucket of both engines: a database runs it over itself, a set
    of one, and the sharded database over its live shards.  ``parts`` each
    expose ``store`` / ``tree``; ``fan_out(op, fn)`` applies ``fn`` to every
    part (as for :func:`repro.core.reverse_nn.reverse_bucket_pass`).

    A bucket of one is one best-first search over every part's root
    (:func:`~repro.core.aknn.searcher_over`).  A bucket of many is the lazy
    probe of Algorithm 2 over the whole bucket: :func:`bootstrap_radii`
    fixes the radii from stored bounds, every part runs one
    :func:`shared_traversal` (fan-out op ``"aknn_batch"``), and the
    survivors' record runs :meth:`Decisions.lazy_probe` (``lb``'s upper
    bounds are ``inf`` until probed; ``basic`` probes every candidate),
    each object read at most once and the deadline checked between the
    passes.  The radii hold only against the snapshot they were taken from.
    The answer is the confirmed neighbours plus the best ``(exact, id)`` of
    the probed rest: probed neighbours are exact, bound-confirmed ones carry
    ``distance=None`` with their bounds, nearest (best known distance, then
    id) first.  Each result counts as :meth:`Decisions.bucket_stats` says:
    its own distances, and the bucket's reads, traversal and distances under
    ``extra["bucket_<name>"]``.  ``batch_queries`` is counted last, after
    every fan-out, so a pass that a lost part makes the caller rerun counts
    its bucket once.
    """
    if deadline is not None:
        deadline.check("aknn")
    if len(queries) == 1:
        return [searcher_over(fan_out, config).search(queries[0], k, alpha, method)]
    prepared = [PreparedQuery(q, alpha, config) for q in queries]
    q_lo = np.stack([p.query_mbr.lower for p in prepared])
    q_hi = np.stack([p.query_mbr.upper for p in prepared])
    accesses_before = sum(part.store.statistics.object_accesses for part in parts)
    tau = bootstrap_radii(index, parts, prepared, k, alpha, metrics)

    def traverse(part) -> Tuple[List[np.ndarray], MetricsCollector]:
        if deadline is not None:
            deadline.check("batch")
        counted = MetricsCollector()
        hits = shared_traversal(
            part.tree, alpha, method != "basic", q_lo, q_hi, tau, counted, deadline,
        )
        return hits, counted

    per_part = fan_out("aknn_batch", traverse)
    traversal = MetricsCollector()
    for _, counted in per_part:
        traversal.merge(counted)
    # Each query's survivors, part after part.
    hits = [np.concatenate(row) for row in zip(*(hits for hits, _ in per_part))]
    record = Decisions(
        len(queries), np.repeat(np.arange(len(queries)), [h.shape[0] for h in hits]),
        np.concatenate(hits),
    )
    trees = [part.tree for part in parts]
    fetch = reader(parts)
    bounded = method != "basic"
    if bounded and record.query.size:
        record.bound(index.bounds(trees, alpha), prepared, method)

    confirmed, _ = record.lazy_probe(
        k, tau, lambda rows: probe_rows(fetch, prepared, record, rows, alpha, deadline),
        deadline, "batch refinement", bounded,
    )
    # The confirmed, then the best (exact, id) of the probed rest; one the
    # second rank test dropped never makes the cut.
    rest = np.flatnonzero(~confirmed & ~np.isnan(record.exact))
    rest = rest[np.lexsort((record.object_id[rest], record.exact[rest], record.query[rest]))]
    owner = record.query[rest]
    place = np.arange(rest.size) - np.searchsorted(owner, owner)
    places = k - np.bincount(record.query[confirmed], minlength=len(queries))
    record.member[confirmed] = True
    record.member[rest[place < places[owner]]] = True
    accesses = sum(part.store.statistics.object_accesses for part in parts) - accesses_before
    results = aknn_results(record, k, alpha, method, record.bucket_stats({
        "object_accesses": accesses,
        "node_accesses": traversal.get(MetricsCollector.NODE_ACCESSES),
        "lower_bound_evaluations": traversal.get(MetricsCollector.LOWER_BOUND_EVALUATIONS),
    }, len(parts), aknn_calls=1))
    metrics.increment(MetricsCollector.BATCH_QUERIES, len(queries))
    return results


def aknn_results(
    record: Decisions, k: int, alpha: float, method: str, stats: Sequence[QueryStats]
) -> List[AKNNResult]:
    """One :class:`AKNNResult` per query of ``record``: its members as
    neighbours, ``stats`` its counts."""
    return [
        AKNNResult(
            [Neighbor(i, d, lower, upper, d is not None) for i, d, lower, upper in members],
            k, alpha, method, one,
        )
        for members, one in zip(record.answers(), stats)
    ]


def first_pass(
    lower: np.ndarray, ids: np.ndarray, confirmed: np.ndarray, probe: np.ndarray, k: int
) -> np.ndarray:
    """Pass 1's probes: per row, the ``k - confirmed`` candidates still to
    probe with the smallest ``(lower, id)``, the most promising ones."""
    order = np.lexsort((ids, np.where(probe, lower, np.inf)), axis=1)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(order.shape[1])[None, :], axis=1)
    return probe & (rank < (k - confirmed.sum(axis=1))[:, None])


def rank_test(
    lower: np.ndarray, upper: np.ndarray, valid: np.ndarray, k: int, tau: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Which candidates the bounds confirm, and which still need a probe.

    ``lower`` / ``upper``: ``(Q, C)`` bounds of each query's candidates, the
    columns past a row's ``valid`` ones padding; ``tau``: the radii the
    traversal pruned at.  ``c`` is confirmed when ``#{j != c : L_j <= U_c}
    <= k - 1`` and ``U_c <= tau``: an object ranked before ``c`` (ties by
    id) has ``L_j <= d_j <= d_c <= U_c``, so it is a candidate and counted.
    The count is ``<=``, not the single search's ``<``, because every
    confirmation happens at once: a strict count can confirm two exactly
    tied candidates and crowd out a closer object whose upper bound is
    loose.  An infinite ``U`` (nothing known yet) confirms nothing.  With
    ``need = k - confirmed`` places left, a remaining candidate whose ``L``
    exceeds the need-th smallest remaining ``U`` is dropped.
    """
    width = valid.shape[1]
    both = np.concatenate([np.where(valid, lower, np.inf), upper], axis=1)
    # A stable sort puts each lower bound before an equal upper bound, so
    # the running count of lower bounds at an upper bound is #{j : L_j <= U}.
    order = np.argsort(both, axis=1, kind="stable")
    seen = np.empty_like(order)
    np.put_along_axis(seen, order, np.cumsum(order < width, axis=1), axis=1)
    closer = seen[:, width:] - (lower <= upper)
    confirmed = valid & (closer <= k - 1) & confirms(upper, tau[:, None]) & np.isfinite(upper)
    need = k - confirmed.sum(axis=1)
    remaining = np.sort(np.where(valid & ~confirmed, upper, np.inf), axis=1)
    place = np.clip(need - 1, 0, width - 1)[:, None]
    cutoff = np.take_along_axis(remaining, place, axis=1)[:, 0]
    cutoff[need > width] = np.inf
    cutoff[need <= 0] = -np.inf
    return confirmed, valid & ~confirmed & (lower <= cutoff[:, None])


class BatchQueryExecutor:
    """One part's shared traversal of its R-tree under radii the caller
    supplies, then the exact refinement of every survivor."""

    def __init__(
        self,
        store: ObjectStore,
        tree: RTree,
        config: Optional[RuntimeConfig] = None,
    ):
        self.store = store
        self.tree = tree
        self.config = (config or RuntimeConfig()).validate()

    def aknn_batch(
        self,
        queries: Sequence[Union[FuzzyObject, PreparedQuery]],
        k: int,
        alpha: float,
        method: str = "lb_lp_ub",
        initial_tau: Optional[np.ndarray] = None,
        initial_exact: Optional[Sequence[Dict[int, float]]] = None,
        deadline=None,
    ) -> BatchResult:
        """Answer every query's AKNN at one shared ``k`` and ``alpha``.

        A query may arrive already prepared (a :class:`PreparedQuery` at this
        ``alpha``).  ``deadline`` (a :class:`~repro.service.policy.Deadline`)
        is checked between traversal chunks and refinement steps.  ``method``
        selects the lower bound driving the shared pruning (``"basic"``: the
        support-MBR ``MinDist``; every other variant ``d-_alpha``).

        ``initial_tau`` holds one pruning radius per query and is required
        for a non-empty batch: the executor never bootstraps a radius of its
        own.  The answers are complete only *up to the supplied radius*: a
        radius that upper-bounds the query's true k-th neighbour distance
        yields the exact top-k, a smaller one a truncated list, which is NOT
        a valid top-k answer on its own.  ``initial_exact`` optionally seeds
        each query's exact-distance memo (one dict per query); a distance it
        holds is not recomputed, nor counted.
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
        cuts_before = dict(CUT_CACHE_STATS)
        timer = Timer().start()
        record = Decisions(len(queries))
        if queries and len(self.tree):
            if deadline is not None:
                deadline.check("batch")
            record = self._run_batch(
                queries, k, alpha, method, metrics, initial_tau, initial_exact,
                deadline,
            )
        elapsed = timer.stop()
        store = self.store.statistics
        stats = QueryStats(
            object_accesses=store.object_accesses - store_before.object_accesses,
            node_accesses=metrics.get(MetricsCollector.NODE_ACCESSES),
            distance_evaluations=record.total_evaluations(),
            lower_bound_evaluations=metrics.get(MetricsCollector.LOWER_BOUND_EVALUATIONS),
            aknn_calls=len(queries),
            elapsed_seconds=elapsed,
        )
        stats.extra.update(
            batch_queries=float(len(queries)),
            nodes_pruned=float(metrics.get(MetricsCollector.NODES_PRUNED)),
            # The (query, object) pairs this executor examined: its traversal
            # survivors, not whatever else the caller's memo happened to hold.
            batch_candidates=float(record.query.shape[0]),
            cache_hits=float(store.cache_hits - store_before.cache_hits),
            cut_cache_hits=float(CUT_CACHE_STATS["hits"] - cuts_before["hits"]),
            cut_cache_misses=float(CUT_CACHE_STATS["misses"] - cuts_before["misses"]),
        )
        if elapsed > 0.0:
            stats.extra["throughput_qps"] = len(queries) / elapsed
        per_query = [
            QueryStats(distance_evaluations=evaluations, aknn_calls=1)
            for evaluations in record.evaluations().tolist()
        ]
        return BatchResult(aknn_results(record, k, alpha, method, per_query), k, alpha, method, stats)

    def _run_batch(
        self,
        queries: List[Union[FuzzyObject, PreparedQuery]],
        k: int,
        alpha: float,
        method: str,
        metrics: MetricsCollector,
        initial_tau: Optional[np.ndarray],
        initial_exact: Optional[Sequence[Dict[int, float]]],
        deadline,
    ) -> Decisions:
        """The batch's record: every survivor exact, each query's nearest
        ``k`` within its radius its members."""
        prepared = [
            q if isinstance(q, PreparedQuery)
            else PreparedQuery(q, alpha, self.config)
            for q in queries
        ]
        if any(p.alpha != alpha for p in prepared):
            raise InvalidQueryError(f"a prepared query is not at alpha={alpha}")
        tau = np.asarray(initial_tau, dtype=float)
        if tau.shape != (len(prepared),):
            raise InvalidQueryError(
                f"initial_tau needs one radius per query ({len(prepared)}), "
                f"got shape {tau.shape}"
            )
        if initial_exact is not None and len(initial_exact) != len(prepared):
            raise InvalidQueryError(
                f"initial_exact needs one memo per query "
                f"({len(prepared)}), got {len(initial_exact)}"
            )
        candidates = shared_traversal(
            self.tree, alpha, method != "basic",
            np.stack([p.query_mbr.lower for p in prepared]),
            np.stack([p.query_mbr.upper for p in prepared]),
            tau, metrics, deadline=deadline,
        )
        if deadline is not None:
            deadline.check("batch traversal")
        sizes = [ids.shape[0] for ids in candidates]
        record = Decisions(
            len(prepared), np.repeat(np.arange(len(prepared)), sizes),
            np.concatenate(candidates),
        )
        if initial_exact is not None:
            for row, (qi, object_id) in enumerate(
                zip(record.query.tolist(), record.object_id.tolist())
            ):
                known = initial_exact[qi].get(object_id)
                if known is not None:
                    record.settle(row, known, MEMO)
        every = np.arange(record.query.shape[0])
        probe_rows(self.store.get, prepared, record, every, alpha, deadline)
        for rows, radius in zip(np.split(every, np.cumsum(sizes)[:-1]), tau):
            nearest = rows[np.lexsort((record.object_id[rows], record.exact[rows]))][:k]
            record.member[nearest[record.exact[nearest] <= radius]] = True
        return record
