"""Range kNN (RKNN) query processing — Section 4 of the paper.

An RKNN query (Definition 5) asks for every object that is a k nearest
neighbour at *some* probability threshold inside ``[alpha_start, alpha_end]``,
together with its qualifying range.  Three method variants are provided,
matching Section 4 and the competitors of Figures 13 and 14 (the paper's
naive strawman, one AKNN query per membership level of the dataset, is not
one of them; :func:`repro.reference.sweep` is the exhaustive answer):

``basic``
    Algorithm 3: sweep the range with repeated AKNN queries, jumping from one
    critical probability (Definition 7) to the next using Lemma 2, so only a
    small fraction of the membership values is visited.

``rss``
    Algorithm 4 (Reducing Search Space, Lemma 3): one AKNN query at
    ``alpha_end`` fixes a radius; one range search at ``alpha_start`` collects
    the complete candidate set, every candidate read; the sweep of Algorithm
    3 then runs entirely in memory over the candidates.

``rss_icr``
    The served default.  alpha-cuts nest, so a lower bound at
    ``alpha_start`` and an upper bound at ``alpha_end`` hold across the
    range: a rank test on them confirms whole-range members and drops
    objects that cannot rank, with no read and no AKNN sub-query
    (:meth:`RKNNSearcher._search_decided`, the AKNN bucket's
    :meth:`~repro.core.executor.Decisions.lazy_probe` over the candidates'
    record).  Algorithm 5 (Improved
    Candidate Refinement, Lemma 4) sweeps the undecided rest, granting each
    neighbour a *safe range* while its distance stays below the (k+1)-th.

All variants return the same qualifying ranges as the brute-force
:func:`repro.reference.sweep`, which shares no code with them (asserted by
the test suite); they differ in the number of object accesses and refinement
steps.  A sweep computes each candidate's distance profile at most once
(a dict that lives for one request) and counts it as one distance
evaluation, on top of its sub-queries' own.  ``basic`` and ``rss`` keep the
paper's algorithms as they are: they are the competitors of Figure 13, whose
RSS is flat in the range length.

The sweep is written once, over a *partition set*: each AKNN sub-query is one
:class:`~repro.core.aknn.AKNNSearcher` search over every part (admitted by
:func:`~repro.core.aknn.searcher_over`), ``rss``'s candidate collection is
:func:`~repro.core.range_search.collect_over_parts`, ``rss_icr`` descends
every part with :func:`~repro.core.executor.shared_traversal` and bounds
from the set's :class:`~repro.core.executor.RepresentativeIndex`, and every
object read between fan-outs comes from the part that holds it.  A
:class:`~repro.core.database.FuzzyDatabase` is a set of one, fanned out by a
plain call, and the sharded database over its live shards through its strict
fan-out; both engines' sweep hooks call :func:`sweep_pass`.

Interval convention: the elementary piece ``(a, b]`` of the piecewise-constant
distance functions is reported as the closed interval ``[a, b]``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import RuntimeConfig
from repro.core.aknn import searcher_over
from repro.core.executor import (
    EVALUATED,
    Decisions,
    RepresentativeIndex,
    bootstrap_radii,
    reader,
    shared_traversal,
)
from repro.core.query import PreparedQuery
from repro.core.range_search import collect_over_parts
from repro.core.results import AKNNResult, QueryStats, RKNNResult, resolve_exact
from repro.exceptions import InvalidQueryError
from repro.fuzzy.alpha_distance import distance_profile
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.fuzzy.intervals import IntervalSet
from repro.fuzzy.profile import DistanceProfile
from repro.metrics.counters import MetricsCollector
from repro.metrics.timer import Timer
from repro.predicates import RKNN_EPSILON, at_least, first_above, first_at_least

RKNN_METHODS: Tuple[str, ...] = ("basic", "rss", "rss_icr")


def rank_objects(distances: Dict[int, float], k: int) -> Tuple[List[int], float]:
    """Deterministic top-k selection shared by the refinement routines.

    Returns ``(top_k_ids, k_plus_1_distance)`` where ties are broken by
    object id and the (k+1)-th distance is ``inf`` when fewer than ``k + 1``
    objects are available.
    """
    ordered = sorted(distances.items(), key=lambda item: (item[1], item[0]))
    top = [object_id for object_id, _ in ordered[:k]]
    k_plus_1 = ordered[k][1] if len(ordered) > k else float("inf")
    return top, k_plus_1


class RKNNSearcher:
    """Answers RKNN queries over a partition set.

    Parameters
    ----------
    parts:
        The partitions swept over; each exposes ``store`` (object reads and
        access counters) and ``tree``.
    fan_out:
        ``fan_out(op, fn)`` applies ``fn`` to every part and returns the
        values in ``parts`` order — a plain call for a set of one, the
        sharded database's strict fan-out for shards.
    config:
        Runtime knobs (the candidate collection's prepared query).
    index:
        The partition set's :class:`~repro.core.executor.RepresentativeIndex`
        (``rss_icr``'s radius and stored bounds).
    """

    def __init__(
        self,
        parts: Sequence,
        fan_out: Callable[[str, Callable], List],
        config: Optional[RuntimeConfig] = None,
        index: Optional[RepresentativeIndex] = None,
    ):
        self.parts = list(parts)
        self.fan_out = fan_out
        self.index = index if index is not None else RepresentativeIndex()
        self.config = (config or RuntimeConfig()).validate()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def search(
        self,
        query: FuzzyObject,
        k: int,
        alpha_range: Tuple[float, float],
        method: str = "rss_icr",
        aknn_method: str = "lb_lp_ub",
        rng: Optional[np.random.Generator] = None,
        deadline=None,
    ) -> RKNNResult:
        """Return every object qualifying somewhere in ``alpha_range``.

        ``deadline`` (a :class:`~repro.service.policy.Deadline`) is checked
        before every AKNN and range sub-query, and by ``rss_icr`` before its
        traversal and between its probe passes.
        """
        if k <= 0:
            raise InvalidQueryError(f"k must be positive, got {k}")
        if method not in RKNN_METHODS:
            raise InvalidQueryError(
                f"unknown RKNN method {method!r}; expected one of {RKNN_METHODS}"
            )
        alpha_start, alpha_end = self._validate_range(alpha_range)
        stats = QueryStats()
        accesses_before = self._object_accesses()
        timer = Timer().start()

        def aknn(alpha: float) -> AKNNResult:
            """One AKNN sub-query over the parts."""
            if deadline is not None:
                deadline.check("sweep aknn")
            result = searcher_over(self.fan_out, self.config).search(
                query, k, alpha, aknn_method, rng
            )
            self._merge_substats(stats, result.stats)
            return result

        if method == "basic":
            assignments = self._search_basic(aknn, query, alpha_start, alpha_end, stats)
        elif method == "rss":
            profiles = self._collect_candidates(
                aknn, query, alpha_start, alpha_end, rng, stats, deadline
            )
            assignments = refine_candidates_basic(profiles, k, alpha_start, alpha_end, stats)
        else:
            assignments = self._search_decided(
                query, k, alpha_start, alpha_end, aknn_method, rng, stats, deadline
            )

        stats.elapsed_seconds = timer.stop()
        stats.object_accesses = self._object_accesses() - accesses_before
        return RKNNResult(
            assignments=assignments,
            k=k,
            alpha_range=(alpha_start, alpha_end),
            method=method,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # Basic: Algorithm 3 (critical-probability sweep with repeated AKNN)
    # ------------------------------------------------------------------
    def _search_basic(
        self,
        aknn: Callable,
        query: FuzzyObject,
        alpha_start: float,
        alpha_end: float,
        stats: QueryStats,
    ) -> Dict[int, IntervalSet]:
        assignments: Dict[int, IntervalSet] = {}
        profiles: Dict[int, DistanceProfile] = {}
        fetch = reader(self.parts)
        piece_start = alpha_start
        evaluation_point = alpha_start

        while True:
            nn_ids = aknn(min(evaluation_point, 1.0)).object_ids
            if not nn_ids:
                break
            ends = []
            for object_id in nn_ids:
                profile, computed = self._profile_for(
                    object_id, query, alpha_end, profiles, fetch
                )
                stats.distance_evaluations += computed
                ends.append(profile.next_critical(min(evaluation_point, 1.0)))
            alpha_star = max(min(ends), piece_start)  # see refine_candidates_basic
            piece_end = min(alpha_star, alpha_end)
            for object_id in nn_ids:
                assignments.setdefault(object_id, IntervalSet()).add_range(
                    piece_start, piece_end
                )
            stats.refinement_steps += 1
            if at_least(alpha_star, alpha_end):
                break
            piece_start = alpha_star
            evaluation_point = alpha_star + RKNN_EPSILON
        return assignments

    @staticmethod
    def _profile_for(
        object_id: int,
        query: FuzzyObject,
        alpha_end: float,
        cache: Dict[int, DistanceProfile],
        fetch: Callable[[int], FuzzyObject],
    ) -> Tuple[DistanceProfile, bool]:
        """Distance profile of one object, computed into the request's
        ``cache`` (its object read through ``fetch``) at most once, and
        whether this call computed it."""
        computed = object_id not in cache
        if computed:
            cache[object_id] = distance_profile(fetch(object_id), query, max_level=alpha_end)
        return cache[object_id], computed

    # ------------------------------------------------------------------
    # RSS: Algorithm 4
    # ------------------------------------------------------------------
    def _collect_candidates(
        self,
        aknn: Callable,
        query: FuzzyObject,
        alpha_start: float,
        alpha_end: float,
        rng: Optional[np.random.Generator],
        stats: QueryStats,
        deadline,
    ) -> Dict[int, DistanceProfile]:
        """Lemma 3 pruning: one AKNN at the range end, one range search at the start."""
        # Exact k-th neighbour distance, probing lazily-confirmed neighbours.
        radius = max(
            resolve_exact(aknn(alpha_end), query, alpha_end, reader(self.parts)).values(),
            default=0.0,
        )

        if deadline is not None:
            deadline.check("sweep range")
        found, objects = collect_over_parts(
            self.fan_out, query, alpha_start, radius, self.config, rng, deadline
        )
        self._merge_substats(stats, found.stats)
        stats.extra["candidates"] = stats.extra.get("candidates", 0.0) + len(found)

        profiles: Dict[int, DistanceProfile] = {}
        for object_id, _ in found.matches:
            _, computed = self._profile_for(
                object_id, query, alpha_end, profiles, objects.__getitem__
            )
            stats.distance_evaluations += computed
        return profiles

    # ------------------------------------------------------------------
    # RSS-ICR: Algorithm 5 over what the bounds at the range's ends leave
    # ------------------------------------------------------------------
    def _search_decided(
        self,
        query: FuzzyObject,
        k: int,
        alpha_start: float,
        alpha_end: float,
        aknn_method: str,
        rng: Optional[np.random.Generator],
        stats: QueryStats,
        deadline,
    ) -> Dict[int, IntervalSet]:
        """Decide the sweep from bounds taken at its two ends; read only the rest.

        alpha-cuts nest, so for every alpha in the range ``L(A) =
        d-_{alpha_start}(A, Q) <= d_alpha(A, Q) <= U(A) = d+_{alpha_end}(A, Q)``.
        Three rules follow, each for the whole range at once:

        * **Radius.**  The k-th smallest ``U`` of the read-free bootstrap's
          nominees (:func:`~repro.core.executor.bootstrap_radii`) bounds the
          k-th distance at every alpha, so the traversal at ``alpha_start``
          (fan-out op ``"range"``) drops every object whose ``L`` exceeds it.
        * **Confirm.**  ``A`` ranks in the top k everywhere when ``#{B != A
          : L(B) <= U(A)} <= k - 1`` and ``U(A)`` is within the radius: a
          ``B`` ranked before ``A`` at some alpha has ``L(B) <= d_alpha(B)
          <= d_alpha(A) <= U(A)``.  The count is ``<=``, not ``<``, because
          ties go by id: a ``B`` with ``L(B) == U(A)`` may tie ``A`` and
          rank first.  At most k objects pass.
        * **Drop.**  With ``need = k - #confirmed`` places left, ``B`` whose
          ``L`` exceeds the need-th smallest ``U`` of the unconfirmed rest
          has ``need`` of them strictly closer everywhere.

        :func:`~repro.core.executor.rank_test` applies the last two, in the
        survivors' :class:`~repro.core.executor.Decisions` record
        (:meth:`~repro.core.executor.Decisions.lazy_probe`).  ``U`` is the
        AKNN bucket's per ``aknn_method``: ``MaxDist`` plus Lemma 1
        (``lb_lp_ub``), ``MaxDist`` (``lb_lp``), unknown until read
        (``lb``); ``basic`` reads every survivor.  Pass 1 reads the ``need``
        undecided objects of smallest ``(L, id)`` and sets ``L`` / ``U`` to
        their ``d_{alpha_start}`` / ``d_{alpha_end}``; after a second rank
        test pass 2 reads the undecided rest.  No object is read twice, and
        each read row is one distance evaluation (``EVALUATED``).  A
        confirmed object gets the whole range; Algorithm 5 sweeps the
        undecided ones for the ``need`` places.  The deadline is checked before the traversal and between
        the passes.
        """
        trees = [part.tree for part in self.parts]
        metrics = MetricsCollector()
        start = PreparedQuery(query, alpha_start, self.config, rng)
        end = PreparedQuery(query, alpha_end, self.config, rng)
        tau = bootstrap_radii(self.index, self.parts, [end], k, alpha_end, metrics)
        q_lo, q_hi = start.query_mbr.lower[None], start.query_mbr.upper[None]
        bounded = aknn_method != "basic"

        def traverse(part) -> List[np.ndarray]:
            if deadline is not None:
                deadline.check("sweep range")
            return shared_traversal(
                part.tree, alpha_start, bounded, q_lo, q_hi, tau, metrics, deadline,
                boxes=True,
            )

        columns = zip(*self.fan_out("range", traverse))
        owner, ids, _, _, _, lower = (np.concatenate(column) for column in columns)
        stats.range_calls += 1
        stats.extra["candidates"] = stats.extra.get("candidates", 0.0) + len(ids)
        record = Decisions(1, owner, ids)
        if bounded and len(ids):
            # U at alpha_end; L at alpha_start, the traversal's own bound.
            record.lower = lower
            record.bound(self.index.bounds(trees, alpha_end), [end], aknn_method, False)
            metrics.increment(MetricsCollector.UPPER_BOUND_EVALUATIONS, len(ids))
        profiles: Dict[int, DistanceProfile] = {}
        fetch = reader(self.parts)

        def read(rows: np.ndarray) -> None:
            """Each row's profile: its distances at the range's two ends."""
            for row in rows.tolist():
                object_id = int(ids[row])
                profile, _ = self._profile_for(
                    object_id, query, alpha_end, profiles, fetch
                )
                record.settle(
                    row, profile.value(alpha_start), EVALUATED,
                    upper=profile.value(alpha_end),
                )

        confirmed, probe = record.lazy_probe(
            k, tau, read, deadline, "sweep refinement", bounded
        )
        undecided = {i: profiles[i] for i in sorted(ids[probe].tolist())}
        sure = ids[confirmed].tolist()
        stats.node_accesses += metrics.get(MetricsCollector.NODE_ACCESSES)
        stats.lower_bound_evaluations += metrics.get(MetricsCollector.LOWER_BOUND_EVALUATIONS)
        stats.upper_bound_evaluations += metrics.get(MetricsCollector.UPPER_BOUND_EVALUATIONS)
        stats.distance_evaluations += record.total_evaluations()
        assignments = refine_candidates_icr(
            undecided, k - len(sure), alpha_start, alpha_end, stats
        )
        for object_id in sure:
            assignments.setdefault(object_id, IntervalSet()).add_range(
                alpha_start, alpha_end
            )
        return assignments

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _object_accesses(self) -> int:
        return sum(part.store.statistics.object_accesses for part in self.parts)

    @staticmethod
    def _merge_substats(stats: QueryStats, sub: QueryStats) -> None:
        """Accumulate a sub-query's counters, except object accesses.

        Object accesses are charged once for the whole RKNN call from the
        store's own counter, so they must not be double counted here.
        """
        stats.node_accesses += sub.node_accesses
        stats.distance_evaluations += sub.distance_evaluations
        stats.lower_bound_evaluations += sub.lower_bound_evaluations
        stats.upper_bound_evaluations += sub.upper_bound_evaluations
        stats.aknn_calls += sub.aknn_calls
        stats.range_calls += sub.range_calls

    @staticmethod
    def _validate_range(alpha_range: Tuple[float, float]) -> Tuple[float, float]:
        alpha_start, alpha_end = float(alpha_range[0]), float(alpha_range[1])
        if not 0.0 < alpha_start <= 1.0 or not 0.0 < alpha_end <= 1.0:
            raise InvalidQueryError(
                f"alpha range endpoints must be in (0, 1], got {alpha_range}"
            )
        if alpha_end < alpha_start:
            raise InvalidQueryError(
                f"alpha range start {alpha_start} exceeds end {alpha_end}"
            )
        return alpha_start, alpha_end


def sweep_pass(index, parts, fan_out, config, *args, **kwargs) -> RKNNResult:
    """One :meth:`RKNNSearcher.search` (``*args`` / ``**kwargs``) over a
    partition set that holds for this pass only (a sharded database's live
    shards, ``index`` their :class:`~repro.core.executor.RepresentativeIndex`),
    so the searcher is built per pass."""
    searcher = RKNNSearcher(parts, fan_out, config, index)
    return searcher.search(*args, **kwargs)


# ----------------------------------------------------------------------
# In-memory candidate refinement (shared by RSS and RSS-ICR)
# ----------------------------------------------------------------------
def refine_candidates_basic(
    profiles: Dict[int, DistanceProfile],
    k: int,
    alpha_start: float,
    alpha_end: float,
    stats: Optional[QueryStats] = None,
) -> Dict[int, IntervalSet]:
    """Algorithm 3's sweep evaluated entirely over in-memory candidates.

    At each step the current k nearest candidates are granted the interval up
    to the smallest critical probability among them (Lemma 2), and the sweep
    jumps to the next membership level beyond it.
    """
    assignments: Dict[int, IntervalSet] = {}
    levels = _combined_levels(profiles)
    piece_start = alpha_start
    evaluation_point = alpha_start

    while True:
        distances = {
            object_id: profile.value(min(evaluation_point, 1.0))
            for object_id, profile in profiles.items()
        }
        top, _ = rank_objects(distances, k)
        if not top:
            break
        ends = [
            profiles[object_id].next_critical(min(evaluation_point, 1.0))
            for object_id in top
        ]
        # A critical level may be the same level as piece_start, a hair below
        # it (at_least): the piece then ends where it starts.
        alpha_star = max(min(ends), piece_start)
        piece_end = min(alpha_star, alpha_end)
        for object_id in top:
            assignments.setdefault(object_id, IntervalSet()).add_range(
                piece_start, piece_end
            )
        if stats is not None:
            stats.refinement_steps += 1
        if at_least(alpha_star, alpha_end):
            break
        piece_start = alpha_star
        evaluation_point = _level_or_end(levels, first_above(levels, alpha_star), alpha_end)
    return assignments


def refine_candidates_icr(
    profiles: Dict[int, DistanceProfile],
    k: int,
    alpha_start: float,
    alpha_end: float,
    stats: Optional[QueryStats] = None,
) -> Dict[int, IntervalSet]:
    """Algorithm 5: improved candidate refinement using Lemma 4 safe ranges.

    Each confirmed neighbour ``A`` is granted an interval extending to the
    largest membership level at which its distance is still strictly below
    the (k+1)-th neighbour distance of the current step — usually much larger
    than the Lemma 2 step, so far fewer critical probabilities are visited.
    """
    assignments: Dict[int, IntervalSet] = {}
    levels = _combined_levels(profiles)
    piece_start = alpha_start
    evaluation_point = alpha_start

    while True:
        distances = {
            object_id: profile.value(min(evaluation_point, 1.0))
            for object_id, profile in profiles.items()
        }
        top, d_k_plus_1 = rank_objects(distances, k)
        if not top:
            break
        safe_ends = []
        for object_id in top:
            profile = profiles[object_id]
            if not math.isfinite(d_k_plus_1):
                # Fewer than k+1 candidates: everything stays a neighbour.
                beta = alpha_end
            else:
                beta = profile.max_level_with_distance_below(
                    d_k_plus_1, min(evaluation_point, 1.0)
                )
                if beta is None:
                    # Distance ties the (k+1)-th: only the current piece is
                    # certain, which is exactly what Lemma 2 already grants.
                    at = first_at_least(levels, evaluation_point)
                    beta = _level_or_end(levels, at, alpha_end)
            beta = min(beta, alpha_end)
            beta = max(beta, min(evaluation_point, alpha_end))
            safe_ends.append(beta)
            assignments.setdefault(object_id, IntervalSet()).add_range(piece_start, beta)
        if stats is not None:
            stats.refinement_steps += 1
        barrier = min(safe_ends)
        if at_least(barrier, alpha_end):
            break
        piece_start = barrier
        evaluation_point = _level_or_end(levels, first_above(levels, barrier), alpha_end)
    return assignments


def _combined_levels(profiles: Dict[int, DistanceProfile]) -> np.ndarray:
    """Sorted union of the membership levels of all candidate profiles."""
    if not profiles:
        return np.asarray([], dtype=float)
    return np.unique(np.concatenate([p.levels for p in profiles.values()]))


def _level_or_end(levels: np.ndarray, idx: int, alpha_end: float) -> float:
    """``levels[idx]`` clamped at the range end (the end if there is none):
    at :func:`first_above` a barrier, the next evaluation point; at
    :func:`first_at_least` a point, the end of its elementary piece."""
    return alpha_end if idx >= levels.size else min(float(levels[idx]), alpha_end)
