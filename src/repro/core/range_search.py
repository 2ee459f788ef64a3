"""Range search at a fixed probability threshold.

A range query retrieves every object whose alpha-distance to the query is at
most a given radius.  It is the second building block of the RSS optimisation
for RKNN queries (Algorithm 4, line 3): after one AKNN query at the end of the
probability range fixes the radius, a single range search at the start of the
range collects the complete candidate set.

Range is answered a *bucket* at a time — queries sharing ``alpha``, each with
its own radius — by one pass over a *partition set* (:func:`range_pass`,
which both engines' range hooks call).  Per part that is one descent of the
tree for the whole bucket (:func:`~repro.core.executor.shared_traversal`,
the AKNN batch descent with the radii given instead of bootstrapped).  Every
hit is a row of the part's :class:`~repro.core.executor.Decisions` record.
With the improved bounds a hit whose upper bound (the lazy probe's
``MaxDist``, then Lemma 1) is within the radius is a match without a read,
and one :func:`~repro.core.executor.probe_rows` pass reads the undecided
rest, each object once however many queries want it; the merge joins the
parts' records and reads the matches and distance counts from them.  The
sweep's candidate collection (:func:`collect_over_parts`) is a bucket of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import RuntimeConfig
from repro.core.executor import (
    CONFIRMED,
    Decisions,
    probe_rows,
    shared_traversal,
    upper_bounds,
)
from repro.core.query import PreparedQuery
from repro.core.results import RangeSearchResult
from repro.exceptions import InvalidQueryError
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.index.rtree import RTree
from repro.metrics.counters import MetricsCollector
from repro.metrics.timer import Timer
from repro.predicates import confirms
from repro.storage.object_store import ObjectStore

@dataclass
class PartMatches:
    """One part's answer to a range bucket."""

    decisions: Decisions  # one row per traversal hit
    objects: Dict[int, FuzzyObject]  # every object read
    counts: Dict[str, int]  # the part's traversal and read totals, by QueryStats field name


def _confirm(
    prepared: Sequence[PreparedQuery], q_lo, q_hi, radii, owner, ids, lo, hi, reps, lower
) -> Decisions:
    """The hits' record, each hit's bounds in it (``lower`` the traversal's)
    and the matches those confirm marked: ``MaxDist`` for every hit, Lemma 1
    (sampling only the queries that need it) where ``MaxDist`` does not
    :func:`~repro.predicates.confirms` the radius."""
    upper = upper_bounds(q_lo, q_hi, lo[:, None], hi[:, None], owner=owner)[:, 0]
    tight = np.flatnonzero(~confirms(upper, radii[owner]))
    if tight.size:
        needed, inverse = np.unique(owner[tight], return_inverse=True)
        upper[tight] = upper_bounds(
            q_lo[needed], q_hi[needed], lo[tight, None], hi[tight, None],
            reps[tight, None], [prepared[qi].query_samples for qi in needed], inverse,
        )[:, 0]
    record = Decisions(len(prepared), owner, ids, lower, upper)
    record.member = confirms(upper, radii[owner])
    record.by[record.member] = CONFIRMED
    return record


def range_bucket(
    queries: Sequence[FuzzyObject],
    alpha: float,
    radii: Sequence[float],
    config: RuntimeConfig,
    improved: bool = True,
    deadline=None,
) -> Tuple[Callable, Callable]:
    """One range bucket (shared ``alpha``, one radius per query) over a
    partition set: ``(local, merge)``.

    ``local(part)`` answers every query against one part (``store`` /
    ``tree``) into a :class:`~repro.core.executor.Decisions` record: one
    :func:`shared_traversal` pruning at the radii (``improved`` selects
    ``d-_alpha`` over the support-MBR ``MinDist`` and confirms a hit from
    its bounds, :func:`_confirm`), then one :func:`probe_rows` pass over the
    rest; a probed hit is a match when ``d <= radius``.  ``merge(per_part)``
    returns one :class:`RangeSearchResult` per query from the parts'
    records: the union of their matches, sorted by ``(best known distance,
    id)``, a confirmed one as ``(id, None)`` with its ``U`` in
    ``upper_bounds``.

    Each result counts ``range_calls = 1`` and, as
    :meth:`~repro.core.executor.Decisions.bucket_stats` says, its own
    distances and the bucket's object, node, lower-bound and distance totals.
    A radius may be ``inf`` (the sweep's), never NaN or negative.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.shape != (len(queries),):
        raise InvalidQueryError(f"need one radius per query, got {radii.shape}")
    bad = radii[~(radii >= 0.0)]  # NaN fails the comparison too
    if bad.size:
        raise InvalidQueryError(f"radius must be non-negative, got {bad[0]}")
    prepared = [PreparedQuery(query, alpha, config) for query in queries]
    q_lo = np.stack([p.query_mbr.lower for p in prepared])
    q_hi = np.stack([p.query_mbr.upper for p in prepared])
    timer = Timer().start()

    def local(part) -> PartMatches:
        if deadline is not None:
            deadline.check("range")
        metrics = MetricsCollector()
        record = Decisions(len(prepared))
        objects: Dict[int, FuzzyObject] = {}
        before = part.store.statistics.object_accesses
        if len(part.tree):

            def fetch(object_id: int) -> FuzzyObject:
                obj = objects[object_id] = part.store.get(object_id)
                return obj

            hits = shared_traversal(
                part.tree, alpha, improved, q_lo, q_hi, radii, metrics, deadline,
                boxes=True,
            )
            record = _confirm(prepared, q_lo, q_hi, radii, *hits) if improved else (
                Decisions(len(prepared), *hits[:2])
            )
            undecided = np.flatnonzero(record.by == 0)
            probe_rows(fetch, prepared, record, undecided, alpha, deadline)
            record.member[undecided] = record.exact[undecided] <= radii[record.query[undecided]]
        counts = {
            "object_accesses": part.store.statistics.object_accesses - before,
            "node_accesses": metrics.get(MetricsCollector.NODE_ACCESSES),
            "lower_bound_evaluations": metrics.get(
                MetricsCollector.LOWER_BOUND_EVALUATIONS
            ),
        }
        return PartMatches(record, objects, counts)

    def merge(per_part: Sequence[PartMatches]) -> List[RangeSearchResult]:
        record = Decisions.concat([part.decisions for part in per_part])
        counted = {
            name: sum(part.counts[name] for part in per_part)
            for name in per_part[0].counts
        }
        stats = record.bucket_stats(
            counted, len(per_part), range_calls=1, elapsed_seconds=timer.stop()
        )
        return [
            RangeSearchResult(
                [(object_id, d) for object_id, d, _, _ in members], radius, alpha,
                one, upper_bounds={i: u for i, d, _, u in members if d is None},
            )
            for radius, members, one in zip(radii.tolist(), record.answers(), stats)
        ]

    return local, merge


def range_pass(
    parts: Sequence,
    fan_out: Callable[[str, Callable], List],
    queries: Sequence[FuzzyObject],
    alpha: float,
    radii: Sequence[float],
    config: RuntimeConfig,
    improved: bool = True,
    deadline=None,
) -> List[RangeSearchResult]:
    """One range bucket over a partition set: every part answers the whole
    bucket (fan-out op ``"range"``) and :func:`range_bucket`'s merge joins
    them.  ``parts`` is the set ``fan_out(op, fn)`` applies ``fn`` to, as
    for every family's pass."""
    local, merge = range_bucket(queries, alpha, radii, config, improved, deadline)
    return merge(fan_out("range", local))


class AlphaRangeSearcher:
    """Answers "all objects within ``radius`` at threshold ``alpha``" queries
    over one store and tree: a partition set of one."""

    def __init__(
        self,
        store: ObjectStore,
        tree: RTree,
        config: Optional[RuntimeConfig] = None,
    ):
        self.store = store
        self.tree = tree
        self.config = (config or RuntimeConfig()).validate()

    def search(
        self,
        query: FuzzyObject,
        alpha: float,
        radius: float,
        use_improved_bounds: bool = True,
    ) -> RangeSearchResult:
        """Return ``(object_id, distance)`` for every object within ``radius``."""
        (result,) = self.search_batch([query], alpha, [radius], improved=use_improved_bounds)
        return result

    def search_batch(
        self,
        queries: Sequence[FuzzyObject],
        alpha: float,
        radii: Sequence[float],
        improved: bool = True,
        deadline=None,
    ) -> List[RangeSearchResult]:
        """Answer a range bucket (:func:`range_pass`) over this searcher."""
        return range_pass(
            [self], lambda op, fn: [fn(self)], queries, alpha, radii, self.config,
            improved, deadline,
        )


def collect_over_parts(
    fan_out: Callable[[str, Callable], List],
    query: FuzzyObject,
    alpha: float,
    radius: float,
    config: RuntimeConfig,
    deadline=None,
) -> Tuple[RangeSearchResult, Dict[int, FuzzyObject]]:
    """The sweep's candidate collection: a range bucket of one over a
    partition set (``fan_out(op, fn)`` applies ``fn`` to every part).

    Also hands back every object it read, so the caller (the RSS
    refinement) computes their distance profiles without a second access:
    a match its bounds confirmed is read too, so every candidate with
    ``L <= radius`` is read once, as in a probe-all range.
    """
    local, merge = range_bucket([query], alpha, [radius], config, deadline=deadline)

    def collect(part) -> PartMatches:
        found = local(part)
        sure = found.decisions.object_id[found.decisions.by == CONFIRMED].tolist()
        found.objects.update((i, part.store.get(i)) for i in sure)
        found.counts["object_accesses"] += len(sure)
        return found

    per_part = fan_out("range", collect)
    (result,) = merge(per_part)
    objects: Dict[int, FuzzyObject] = {}
    for part in per_part:
        objects.update(part.objects)
    return result, objects
