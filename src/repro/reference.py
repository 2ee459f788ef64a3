"""Brute-force answers to every query family: the specification the engine
is checked against.

Each function reads nothing but the ``points`` and ``memberships`` arrays of
the objects it is handed (ids set), in plain NumPy.  It imports no distance
kernel, alpha-cut, profile, bound, cache, index or store code
(``tests/test_layering.py`` fails if it does), so a test comparing the engine
with this module compares two independent computations, not one computation
with itself.

Everything follows from the pair matrix of two objects.  A pair ``(a, b)``
lies in both alpha-cuts iff its *level* ``min(mu_A(a), mu_B(b))`` is at least
``alpha`` (:func:`repro.predicates.at_least`, the test that defines a cut),
and ``d_alpha(A, B)`` is the smallest distance among those pairs.  Sorting the
pairs by level and keeping a running minimum of the distance from the top
level down gives the whole step function ``alpha -> d_alpha(A, B)`` at once.

Rankings break ties by object id.  The sweep (Definition 5) reports each
qualifying object's thresholds as merged closed intervals; the closed left
end of the range is evaluated as its own degenerate piece, and every later
piece ``(a, b]`` is reported as ``[a, b]``.  Reverse kNN is monochromatic:
``A`` qualifies iff fewer than ``k`` other objects are strictly closer to
``A`` than the query is.

Invalid arguments raise :class:`ValueError`; so does an empty alpha-cut.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.predicates import at_least

#: ``(object id, distance)`` pairs.
Ranked = List[Tuple[int, float]]
#: A distance profile: increasing levels and the distance on ``(previous, level]``.
Profile = Tuple[np.ndarray, np.ndarray]
#: Merged closed ``(start, end)`` intervals of qualifying thresholds, per object id.
Assignments = Dict[int, List[Tuple[float, float]]]


def _check(k: int = 1, alpha: float = 1.0) -> None:
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")


def _cut(obj: FuzzyObject, alpha: float) -> np.ndarray:
    cut = obj.points[at_least(obj.memberships, alpha)]
    if cut.shape[0] == 0:
        raise ValueError(f"object {obj.object_id} has an empty cut at alpha={alpha}")
    return cut


def _closest(cut: np.ndarray, others: Sequence[np.ndarray]) -> np.ndarray:
    """Smallest pair distance between ``cut`` and each of ``others``."""
    if not others:
        return np.empty(0)
    points = np.concatenate(others)
    starts = np.cumsum([0] + [other.shape[0] for other in others[:-1]])
    diff = cut[:, None, :] - points[None, :, :]
    squared = np.einsum("ijd,ijd->ij", diff, diff).min(axis=0)
    return np.sqrt(np.minimum.reduceat(squared, starts))


def _ranked(objects: Sequence[FuzzyObject], distances: np.ndarray) -> Ranked:
    pairs = [(int(obj.object_id), float(d)) for obj, d in zip(objects, distances)]
    return sorted(pairs, key=lambda pair: (pair[1], pair[0]))


def aknn(objects: Iterable[FuzzyObject], query: FuzzyObject, k: int, alpha: float) -> Ranked:
    """The ``k`` nearest objects to ``query`` at ``alpha``, nearest first."""
    _check(k, alpha)
    objects = list(objects)
    distances = _closest(_cut(query, alpha), [_cut(obj, alpha) for obj in objects])
    return _ranked(objects, distances)[:k]


def range_search(
    objects: Iterable[FuzzyObject], query: FuzzyObject, alpha: float, radius: float
) -> Ranked:
    """Every object within ``radius`` of ``query`` at ``alpha``, nearest first."""
    _check(alpha=alpha)
    if radius < 0.0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    objects = list(objects)
    distances = _closest(_cut(query, alpha), [_cut(obj, alpha) for obj in objects])
    return [pair for pair in _ranked(objects, distances) if pair[1] <= radius]


def reverse(
    objects: Iterable[FuzzyObject], query: FuzzyObject, k: int, alpha: float
) -> Ranked:
    """Every object with ``query`` among its own ``k`` nearest at ``alpha``,
    with its distance to the query, in id order."""
    _check(k, alpha)
    objects = list(objects)
    cuts = [_cut(obj, alpha) for obj in objects]
    to_query = _closest(_cut(query, alpha), cuts)
    answer = []
    for row, obj in enumerate(objects):
        to_others = _closest(cuts[row], cuts)
        to_others[row] = np.inf  # an object is not its own neighbour
        if np.count_nonzero(to_others < to_query[row]) < k:
            answer.append((int(obj.object_id), float(to_query[row])))
    return sorted(answer)


def profile(a: FuzzyObject, b: FuzzyObject) -> Profile:
    """``alpha -> d_alpha(A, B)`` from the full pair matrix.

    Returns the distinct pair levels in increasing order and, for each, the
    smallest distance among the pairs at that level or above: the distance
    for every ``alpha`` in ``(previous level, level]``.
    """
    diff = a.points[:, None, :] - b.points[None, :, :]
    distances = np.sqrt(np.einsum("ijd,ijd->ij", diff, diff)).ravel()
    levels = np.minimum.outer(a.memberships, b.memberships).ravel()
    order = np.argsort(-levels, kind="stable")
    levels, running = levels[order], np.minimum.accumulate(distances[order])
    last = np.append(levels[1:] != levels[:-1], True)  # last pair of each level
    return levels[last][::-1], running[last][::-1]


def piecewise(
    profiles: Dict[int, Profile], k: int, alpha_start: float, alpha_end: float
) -> Assignments:
    """Definition 5 over explicit profiles: the top ``k`` on every piece.

    The levels of all profiles cut ``[alpha_start, alpha_end]`` into pieces
    on which every distance is constant; each piece is evaluated at its right
    end, the closed left end of the range as a piece of its own.
    """
    _check(k, alpha_start)
    _check(k, alpha_end)
    if alpha_end < alpha_start:
        raise ValueError(f"alpha range start {alpha_start} exceeds end {alpha_end}")
    ids = sorted(profiles)
    if not ids:
        return {}
    inner = np.unique(np.concatenate([profiles[i][0] for i in ids]))
    inner = inner[(inner > alpha_start) & (inner < alpha_end)]
    boundaries = np.concatenate([[alpha_start], inner, [alpha_end]])
    values = np.empty((len(ids), boundaries.size))
    for row, object_id in enumerate(ids):
        levels, distances = profiles[object_id]
        at = np.count_nonzero(~at_least(levels, boundaries[:, None]), axis=1)  # levels rise
        values[row] = np.append(distances, np.inf)[at]  # above the top level: no cut
    # rows are in id order and the sort is stable: ties break by id
    top = np.argsort(values, axis=0, kind="stable")[:k]
    answer: Assignments = {}
    previous = float(alpha_start)
    for column, boundary in enumerate(boundaries.tolist()):
        for row in top[:, column].tolist():
            ranges = answer.setdefault(ids[row], [])
            if ranges and ranges[-1][1] == previous:
                ranges[-1] = (ranges[-1][0], boundary)
            else:
                ranges.append((previous, boundary))
        previous = boundary
    return answer


def sweep(
    objects: Iterable[FuzzyObject],
    query: FuzzyObject,
    k: int,
    alpha_range: Tuple[float, float],
) -> Assignments:
    """Every object in the top ``k`` somewhere in ``alpha_range``, with the
    thresholds at which it is (Definition 5)."""
    profiles = {int(obj.object_id): profile(obj, query) for obj in objects}
    return piecewise(profiles, k, float(alpha_range[0]), float(alpha_range[1]))
