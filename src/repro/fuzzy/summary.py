"""Compact per-object summaries stored in R-tree leaf entries.

The optimised AKNN search (Section 3.2–3.4) avoids probing a fuzzy object
from disk by keeping a small amount of extra information in its leaf entry:

* the MBR of the support (``M_A(0)``) — also used by the basic algorithm,
* the MBR of the kernel (``M_A(1)``),
* one optimal conservative line per dimension and side, which together allow
  the approximated alpha-cut MBR ``M_A(alpha)*`` of Equation (2) to be
  reconstructed for any threshold,
* a representative kernel point ``rep(A)`` used by the improved upper bound
  (Lemma 1).

:class:`FuzzyObjectSummary` bundles exactly this information.

Every writer (build, WAL replay, a live insert as a list of one) calls
:func:`build_summaries`.  Its lines are bit for bit those of the one-object
fit; its boxes are equal as floats (a zero may carry the other sign).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import EmptyAlphaCutError
from repro.fuzzy.boundary import ConservativeLine, fit_stack
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.geometry.mbr import MBR
from repro.predicates import at_least


@dataclass(frozen=True)
class FuzzyObjectSummary:
    """Everything the index keeps in memory about one fuzzy object."""

    object_id: int
    n_points: int
    support_mbr: MBR
    kernel_mbr: MBR
    upper_lines: Tuple[ConservativeLine, ...]
    lower_lines: Tuple[ConservativeLine, ...]
    representative: np.ndarray

    @property
    def dimensions(self) -> int:
        """Spatial dimensionality of the summarised object."""
        return self.support_mbr.dimensions

    # ------------------------------------------------------------------
    # Equation (2): the approximated alpha-cut MBR
    # ------------------------------------------------------------------
    def approx_alpha_mbr(self, alpha: float) -> MBR:
        """``M_A(alpha)*``: a conservative approximation of the alpha-cut MBR.

        Per dimension the upper bound is
        ``min(M_A(1)+ + line_up(alpha), M_A(0)+)`` and the lower bound is
        ``max(M_A(1)- - line_lo(alpha), M_A(0)-)``.  :func:`build_summary`
        lifts the lines until this float box encloses the exact
        ``M_A(alpha)`` in coordinates for every alpha, not only in deltas.
        """
        dims = self.dimensions
        upper = np.empty(dims)
        lower = np.empty(dims)
        for i in range(dims):
            upper[i] = min(
                self.kernel_mbr.upper[i] + self.upper_lines[i].delta_at(alpha),
                self.support_mbr.upper[i],
            )
            lower[i] = max(
                self.kernel_mbr.lower[i] - self.lower_lines[i].delta_at(alpha),
                self.support_mbr.lower[i],
            )
            # Numerical safety: the approximation must remain a valid box.
            if lower[i] > upper[i]:
                lower[i] = upper[i] = (lower[i] + upper[i]) / 2.0
        return MBR(lower, upper)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-Python representation used by the on-disk index catalogue."""
        return {
            "object_id": self.object_id,
            "n_points": self.n_points,
            "support_mbr": self.support_mbr.to_array().tolist(),
            "kernel_mbr": self.kernel_mbr.to_array().tolist(),
            "upper_lines": [line.to_pair() for line in self.upper_lines],
            "lower_lines": [line.to_pair() for line in self.lower_lines],
            "representative": self.representative.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FuzzyObjectSummary":
        """Inverse of :meth:`to_dict`."""
        return cls(
            object_id=int(payload["object_id"]),
            n_points=int(payload["n_points"]),
            support_mbr=MBR.from_array(payload["support_mbr"]),
            kernel_mbr=MBR.from_array(payload["kernel_mbr"]),
            upper_lines=tuple(
                ConservativeLine.from_pair(p) for p in payload["upper_lines"]
            ),
            lower_lines=tuple(
                ConservativeLine.from_pair(p) for p in payload["lower_lines"]
            ),
            representative=np.asarray(payload["representative"], dtype=float),
        )


#: Points one stacked fit takes at most (plus one object): the bound on a
#: build's temporaries.
_CHUNK_POINTS = 1 << 14


def stack_by_shape(
    objects: Sequence[FuzzyObject],
) -> Iterator[Tuple[List[int], np.ndarray, np.ndarray]]:
    """``(positions, points (R, n, d), memberships (R, n))`` for the objects
    of each shape, at most about :data:`_CHUNK_POINTS` points a stack."""
    shapes: Dict[Tuple[int, int], List[int]] = {}
    for position, obj in enumerate(objects):
        shapes.setdefault(obj.points.shape, []).append(position)
    for (size, _), positions in shapes.items():
        step = max(1, _CHUNK_POINTS // size)
        for part in (positions[at : at + step] for at in range(0, len(positions), step)):
            stacked = [(objects[i].points, objects[i].memberships) for i in part]
            yield part, np.array([p for p, _ in stacked]), np.array([m for _, m in stacked])


def build_summaries(
    objects: Iterable[FuzzyObject], rng: Optional[np.random.Generator] = None
) -> List[FuzzyObjectSummary]:
    """Leaf-entry summaries of ``objects``, in their order: a chunk of about
    :data:`_CHUNK_POINTS` points at a time, one :func:`fit_stack` per shape.
    With ``rng`` each ``rep(A)`` is drawn in input order, as
    :meth:`FuzzyObject.representative_point` draws it; without, it is the
    first kernel point."""
    summaries: List[FuzzyObjectSummary] = []
    chunk: List[FuzzyObject] = []
    points = 0
    for obj in objects:
        chunk.append(obj)
        points += obj.size
        if points >= _CHUNK_POINTS:
            summaries += _summarise(chunk, rng)
            chunk, points = [], 0
    return summaries + _summarise(chunk, rng)


def _summarise(
    objects: List[FuzzyObject], rng: Optional[np.random.Generator]
) -> List[FuzzyObjectSummary]:
    if any(obj.object_id is None for obj in objects):
        raise ValueError("cannot summarise a fuzzy object without an object_id")
    stacks = [(*stack, at_least(stack[2], 1.0)) for stack in stack_by_shape(objects)]
    if not all(kernel.any(axis=1).all() for *_, kernel in stacks):
        missing = objects[min(
            positions[row]
            for positions, *_, kernel in stacks
            for row in np.flatnonzero(~kernel.any(axis=1)).tolist()
        )].object_id
        raise EmptyAlphaCutError(f"object {missing} has no kernel; kernel MBR undefined")
    # rep(A): the i-th kernel point in point order, i drawn per object in
    # input order (the first without a generator).
    picks = None
    if rng is not None:
        sizes = np.zeros(len(objects), dtype=int)
        for positions, *_, kernel in stacks:
            sizes[positions] = kernel.sum(axis=1)
        picks = np.array([rng.integers(0, size) for size in sizes.tolist()])
    summaries: List[FuzzyObjectSummary] = [None] * len(objects)  # type: ignore[list-item]
    for positions, points, memberships, kernel in stacks:
        count, size, dims = points.shape
        support, kernel_box, slopes, intercepts = fit_stack(points, memberships)
        if picks is not None:
            kernel = kernel.cumsum(axis=1) > picks[positions, None]
        # Per object: support lower / upper, kernel lower / upper, rep(A).
        kept = np.empty((count, 5, dims))
        kept[:, 0], kept[:, 1] = -support[:, dims:], support[:, :dims]
        kept[:, 2], kept[:, 3] = -kernel_box[:, dims:], kernel_box[:, :dims]
        kept[:, 4] = points[np.arange(count), kernel.argmax(axis=1)]
        for position, own, line_slopes, line_intercepts in zip(
            positions, kept, slopes.tolist(), intercepts.tolist()
        ):
            own = own.copy()
            lines = [ConservativeLine(m, t) for m, t in zip(line_slopes, line_intercepts)]
            summaries[position] = FuzzyObjectSummary(
                int(objects[position].object_id), size, MBR._derived(own[0], own[1]),
                MBR._derived(own[2], own[3]), tuple(lines[:dims]), tuple(lines[dims:]), own[4],
            )
    return summaries


def build_summary(
    obj: FuzzyObject, rng: Optional[np.random.Generator] = None
) -> FuzzyObjectSummary:
    """The leaf-entry summary of ``obj``: :func:`build_summaries` of one."""
    return build_summaries([obj], rng)[0]
