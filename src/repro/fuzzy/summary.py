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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.fuzzy.boundary import ConservativeLine, ObjectLines, fit_object_lines
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.geometry.mbr import MBR


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


def build_summary(
    obj: FuzzyObject,
    rng: Optional[np.random.Generator] = None,
    lines: Optional[ObjectLines] = None,
) -> FuzzyObjectSummary:
    """Build the leaf-entry summary for ``obj``.

    Parameters
    ----------
    rng:
        Source of randomness for picking the representative kernel point; a
        deterministic choice (the first kernel point) is used when omitted.
    lines:
        Pre-fitted conservative lines, if the caller already computed them.
    """
    if obj.object_id is None:
        raise ValueError("cannot summarise a fuzzy object without an object_id")
    if lines is None:
        lines = fit_object_lines(obj)
    return FuzzyObjectSummary(
        object_id=int(obj.object_id),
        n_points=obj.size,
        support_mbr=obj.support_mbr(),
        kernel_mbr=obj.kernel_mbr(),
        upper_lines=lines.upper,
        lower_lines=lines.lower,
        representative=obj.representative_point(rng),
    )
