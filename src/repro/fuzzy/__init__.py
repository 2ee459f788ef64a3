"""The fuzzy object model of the paper (Section 2).

Public surface:

* :class:`~repro.fuzzy.fuzzy_object.FuzzyObject` — a discrete fuzzy object
  (Definition 1) with support, kernel and alpha-cuts (Definition 2).
* :func:`~repro.fuzzy.alpha_distance.alpha_distance` — the alpha-distance of
  Definition 3 (closest pair between alpha-cuts).
* :class:`~repro.fuzzy.profile.DistanceProfile` — the piecewise-constant map
  from alpha to alpha-distance, including the critical probability set of
  Definition 7.
* :mod:`~repro.fuzzy.boundary` — the optimal conservative lines of
  Definition 6, fitted a stack of objects at a time, used for the improved
  lower bound.
* :class:`~repro.fuzzy.summary.FuzzyObjectSummary` — the compact per-object
  record stored inside R-tree leaves.
* :mod:`~repro.fuzzy.intervals` — closed-interval algebra for RKNN
  qualifying ranges.
"""

from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.fuzzy.alpha_distance import (
    alpha_distance,
    alpha_distance_points,
    distance_profile,
)
from repro.fuzzy.profile import DistanceProfile
from repro.fuzzy.boundary import ConservativeLine
from repro.fuzzy.summary import FuzzyObjectSummary, build_summary
from repro.fuzzy.intervals import Interval, IntervalSet

__all__ = [
    "FuzzyObject",
    "alpha_distance",
    "alpha_distance_points",
    "distance_profile",
    "DistanceProfile",
    "ConservativeLine",
    "FuzzyObjectSummary",
    "build_summary",
    "Interval",
    "IntervalSet",
]
