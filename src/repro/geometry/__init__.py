"""Geometric primitives used by the fuzzy-object kNN algorithms.

This package is a small, self-contained computational-geometry substrate:

* :class:`~repro.geometry.mbr.MBR` — d-dimensional minimum bounding
  rectangles with the ``MinDist`` / ``MaxDist`` metrics of Equations (1) and
  (3) of the paper.
* :mod:`~repro.geometry.distance` — point-set distance kernels: the one
  blocked pairwise squared-distance kernel, and the closest pair between two
  point clouds as a brute-force argmin over it or a KD-tree query.
* :mod:`~repro.geometry.convexhull` — Andrew's monotone chain (the upper
  convex hull of sorted points) used when fitting the optimal conservative
  line of Definition 6.
"""

from repro.geometry.mbr import MBR, min_dist, max_dist
from repro.geometry.distance import (
    closest_pair_distance,
    closest_pair,
    pairwise_sq_blocks,
    set_to_set_distances,
)

__all__ = [
    "MBR",
    "min_dist",
    "max_dist",
    "closest_pair_distance",
    "closest_pair",
    "pairwise_sq_blocks",
    "set_to_set_distances",
]
