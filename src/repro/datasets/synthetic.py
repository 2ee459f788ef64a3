"""The synthetic dataset of Section 6.1.

Each object is a circle of radius 0.5 containing uniformly distributed
points whose membership values follow a two-dimensional Gaussian with its
mean at the circle centre and ``sigma_x = sigma_y = 0.5``.  Membership values
are normalised so the maximum becomes exactly 1 (guaranteeing a non-empty
kernel), and the objects are scattered uniformly over a 100 x 100 space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.config import DEFAULTS
from repro.fuzzy.fuzzy_object import FuzzyObject


@dataclass(frozen=True)
class SyntheticDatasetConfig:
    """Parameters of the synthetic generator.

    The defaults follow Table 2 / Section 6.1 of the paper except for the
    dataset size and points per object, which are scaled down so the default
    configuration runs comfortably on a laptop; ``benchmarks/scale.py`` sets
    them per figure.
    """

    n_objects: int = 1_000
    points_per_object: int = 100
    space_size: float = DEFAULTS.space_size
    object_radius: float = DEFAULTS.object_radius
    membership_sigma: float = DEFAULTS.membership_sigma
    dimensions: int = 2
    seed: int = 7

    def validated(self) -> "SyntheticDatasetConfig":
        """Check parameter sanity and return ``self``."""
        if self.n_objects <= 0:
            raise ValueError("n_objects must be positive")
        if self.points_per_object <= 0:
            raise ValueError("points_per_object must be positive")
        if self.space_size <= 0 or self.object_radius <= 0:
            raise ValueError("space_size and object_radius must be positive")
        if self.membership_sigma <= 0:
            raise ValueError("membership_sigma must be positive")
        if self.dimensions < 2:
            raise ValueError("dimensions must be at least 2")
        return self


def _uniform_points_in_ball(
    center: np.ndarray, radius: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly distributed points inside a d-dimensional ball."""
    dims = center.shape[0]
    directions = rng.normal(size=(count, dims))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    directions /= norms
    radii = radius * rng.random(count) ** (1.0 / dims)
    return center + directions * radii[:, None]


# Smallest membership value assigned after normalisation; Definition 1
# requires memberships to be strictly positive.
MIN_MEMBERSHIP = 1e-3


def normalize_memberships_to_unit(memberships: np.ndarray) -> np.ndarray:
    """Min-max normalise raw membership values "across 0 to 1" (Section 6.1).

    The point with the largest raw value receives membership exactly 1 (the
    kernel is non-empty) and the smallest receives :data:`MIN_MEMBERSHIP`
    (memberships must stay strictly positive per Definition 1).
    """
    values = np.asarray(memberships, dtype=float)
    low = float(values.min())
    high = float(values.max())
    if high <= low:
        return np.ones_like(values)
    scaled = (values - low) / (high - low)
    return np.clip(scaled, MIN_MEMBERSHIP, 1.0)


def generate_synthetic_object(
    center: np.ndarray,
    rng: np.random.Generator,
    points_per_object: int = 100,
    object_radius: float = DEFAULTS.object_radius,
    membership_sigma: float = DEFAULTS.membership_sigma,
    object_id: Optional[int] = None,
) -> FuzzyObject:
    """One synthetic fuzzy object: a circle with Gaussian membership decay."""
    center = np.asarray(center, dtype=float)
    points = _uniform_points_in_ball(center, object_radius, points_per_object, rng)
    squared = np.sum((points - center) ** 2, axis=1)
    memberships = np.exp(-squared / (2.0 * membership_sigma**2))
    memberships = normalize_memberships_to_unit(memberships)
    return FuzzyObject(points, memberships, object_id=object_id)


def generate_synthetic_dataset(
    config: Optional[SyntheticDatasetConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[FuzzyObject]:
    """The full synthetic dataset: ``n_objects`` circles in a square space."""
    config = (config or SyntheticDatasetConfig()).validated()
    if rng is None:
        rng = np.random.default_rng(config.seed)
    objects = []
    for object_id in range(config.n_objects):
        center = rng.random(config.dimensions) * config.space_size
        objects.append(
            generate_synthetic_object(
                center,
                rng,
                points_per_object=config.points_per_object,
                object_radius=config.object_radius,
                membership_sigma=config.membership_sigma,
                object_id=object_id,
            )
        )
    return objects
