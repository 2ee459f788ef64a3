"""Dataset -> store -> index build pipeline.

``build_database`` turns a dataset specification (synthetic circles or
simulated cells, at a chosen scale) into a ready-to-query
:class:`~repro.core.database.FuzzyDatabase`; query objects come from
:func:`~repro.datasets.queries.generate_query_object`.
"""

from __future__ import annotations

import os
from typing import List, Optional

import numpy as np

from repro.config import RuntimeConfig
from repro.core.database import FuzzyDatabase
from repro.datasets.cells import CellDatasetConfig, generate_cell_dataset
from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset
from repro.fuzzy.fuzzy_object import FuzzyObject

DATASET_KINDS = ("synthetic", "cells")


def build_dataset(
    kind: str = "synthetic",
    n_objects: int = 1_000,
    points_per_object: int = 100,
    seed: int = 7,
    space_size: float = 100.0,
) -> List[FuzzyObject]:
    """Generate a dataset of the requested kind and scale."""
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}; expected one of {DATASET_KINDS}")
    if kind == "cells":
        config = CellDatasetConfig(
            n_objects=n_objects,
            points_per_object=points_per_object,
            seed=seed,
            space_size=space_size,
        )
        return generate_cell_dataset(config)
    config = SyntheticDatasetConfig(
        n_objects=n_objects,
        points_per_object=points_per_object,
        seed=seed,
        space_size=space_size,
    )
    return generate_synthetic_dataset(config)


def build_database(
    kind: str = "synthetic",
    n_objects: int = 1_000,
    points_per_object: int = 100,
    seed: int = 7,
    space_size: float = 100.0,
    path: Optional[os.PathLike | str] = None,
    config: Optional[RuntimeConfig] = None,
) -> FuzzyDatabase:
    """Generate a dataset and index it into a :class:`FuzzyDatabase`."""
    objects = build_dataset(
        kind=kind,
        n_objects=n_objects,
        points_per_object=points_per_object,
        seed=seed,
        space_size=space_size,
    )
    rng = np.random.default_rng(seed + 1)
    return FuzzyDatabase.build(objects, path=path, config=config, rng=rng)
