"""Dataset generators reproducing the paper's experimental setup (Section 6.1).

* :mod:`~repro.datasets.synthetic` — the synthetic dataset: circular objects
  of radius 0.5 with uniformly distributed points whose memberships follow a
  two-dimensional Gaussian centred at the circle centre.
* :mod:`~repro.datasets.cells` — a simulator standing in for the paper's real
  dataset (horizontal cells identified by probabilistic segmentation of
  microscope images): irregular blob-shaped supports with noisy, centre-peaked
  membership masks.
* :mod:`~repro.datasets.queries` — query-object generators.
* :mod:`~repro.datasets.builder` — dataset -> store -> index pipeline that
  yields a ready-to-query :class:`~repro.core.database.FuzzyDatabase`
  (``build_database``, the CLI's on-the-fly dataset).
"""

from repro.datasets.synthetic import (
    SyntheticDatasetConfig,
    generate_synthetic_dataset,
    generate_synthetic_object,
)
from repro.datasets.cells import (
    CellDatasetConfig,
    generate_cell_dataset,
    generate_cell_object,
)
from repro.datasets.queries import generate_query_object
from repro.datasets.builder import build_database, build_dataset

__all__ = [
    "SyntheticDatasetConfig",
    "generate_synthetic_dataset",
    "generate_synthetic_object",
    "CellDatasetConfig",
    "generate_cell_dataset",
    "generate_cell_object",
    "generate_query_object",
    "build_database",
    "build_dataset",
]
