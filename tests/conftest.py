"""Shared fixtures for the test suite.

The fixtures deliberately keep datasets small (tens of objects, tens of
points) so the whole suite runs in seconds; correctness of the search
algorithms is asserted against :mod:`repro.reference`, the brute-force answer
to every query family, which is exact at any scale and shares no code with
the engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.core.database import FuzzyDatabase
from repro.datasets.builder import build_dataset
from repro.datasets.queries import generate_query_object
from repro.fuzzy.boundary import _stack_cuts
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.fuzzy.intervals import IntervalSet
from repro import reference


def make_fuzzy_object(
    rng: np.random.Generator,
    n_points: int = 30,
    center=None,
    spread: float = 1.0,
    object_id=None,
) -> FuzzyObject:
    """A random fuzzy object with memberships spanning (0, 1]."""
    if center is None:
        center = rng.random(2) * 10.0
    points = np.asarray(center) + rng.normal(scale=spread, size=(n_points, 2))
    memberships = rng.random(n_points)
    memberships[int(rng.integers(0, n_points))] = 1.0  # ensure a kernel point
    memberships = np.clip(memberships, 1e-3, 1.0)
    return FuzzyObject(points, memberships, object_id=object_id)


def cut_table(obj: FuzzyObject):
    """``(levels, lower, upper)``: the exact alpha-cut box of every level of
    ``obj``, as the stacked summary fit reads them (a stack of one)."""
    mus, first, cuts, _ = _stack_cuts(obj.points[None], obj.memberships[None])
    table = cuts[0][first[0]]
    return mus[0][first[0]], -table[:, obj.dimensions :], table[:, : obj.dimensions]


def pytest_addoption(parser):
    parser.addoption(
        "--regenerate-counts",
        action="store_true",
        help="rewrite tests/data/counts.json from this tree (test_counts_fingerprint.py)",
    )


def pytest_report_header(config):
    """Name the NumPy and BLAS a run used: the summary fit's parity with its
    reference rests on a stacked ``matmul`` calling the same ``ddot`` as
    ``np.dot`` (``test_summary_fit_parity.py``), which is the library's."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy < 1.25 only prints its configuration
        blas = {}
    return (
        f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"
        f" ({blas.get('openblas configuration', 'no build configuration')})"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for individual tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_objects(rng) -> list:
    """A handful of random fuzzy objects with explicit ids."""
    return [make_fuzzy_object(rng, object_id=i) for i in range(12)]


@pytest.fixture
def query_object(rng) -> FuzzyObject:
    """A random query fuzzy object."""
    return make_fuzzy_object(rng, center=[5.0, 5.0])


@pytest.fixture(scope="session")
def dense_database() -> FuzzyDatabase:
    """A session-wide synthetic database dense enough to exercise pruning.

    Sixty circle objects with Gaussian membership in an 8 x 8 space — the
    supports overlap, which is the regime the paper's optimisations target.
    """
    objects = build_dataset(
        kind="synthetic", n_objects=60, points_per_object=40, seed=42, space_size=8.0
    )
    database = FuzzyDatabase.build(objects, config=RuntimeConfig(rtree_max_entries=8))
    yield database
    database.close()


@pytest.fixture(scope="session")
def dense_queries() -> list:
    """Query objects matching :func:`dense_database`'s distribution."""
    rng = np.random.default_rng(777)
    return [
        generate_query_object(
            rng, kind="synthetic", space_size=8.0, points_per_object=40
        )
        for _ in range(3)
    ]


@pytest.fixture(scope="session")
def cell_database() -> FuzzyDatabase:
    """A small simulated-cell database (the stand-in for the real dataset)."""
    objects = build_dataset(
        kind="cells", n_objects=40, points_per_object=40, seed=5, space_size=7.0
    )
    database = FuzzyDatabase.build(objects, config=RuntimeConfig(rtree_max_entries=8))
    yield database
    database.close()


def stored_objects(database: FuzzyDatabase) -> list:
    """Every object of ``database``, ids set, read without counting an access:
    the input :mod:`repro.reference` answers over."""
    return list(database.store.iter_objects(count_accesses=False))


def sorted_exact_distances(database: FuzzyDatabase, result, query, alpha: float):
    """Exact alpha-distances of a result's neighbours, sorted ascending.

    Lazily-confirmed neighbours (no exact distance) get theirs from the
    reference, so that results from different AKNN variants can be compared
    as multisets of distances, which is robust to ties.
    """
    distances = []
    for neighbor in result.neighbors:
        if neighbor.distance is not None:
            distances.append(neighbor.distance)
        else:
            obj = database.get_object(neighbor.object_id)
            distances.append(reference.aknn([obj], query, 1, alpha)[0][1])
    return sorted(distances)


def assert_range_answer(result, objects, query, alpha: float, radius: float) -> None:
    """A range answer against :mod:`repro.reference` over ``objects``: the
    id set exact, every probed distance ``==`` the reference's, and every
    bound-confirmed match (``distance=None``) with ``d_alpha <= U <= radius``."""
    exact = dict(reference.range_search(objects, query, alpha, np.inf))
    assert sorted(result.object_ids) == sorted(
        object_id for object_id, d in exact.items() if d <= radius
    )
    for object_id, distance in result.matches:
        if distance is None:
            bound = result.upper_bounds[object_id]
            assert exact[object_id] <= bound <= radius, (object_id, bound, radius)
        else:
            assert distance == exact[object_id], (object_id, distance)


def assert_reverse_answer(result, objects, query, k: int, alpha: float) -> None:
    """A reverse answer against :mod:`repro.reference` over ``objects``: the
    id set exact, every probed distance ``==`` the reference's, and every
    bound-confirmed member (``distance=None``) with ``d_alpha <= U``."""
    want = dict(reference.reverse(objects, query, k, alpha))
    assert result.object_ids == sorted(want)
    assert sorted(result.distances) == result.object_ids
    for object_id, distance in result.distances.items():
        if distance is None:
            bound = result.upper_bounds[object_id]
            assert want[object_id] <= bound, (object_id, want[object_id], bound)
        else:
            assert object_id not in result.upper_bounds
            assert distance == want[object_id], (object_id, distance)


def assert_same_assignments(actual, expected) -> None:
    """Assert two RKNN assignment maps describe the same qualifying ranges.

    ``expected`` maps ids to an :class:`IntervalSet` or, as
    :func:`repro.reference.sweep` returns them, to ``(start, end)`` pairs.
    """
    assert set(actual.keys()) == set(expected.keys()), (
        f"qualifying object sets differ: {sorted(actual)} vs {sorted(expected)}"
    )
    for object_id, expected_ranges in expected.items():
        if not isinstance(expected_ranges, IntervalSet):
            expected_ranges = IntervalSet.from_pairs(expected_ranges)
        assert actual[object_id] == expected_ranges, (
            f"object {object_id}: {actual[object_id]} != {expected_ranges}"
        )
