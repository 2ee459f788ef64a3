"""Tests for the dataset generators (Section 6.1 setup and the cell simulator)."""

import numpy as np
import pytest

from repro.datasets.builder import build_database, build_dataset
from repro.datasets.cells import CellDatasetConfig, generate_cell_dataset, generate_cell_object
from repro.datasets.queries import generate_query_object
from repro.datasets.synthetic import (
    SyntheticDatasetConfig,
    generate_synthetic_dataset,
    generate_synthetic_object,
    normalize_memberships_to_unit,
)


class TestNormalisation:
    def test_spans_unit_interval(self):
        raw = np.array([0.6, 0.7, 0.9, 1.0])
        normalized = normalize_memberships_to_unit(raw)
        assert normalized.max() == pytest.approx(1.0)
        assert normalized.min() <= 0.01
        assert np.all(normalized > 0)

    def test_constant_input(self):
        normalized = normalize_memberships_to_unit(np.array([0.4, 0.4]))
        assert np.all(normalized == 1.0)

    def test_preserves_order(self):
        raw = np.array([0.3, 0.9, 0.5])
        normalized = normalize_memberships_to_unit(raw)
        assert np.argsort(normalized).tolist() == np.argsort(raw).tolist()


class TestSyntheticGenerator:
    def test_object_shape_and_memberships(self, rng):
        obj = generate_synthetic_object(np.array([10.0, 10.0]), rng, points_per_object=200)
        assert obj.size == 200
        assert obj.dimensions == 2
        assert obj.kernel().size
        assert obj.memberships.min() > 0
        assert obj.memberships.max() == pytest.approx(1.0)

    def test_points_inside_radius(self, rng):
        center = np.array([3.0, 4.0])
        obj = generate_synthetic_object(center, rng, points_per_object=300, object_radius=0.5)
        distances = np.linalg.norm(obj.points - center, axis=1)
        assert distances.max() <= 0.5 + 1e-9

    def test_membership_decreases_with_radius(self, rng):
        center = np.array([0.0, 0.0])
        obj = generate_synthetic_object(center, rng, points_per_object=500)
        radial = np.linalg.norm(obj.points - center, axis=1)
        # Correlation between radius and membership must be strongly negative.
        corr = np.corrcoef(radial, obj.memberships)[0, 1]
        assert corr < -0.8

    def test_dataset_scale_and_bounds(self):
        config = SyntheticDatasetConfig(n_objects=30, points_per_object=20, space_size=50.0, seed=1)
        objects = generate_synthetic_dataset(config)
        assert len(objects) == 30
        assert all(obj.size == 20 for obj in objects)
        assert all(obj.object_id == i for i, obj in enumerate(objects))
        centers = np.array([obj.support_mbr().center for obj in objects])
        assert centers.min() >= -1.0
        assert centers.max() <= 51.0

    def test_reproducible_with_seed(self):
        config = SyntheticDatasetConfig(n_objects=5, points_per_object=10, seed=9)
        a = generate_synthetic_dataset(config)
        b = generate_synthetic_dataset(config)
        for obj_a, obj_b in zip(a, b):
            np.testing.assert_allclose(obj_a.points, obj_b.points)
            np.testing.assert_allclose(obj_a.memberships, obj_b.memberships)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticDatasetConfig(n_objects=0).validated()
        with pytest.raises(ValueError):
            SyntheticDatasetConfig(points_per_object=-1).validated()
        with pytest.raises(ValueError):
            SyntheticDatasetConfig(membership_sigma=0.0).validated()
        with pytest.raises(ValueError):
            SyntheticDatasetConfig(dimensions=1).validated()


class TestCellGenerator:
    def test_object_properties(self, rng):
        obj = generate_cell_object(np.array([2.0, 2.0]), rng)
        assert obj.kernel().size
        assert obj.memberships.min() > 0
        assert obj.memberships.max() == pytest.approx(1.0)
        assert obj.dimensions == 2

    def test_irregular_support(self, rng):
        """Cell supports should be less circular than synthetic ones: the
        radial spread of boundary distances must vary noticeably."""
        config = CellDatasetConfig(points_per_object=400, irregularity=0.6, seed=2)
        obj = generate_cell_object(np.array([0.0, 0.0]), rng, config=config)
        mbr = obj.support_mbr()
        extent = mbr.extent
        assert extent.min() > 0

    def test_dataset_scale(self):
        config = CellDatasetConfig(n_objects=12, points_per_object=30, seed=3)
        objects = generate_cell_dataset(config)
        assert len(objects) == 12
        assert all(obj.size == 30 for obj in objects)

    def test_reproducible_with_seed(self):
        config = CellDatasetConfig(n_objects=4, points_per_object=15, seed=8)
        a = generate_cell_dataset(config)
        b = generate_cell_dataset(config)
        for obj_a, obj_b in zip(a, b):
            np.testing.assert_allclose(obj_a.points, obj_b.points)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CellDatasetConfig(irregularity=1.5).validated()
        with pytest.raises(ValueError):
            CellDatasetConfig(membership_decay=0.0).validated()
        with pytest.raises(ValueError):
            CellDatasetConfig(dimensions=3).validated()


class TestQueryGenerator:
    def test_kinds(self, rng):
        for kind in ("synthetic", "cells", "point"):
            query = generate_query_object(rng, kind=kind, points_per_object=20)
            assert query.kernel().size
            if kind == "point":
                assert query.size == 1

    def test_explicit_center(self, rng):
        query = generate_query_object(rng, kind="point", center=[1.0, 2.0])
        np.testing.assert_allclose(query.points[0], [1.0, 2.0])

    def test_unknown_kind(self, rng):
        with pytest.raises(ValueError):
            generate_query_object(rng, kind="hexagons")


class TestBuilder:
    def test_build_dataset_kinds(self):
        synthetic = build_dataset(kind="synthetic", n_objects=10, points_per_object=10)
        cells = build_dataset(kind="cells", n_objects=10, points_per_object=10)
        assert len(synthetic) == 10 and len(cells) == 10
        with pytest.raises(ValueError):
            build_dataset(kind="squares")

    def test_build_database(self, tmp_path):
        database = build_database(
            kind="synthetic", n_objects=15, points_per_object=10, path=tmp_path / "db"
        )
        database.validate()
        assert len(database) == 15
        database.close()
