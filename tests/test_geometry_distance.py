"""Unit tests for the closest-pair / point-set distance kernels."""

import numpy as np
import pytest

from repro.geometry.distance import (
    closest_pair,
    closest_pair_distance,
    set_to_set_distances,
)


def brute_force_closest(a, b):
    diff = a[:, None, :] - b[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    idx = np.unravel_index(np.argmin(d), d.shape)
    return d[idx], idx[0], idx[1]


class TestPointToSet:
    """A point's distance to a set: the closest pair of a one-point set."""

    def test_simple(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert closest_pair_distance(np.array([[0.0, 1.0]]), points) == pytest.approx(1.0)

    def test_zero_when_point_in_set(self):
        points = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert closest_pair_distance(np.array([[2.0, 2.0]]), points) == 0.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            closest_pair_distance(np.array([[0.0, 0.0, 0.0]]), np.array([[1.0, 1.0]]))

    def test_empty_set_raises(self):
        with pytest.raises(ValueError):
            closest_pair_distance(np.array([[0.0, 0.0]]), np.empty((0, 2)))


class TestSetToSet:
    def test_matrix_shape_and_values(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0], [0.0, 2.0], [5.0, 0.0]])
        matrix = set_to_set_distances(a, b)
        assert matrix.shape == (2, 3)
        assert matrix[0, 0] == pytest.approx(1.0)
        assert matrix[1, 2] == pytest.approx(4.0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            set_to_set_distances(np.zeros((2, 2)), np.zeros((2, 3)))


class TestClosestPair:
    def test_known_configuration(self):
        a = np.array([[0.0, 0.0], [10.0, 10.0]])
        b = np.array([[0.0, 3.0], [20.0, 20.0]])
        distance, i, j = closest_pair(a, b)
        assert distance == pytest.approx(3.0)
        assert (i, j) == (0, 0)

    def test_identical_point_gives_zero(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[9.0, 9.0], [3.0, 4.0]])
        assert closest_pair_distance(a, b) == 0.0

    def test_single_points(self):
        assert closest_pair_distance(
            np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])
        ) == pytest.approx(5.0)

    def test_brute_and_kdtree_paths_agree(self, rng):
        # Force both code paths on the same (large enough) input.
        a = rng.random((300, 2)) * 10
        b = rng.random((300, 2)) * 10 + 5
        with_tree = closest_pair_distance(a, b, use_kdtree=True)
        without_tree = closest_pair_distance(a, b, use_kdtree=False)
        assert with_tree == pytest.approx(without_tree)

    def test_matches_brute_force_reference(self, rng):
        for _ in range(10):
            a = rng.random((25, 3)) * 4
            b = rng.random((30, 3)) * 4 + 1
            expected, _, _ = brute_force_closest(a, b)
            assert closest_pair_distance(a, b) == pytest.approx(expected)

    def test_returned_indices_realise_the_distance(self, rng):
        a = rng.random((40, 2))
        b = rng.random((35, 2)) + 0.5
        distance, i, j = closest_pair(a, b)
        assert np.linalg.norm(a[i] - b[j]) == pytest.approx(distance)

    def test_kdtree_path_indices(self, rng):
        a = rng.random((400, 2))
        b = rng.random((500, 2)) + 0.2
        distance, i, j = closest_pair(a, b, use_kdtree=True)
        assert np.linalg.norm(a[i] - b[j]) == pytest.approx(distance)
        expected, _, _ = brute_force_closest(a, b)
        assert distance == pytest.approx(expected)

    def test_one_dimensional_input_reshaped(self):
        assert closest_pair_distance(
            np.array([0.0, 0.0]), np.array([1.0, 0.0])
        ) == pytest.approx(1.0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            closest_pair_distance(np.zeros((3, 2)), np.zeros((3, 4)))

    def test_symmetry(self, rng):
        a = rng.random((20, 2))
        b = rng.random((15, 2)) + 1
        assert closest_pair_distance(a, b) == pytest.approx(closest_pair_distance(b, a))
