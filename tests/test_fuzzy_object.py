"""Unit tests for the fuzzy object model (Definitions 1 and 2)."""

import numpy as np
import pytest

from repro.exceptions import EmptyAlphaCutError, InvalidFuzzyObjectError
from repro.fuzzy.fuzzy_object import FuzzyObject


def simple_object():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    memberships = np.array([1.0, 0.7, 0.4, 0.1])
    return FuzzyObject(points, memberships, object_id=1)


class TestConstruction:
    def test_basic(self):
        obj = simple_object()
        assert obj.size == 4
        assert obj.dimensions == 2
        assert obj.object_id == 1
        assert obj.kernel().size

    def test_rejects_empty_points(self):
        with pytest.raises(InvalidFuzzyObjectError):
            FuzzyObject(np.empty((0, 2)), np.empty(0))

    def test_rejects_membership_shape_mismatch(self):
        with pytest.raises(InvalidFuzzyObjectError):
            FuzzyObject(np.zeros((3, 2)), np.array([1.0, 0.5]))

    def test_rejects_zero_membership(self):
        with pytest.raises(InvalidFuzzyObjectError):
            FuzzyObject(np.zeros((2, 2)), np.array([1.0, 0.0]))

    def test_rejects_membership_above_one(self):
        with pytest.raises(InvalidFuzzyObjectError):
            FuzzyObject(np.zeros((2, 2)), np.array([1.0, 1.5]))

    def test_rejects_non_finite_points(self):
        with pytest.raises(InvalidFuzzyObjectError):
            FuzzyObject(np.array([[np.inf, 0.0]]), np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_memberships(self, bad):
        """NaN fails both range comparisons, so a range check alone let it in."""
        points = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
        with pytest.raises(InvalidFuzzyObjectError):
            FuzzyObject(points, [1.0, bad, 0.5])
        with pytest.raises(InvalidFuzzyObjectError):
            FuzzyObject(points, [1.0, bad, 0.5], require_kernel=False)

    def test_requires_kernel_by_default(self):
        with pytest.raises(InvalidFuzzyObjectError):
            FuzzyObject(np.zeros((2, 2)), np.array([0.5, 0.6]))

    def test_kernel_requirement_can_be_waived(self):
        obj = FuzzyObject(np.zeros((2, 2)), np.array([0.5, 0.6]), require_kernel=False)
        assert obj.kernel().size == 0

    def test_from_pairs(self):
        """Points and memberships given as lists, one pair per point."""
        obj = FuzzyObject([[0.0, 0.0], [1.0, 1.0]], [1.0, 0.5])
        assert obj.size == 2
        assert obj.points.dtype == float
        assert obj.memberships[0] == 1.0

    def test_from_pairs_empty_raises(self):
        with pytest.raises(InvalidFuzzyObjectError):
            FuzzyObject([], [])

    def test_crisp_and_single_point(self):
        crisp = FuzzyObject.crisp(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.all(crisp.memberships == 1.0)
        single = FuzzyObject.single_point([5.0, 6.0])
        assert single.size == 1
        assert single.dimensions == 2

    def test_with_id(self):
        obj = simple_object().with_id(42)
        assert obj.object_id == 42

    def test_roundtrip_dict(self):
        obj = simple_object()
        clone = FuzzyObject.from_dict(obj.to_dict())
        assert clone == obj


class TestFuzzySetOperations:
    def test_support_is_all_points(self):
        obj = simple_object()
        assert obj.support().shape == (4, 2)

    def test_kernel_only_full_membership(self):
        obj = simple_object()
        kernel = obj.kernel()
        assert kernel.shape == (1, 2)
        assert np.allclose(kernel[0], [0.0, 0.0])

    def test_alpha_cut_thresholds(self):
        obj = simple_object()
        assert obj.alpha_cut(0.05).shape[0] == 4
        assert obj.alpha_cut(0.4).shape[0] == 3
        assert obj.alpha_cut(0.5).shape[0] == 2
        assert obj.alpha_cut(1.0).shape[0] == 1

    def test_alpha_cut_includes_threshold_value(self):
        obj = simple_object()
        # membership exactly 0.7 must be included in the 0.7-cut
        assert obj.alpha_cut(0.7).shape[0] == 2

    def test_alpha_cut_is_nested(self):
        obj = simple_object()
        low = {tuple(p) for p in obj.alpha_cut(0.2)}
        high = {tuple(p) for p in obj.alpha_cut(0.8)}
        assert high <= low

    def test_invalid_alpha_raises(self):
        obj = simple_object()
        with pytest.raises(InvalidFuzzyObjectError):
            obj.alpha_cut(0.0)
        with pytest.raises(InvalidFuzzyObjectError):
            obj.alpha_cut(1.5)

    def test_empty_cut_raises(self):
        obj = FuzzyObject(np.zeros((2, 2)), np.array([0.3, 0.4]), require_kernel=False)
        with pytest.raises(EmptyAlphaCutError):
            obj.alpha_cut(0.9)

    def test_distinct_memberships_sorted(self):
        obj = simple_object()
        levels = obj.distinct_memberships()
        assert np.all(np.diff(levels) > 0)
        assert set(levels) == {0.1, 0.4, 0.7, 1.0}


class TestBoundingBoxes:
    def test_support_mbr_encloses_all_points(self):
        obj = simple_object()
        mbr = obj.support_mbr()
        assert np.allclose(mbr.lower, [0.0, 0.0])
        assert np.allclose(mbr.upper, [3.0, 0.0])

    def test_kernel_mbr(self):
        obj = simple_object()
        mbr = obj.kernel_mbr()
        assert np.allclose(mbr.lower, [0.0, 0.0])
        assert np.allclose(mbr.upper, [0.0, 0.0])

    def test_alpha_mbr_shrinks(self):
        obj = simple_object()
        low = obj.alpha_mbr(0.1)
        high = obj.alpha_mbr(0.7)
        assert low.contains(high)

    def test_kernel_mbr_missing_kernel_raises(self):
        obj = FuzzyObject(np.zeros((2, 2)), np.array([0.3, 0.4]), require_kernel=False)
        with pytest.raises(EmptyAlphaCutError):
            obj.kernel_mbr()


class TestSamplingAndTransforms:
    def test_representative_point_is_in_kernel(self, rng):
        obj = simple_object()
        rep = obj.representative_point(rng)
        assert np.allclose(rep, [0.0, 0.0])

    def test_representative_deterministic_without_rng(self):
        obj = simple_object()
        assert np.allclose(obj.representative_point(), obj.kernel()[0])

    def test_sample_alpha_cut_subset(self):
        """Evenly spaced in point order, from the cut's first point to its last."""
        obj = simple_object()
        sample = obj.sample_alpha_cut(0.1, 2)
        assert sample.shape == (2, 2)
        np.testing.assert_array_equal(sample, obj.alpha_cut(0.1)[[0, 3]])
        np.testing.assert_array_equal(
            obj.sample_alpha_cut(0.1, 3), obj.alpha_cut(0.1)[[0, 1, 3]]
        )
        np.testing.assert_array_equal(obj.sample_alpha_cut(0.1, 1), obj.alpha_cut(0.1)[[0]])

    def test_sample_returns_all_when_fewer_than_requested(self):
        obj = simple_object()
        sample = obj.sample_alpha_cut(0.9, 10)
        assert sample.shape[0] == obj.alpha_cut(0.9).shape[0]

    def test_scaled(self):
        obj = simple_object().scaled(2.0)
        assert np.allclose(obj.points[-1], [6.0, 0.0])

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(InvalidFuzzyObjectError):
            simple_object().scaled(0.0)


class TestDunder:
    def test_len_and_repr(self):
        obj = simple_object()
        assert len(obj) == 4
        assert "FuzzyObject" in repr(obj)

    def test_equality(self):
        assert simple_object() == simple_object()
        other = simple_object().with_id(99)
        assert simple_object() != other
