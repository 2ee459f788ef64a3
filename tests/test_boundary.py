"""Unit tests for boundary functions and optimal conservative lines (Definition 6)."""

import numpy as np
import pytest

from repro.fuzzy.boundary import (
    BoundaryFunction,
    ConservativeLine,
    alpha_mbr_table,
    boundary_function,
    fit_conservative_line,
    fit_object_lines,
)
from repro.fuzzy.fuzzy_object import FuzzyObject
from tests.conftest import make_fuzzy_object


def staircase_object():
    """Points spreading outwards as membership decreases (1-d staircase in x)."""
    points = np.array(
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [4.0, 0.0], [8.0, 0.0]]
    )
    memberships = np.array([1.0, 0.8, 0.6, 0.4, 0.2])
    return FuzzyObject(points, memberships)


class TestAlphaMbrTable:
    def test_levels_match_distinct_memberships(self):
        obj = staircase_object()
        levels, lower, upper = alpha_mbr_table(obj)
        np.testing.assert_allclose(levels, [0.2, 0.4, 0.6, 0.8, 1.0])
        assert lower.shape == (5, 2)
        assert upper.shape == (5, 2)

    def test_table_matches_direct_alpha_mbr(self):
        obj = staircase_object()
        levels, lower, upper = alpha_mbr_table(obj)
        for j, level in enumerate(levels):
            direct = obj.alpha_mbr(float(level))
            np.testing.assert_allclose(lower[j], direct.lower)
            np.testing.assert_allclose(upper[j], direct.upper)

    def test_table_matches_direct_on_random_objects(self, rng):
        obj = make_fuzzy_object(rng, n_points=40)
        levels, lower, upper = alpha_mbr_table(obj)
        for j in (0, len(levels) // 2, len(levels) - 1):
            direct = obj.alpha_mbr(float(levels[j]))
            np.testing.assert_allclose(lower[j], direct.lower)
            np.testing.assert_allclose(upper[j], direct.upper)


class TestBoundaryFunction:
    def test_deltas_non_increasing(self):
        obj = staircase_object()
        bf = boundary_function(obj, dimension=0, side="upper")
        pairs = bf.pairs()
        deltas = [d for _, d in pairs]
        assert all(d1 >= d2 for d1, d2 in zip(deltas, deltas[1:]))
        # Delta at the kernel level is zero by construction.
        assert deltas[-1] == pytest.approx(0.0)

    def test_expected_values_for_staircase(self):
        obj = staircase_object()
        bf = boundary_function(obj, dimension=0, side="upper")
        values = dict(bf.pairs())
        assert values[1.0] == pytest.approx(0.0)
        assert values[0.8] == pytest.approx(1.0)
        assert values[0.2] == pytest.approx(8.0)

    def test_lower_side_of_symmetric_object_is_trivial(self):
        obj = staircase_object()
        bf = boundary_function(obj, dimension=0, side="lower")
        assert bf.is_trivial

    def test_invalid_side_raises(self):
        with pytest.raises(ValueError):
            boundary_function(staircase_object(), 0, "middle")

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            BoundaryFunction(np.array([0.5, 1.0]), np.array([1.0]))

    def test_unsorted_levels_or_rising_deltas_raise(self):
        """The fit's run-end shortcut needs the shape every real boundary has."""
        with pytest.raises(ValueError):
            BoundaryFunction(np.array([1.0, 0.5]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            BoundaryFunction(np.array([0.5, 1.0]), np.array([0.0, 1.0]))


class TestConservativeLine:
    def test_delta_at_clamped_at_zero(self):
        line = ConservativeLine(slope=-2.0, intercept=1.0)
        assert line.delta_at(0.2) == pytest.approx(0.6)
        assert line.delta_at(0.9) == 0.0

    def test_pair_roundtrip(self):
        line = ConservativeLine(-1.5, 2.5)
        assert ConservativeLine.from_pair(line.to_pair()) == line

    def test_fit_is_conservative_on_samples(self, rng):
        for _ in range(20):
            obj = make_fuzzy_object(rng, n_points=25)
            for dim in range(obj.dimensions):
                for side in ("upper", "lower"):
                    bf = boundary_function(obj, dim, side)
                    line = fit_conservative_line(bf)
                    for alpha, delta in bf.pairs():
                        assert line.delta_at(alpha) >= delta

    def test_fit_trivial_boundary_gives_flat_zero_line(self):
        bf = BoundaryFunction(np.array([0.5, 1.0]), np.array([0.0, 0.0]))
        line = fit_conservative_line(bf)
        assert line.delta_at(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_fit_single_level(self):
        bf = BoundaryFunction(np.array([1.0]), np.array([0.0]))
        line = fit_conservative_line(bf)
        assert line.delta_at(1.0) >= 0.0

    def test_fit_slope_non_positive(self, rng):
        obj = make_fuzzy_object(rng, n_points=30)
        for dim in range(2):
            bf = boundary_function(obj, dim, "upper")
            line = fit_conservative_line(bf)
            assert line.slope <= 0.0

    def test_fit_not_absurdly_loose(self):
        """The fitted line should be at most the constant max-delta line."""
        obj = staircase_object()
        bf = boundary_function(obj, 0, "upper")
        line = fit_conservative_line(bf)
        max_delta = max(d for _, d in bf.pairs())
        # At alpha=1 (the kernel) the line should be well below the max delta.
        assert line.delta_at(1.0) < max_delta


class TestObjectLines:
    def test_dimensions(self, rng):
        obj = make_fuzzy_object(rng)
        lines = fit_object_lines(obj)
        assert lines.dimensions == obj.dimensions
        assert len(lines.upper) == obj.dimensions
        assert len(lines.lower) == obj.dimensions

    def test_equation2_encloses_true_alpha_mbr(self, rng):
        """The approximated MBR of Equation 2 always contains the true one."""
        from repro.fuzzy.summary import build_summary

        for seed in range(5):
            obj = make_fuzzy_object(np.random.default_rng(seed), n_points=35, object_id=seed)
            summary = build_summary(obj)
            for alpha in (0.1, 0.3, 0.55, 0.75, 0.95, 1.0):
                approx = summary.approx_alpha_mbr(alpha)
                true = obj.alpha_mbr(alpha)
                assert np.all(approx.lower <= true.lower)
                assert np.all(approx.upper >= true.upper)
