"""Unit tests for the alpha-cut table and the optimal conservative lines
(Definition 6), read from what the summary fit builds: ``cut_table`` and
``build_summary`` (the stacked fit on a stack of one).  The per-level
reference fit, bit for bit, is ``test_summary_fit_parity.py``."""

import numpy as np
import pytest

from repro.predicates import CONSERVATIVE_SLACK
from repro.fuzzy.boundary import ConservativeLine
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.fuzzy.summary import build_summary
from tests.conftest import cut_table, make_fuzzy_object


def staircase_object():
    """Points spreading outwards as membership decreases (1-d staircase in x)."""
    points = np.array(
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [4.0, 0.0], [8.0, 0.0]]
    )
    memberships = np.array([1.0, 0.8, 0.6, 0.4, 0.2])
    return FuzzyObject(points, memberships, object_id=0)


def boundary_deltas(obj, dimension, side):
    """``(levels, delta(alpha))`` of one dimension and side: the boundary
    function, ``|M(alpha) - M(1)|``."""
    levels, lower, upper = cut_table(obj)
    column = (upper if side == "upper" else lower)[:, dimension]
    return levels, np.abs(column - column[-1])


def summary_lines(obj):
    """Every fitted line of ``obj`` with its side: ``(dimension, side, line)``."""
    summary = build_summary(obj.with_id(0))
    return [
        (dim, side, line)
        for side, lines in (("upper", summary.upper_lines), ("lower", summary.lower_lines))
        for dim, line in enumerate(lines)
    ]


class TestAlphaMbrTable:
    def test_levels_match_distinct_memberships(self):
        obj = staircase_object()
        levels, lower, upper = cut_table(obj)
        np.testing.assert_allclose(levels, [0.2, 0.4, 0.6, 0.8, 1.0])
        assert lower.shape == (5, 2)
        assert upper.shape == (5, 2)

    def test_table_matches_direct_alpha_mbr(self):
        obj = staircase_object()
        levels, lower, upper = cut_table(obj)
        for j, level in enumerate(levels):
            direct = obj.alpha_mbr(float(level))
            np.testing.assert_allclose(lower[j], direct.lower)
            np.testing.assert_allclose(upper[j], direct.upper)

    def test_table_matches_direct_on_random_objects(self, rng):
        obj = make_fuzzy_object(rng, n_points=40)
        levels, lower, upper = cut_table(obj)
        for j in (0, len(levels) // 2, len(levels) - 1):
            direct = obj.alpha_mbr(float(levels[j]))
            np.testing.assert_allclose(lower[j], direct.lower)
            np.testing.assert_allclose(upper[j], direct.upper)


class TestBoundaryFunction:
    def test_deltas_non_increasing(self):
        _, deltas = boundary_deltas(staircase_object(), 0, "upper")
        assert all(d1 >= d2 for d1, d2 in zip(deltas, deltas[1:]))
        # Delta at the kernel level is zero by construction.
        assert deltas[-1] == pytest.approx(0.0)

    def test_expected_values_for_staircase(self):
        values = dict(zip(*boundary_deltas(staircase_object(), 0, "upper")))
        assert values[1.0] == pytest.approx(0.0)
        assert values[0.8] == pytest.approx(1.0)
        assert values[0.2] == pytest.approx(8.0)

    def test_lower_side_of_symmetric_object_is_trivial(self):
        obj = staircase_object()
        _, deltas = boundary_deltas(obj, 0, "lower")
        assert np.all(deltas <= CONSERVATIVE_SLACK)
        # A boundary that never moves is fitted by the flat zero line.
        assert build_summary(obj).lower_lines[0] == ConservativeLine(0.0, 0.0)


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
            for dim, side, line in summary_lines(obj):
                for alpha, delta in zip(*boundary_deltas(obj, dim, side)):
                    assert line.delta_at(alpha) >= delta

    def test_fit_trivial_boundary_gives_flat_zero_line(self):
        obj = FuzzyObject(np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([0.5, 1.0]))
        for _, _, line in summary_lines(obj):
            assert line.delta_at(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_fit_single_level(self):
        obj = FuzzyObject(np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([1.0, 1.0]))
        for _, _, line in summary_lines(obj):
            assert line.delta_at(1.0) >= 0.0

    def test_fit_slope_non_positive(self, rng):
        obj = make_fuzzy_object(rng, n_points=30)
        for _, _, line in summary_lines(obj):
            assert line.slope <= 0.0

    def test_fit_not_absurdly_loose(self):
        """The fitted line should be at most the constant max-delta line."""
        obj = staircase_object()
        line = build_summary(obj).upper_lines[0]
        max_delta = boundary_deltas(obj, 0, "upper")[1].max()
        # At alpha=1 (the kernel) the line should be well below the max delta.
        assert line.delta_at(1.0) < max_delta


class TestObjectLines:
    def test_dimensions(self, rng):
        obj = make_fuzzy_object(rng, object_id=0)
        summary = build_summary(obj)
        assert len(summary.upper_lines) == obj.dimensions
        assert len(summary.lower_lines) == obj.dimensions

    def test_equation2_encloses_true_alpha_mbr(self, rng):
        """The approximated MBR of Equation 2 always contains the true one."""
        for seed in range(5):
            obj = make_fuzzy_object(np.random.default_rng(seed), n_points=35, object_id=seed)
            summary = build_summary(obj)
            for alpha in (0.1, 0.3, 0.55, 0.75, 0.95, 1.0):
                approx = summary.approx_alpha_mbr(alpha)
                true = obj.alpha_mbr(alpha)
                assert np.all(approx.lower <= true.lower)
                assert np.all(approx.upper >= true.upper)
