"""Unit tests for :class:`FuzzyObjectSummary` (the R-tree leaf payload)."""

import numpy as np
import pytest

from repro.fuzzy.summary import FuzzyObjectSummary, build_summary
from tests.conftest import make_fuzzy_object


class TestBuildSummary:
    def test_fields(self, rng):
        obj = make_fuzzy_object(rng, object_id=7)
        summary = build_summary(obj)
        assert summary.object_id == 7
        assert summary.n_points == obj.size
        assert summary.dimensions == obj.dimensions
        assert summary.support_mbr == obj.support_mbr()
        assert summary.kernel_mbr == obj.kernel_mbr()
        assert len(summary.upper_lines) == 2
        assert len(summary.lower_lines) == 2

    def test_representative_in_kernel(self, rng):
        obj = make_fuzzy_object(rng, object_id=1)
        summary = build_summary(obj, rng=rng)
        kernel = {tuple(p) for p in obj.kernel()}
        assert tuple(summary.representative) in kernel

    def test_requires_object_id(self, rng):
        obj = make_fuzzy_object(rng)
        with pytest.raises(ValueError):
            build_summary(obj)

    def test_kernel_mbr_inside_support_mbr(self, rng):
        obj = make_fuzzy_object(rng, object_id=2)
        summary = build_summary(obj)
        assert summary.support_mbr.contains(summary.kernel_mbr)


class TestApproxAlphaMbr:
    def test_contained_in_support(self, rng):
        obj = make_fuzzy_object(rng, object_id=3)
        summary = build_summary(obj)
        for alpha in (0.1, 0.5, 0.9, 1.0):
            approx = summary.approx_alpha_mbr(alpha)
            assert summary.support_mbr.contains(approx)

    def test_contains_true_cut(self, rng):
        obj = make_fuzzy_object(rng, object_id=4, n_points=40)
        summary = build_summary(obj)
        for alpha in np.linspace(0.05, 1.0, 9):
            approx = summary.approx_alpha_mbr(float(alpha))
            true = obj.alpha_mbr(float(alpha))
            assert np.all(approx.lower <= true.lower)
            assert np.all(approx.upper >= true.upper)

    def test_shrinks_with_alpha(self, rng):
        obj = make_fuzzy_object(rng, object_id=5, n_points=40)
        summary = build_summary(obj)
        low = summary.approx_alpha_mbr(0.1)
        high = summary.approx_alpha_mbr(0.95)
        assert low.area() >= high.area() - 1e-12


class TestSerialisation:
    def test_roundtrip(self, rng):
        obj = make_fuzzy_object(rng, object_id=11)
        summary = build_summary(obj)
        clone = FuzzyObjectSummary.from_dict(summary.to_dict())
        assert clone.object_id == summary.object_id
        assert clone.n_points == summary.n_points
        assert clone.support_mbr == summary.support_mbr
        assert clone.kernel_mbr == summary.kernel_mbr
        assert np.allclose(clone.representative, summary.representative)
        for a, b in zip(clone.upper_lines, summary.upper_lines):
            assert a == b
        for a, b in zip(clone.lower_lines, summary.lower_lines):
            assert a == b

    def test_roundtrip_preserves_approx_mbr(self, rng):
        obj = make_fuzzy_object(rng, object_id=12)
        summary = build_summary(obj)
        clone = FuzzyObjectSummary.from_dict(summary.to_dict())
        for alpha in (0.2, 0.6, 1.0):
            assert clone.approx_alpha_mbr(alpha) == summary.approx_alpha_mbr(alpha)
