"""Property-based tests (hypothesis) for the fuzzy object model and bounds.

These check the invariants of DESIGN.md on randomly generated fuzzy objects:

* alpha-cut nesting and membership in the support,
* monotonicity and symmetry of the alpha-distance,
* the sandwich property of the MBR-based bounds,
* conservativeness of the fitted lines / approximated alpha-cut MBRs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.fuzzy.alpha_distance import alpha_distance, distance_profile
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.fuzzy.summary import build_summary
from repro.geometry.mbr import max_dist, min_dist

SETTINGS = dict(max_examples=40, deadline=None)


@st.composite
def fuzzy_objects(draw, max_points=24, dimensions=2):
    """Strategy producing valid fuzzy objects with a non-empty kernel."""
    n_points = draw(st.integers(min_value=1, max_value=max_points))
    coords = draw(
        st.lists(
            st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False),
            min_size=n_points * dimensions,
            max_size=n_points * dimensions,
        )
    )
    memberships = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=n_points,
            max_size=n_points,
        )
    )
    points = np.asarray(coords, dtype=float).reshape(n_points, dimensions)
    mus = np.asarray(memberships, dtype=float)
    mus[draw(st.integers(min_value=0, max_value=n_points - 1))] = 1.0
    return FuzzyObject(points, mus, object_id=draw(st.integers(min_value=0, max_value=10**6)))


alphas = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


class TestAlphaCutProperties:
    @given(obj=fuzzy_objects(), alpha=alphas)
    @settings(**SETTINGS)
    def test_cut_is_subset_of_support(self, obj, alpha):
        cut = {tuple(p) for p in obj.alpha_cut(alpha)}
        support = {tuple(p) for p in obj.support()}
        assert cut <= support

    @given(obj=fuzzy_objects(), a=alphas, b=alphas)
    @settings(**SETTINGS)
    def test_cuts_are_nested(self, obj, a, b):
        low, high = min(a, b), max(a, b)
        low_cut = {tuple(p) for p in obj.alpha_cut(low)}
        high_cut = {tuple(p) for p in obj.alpha_cut(high)}
        assert high_cut <= low_cut

    @given(obj=fuzzy_objects())
    @settings(**SETTINGS)
    def test_kernel_inside_every_cut(self, obj):
        kernel = {tuple(p) for p in obj.kernel()}
        for alpha in (0.1, 0.5, 0.99):
            cut = {tuple(p) for p in obj.alpha_cut(alpha)}
            assert kernel <= cut

    @given(obj=fuzzy_objects(), alpha=alphas)
    @settings(**SETTINGS)
    def test_alpha_mbr_contained_in_support_mbr(self, obj, alpha):
        assert obj.support_mbr().contains(obj.alpha_mbr(alpha))


class TestAlphaDistanceProperties:
    @given(a=fuzzy_objects(), b=fuzzy_objects(), alpha=alphas)
    @settings(**SETTINGS)
    def test_symmetry_and_nonnegativity(self, a, b, alpha):
        d_ab = alpha_distance(a, b, alpha)
        d_ba = alpha_distance(b, a, alpha)
        assert d_ab >= 0.0
        assert d_ab == pytest.approx(d_ba)

    @given(a=fuzzy_objects(), alpha=alphas)
    @settings(**SETTINGS)
    def test_identity(self, a, alpha):
        assert alpha_distance(a, a, alpha) == 0.0

    @given(a=fuzzy_objects(), b=fuzzy_objects(), x=alphas, y=alphas)
    @settings(**SETTINGS)
    def test_monotone_in_alpha(self, a, b, x, y):
        low, high = min(x, y), max(x, y)
        assert alpha_distance(a, b, low) <= alpha_distance(a, b, high) + 1e-9

    @given(a=fuzzy_objects(max_points=12), b=fuzzy_objects(max_points=12), alpha=alphas)
    @settings(**SETTINGS)
    def test_profile_agrees_with_direct_evaluation(self, a, b, alpha):
        profile = distance_profile(a, b)
        assert profile.value(alpha) == pytest.approx(alpha_distance(a, b, alpha))


class TestBoundProperties:
    @given(a=fuzzy_objects(), b=fuzzy_objects(), alpha=alphas)
    @settings(**SETTINGS)
    def test_mbr_bounds_sandwich_distance(self, a, b, alpha):
        exact = alpha_distance(a, b, alpha)
        mbr_a = a.alpha_mbr(alpha)
        mbr_b = b.alpha_mbr(alpha)
        assert min_dist(mbr_a, mbr_b) <= exact + 1e-9
        assert exact <= max_dist(mbr_a, mbr_b) + 1e-9

    @given(obj=fuzzy_objects(), alpha=alphas)
    @settings(**SETTINGS)
    def test_approx_alpha_mbr_is_conservative(self, obj, alpha):
        summary = build_summary(obj)
        approx = summary.approx_alpha_mbr(alpha)
        true = obj.alpha_mbr(alpha)
        assert np.all(approx.lower <= true.lower + 1e-7)
        assert np.all(approx.upper >= true.upper - 1e-7)

    @given(a=fuzzy_objects(), q=fuzzy_objects(), alpha=alphas)
    # Shrunk from a hypothesis failure: a membership in (1 - 1e-5, 1) once
    # counted as kernel, so rep(A) sat outside the 1.0-cut and the Lemma 1
    # upper bound (0) fell below the exact distance (10).
    @example(
        a=FuzzyObject(
            np.array([[0.0, 0.0], [10.0, 0.0]]), np.array([0.999995, 1.0]), object_id=0
        ),
        q=FuzzyObject.single_point([0.0, 0.0], object_id=0),
        alpha=1.0,
    )
    @settings(**SETTINGS)
    def test_prepared_query_bounds(self, a, q, alpha):
        from repro.core.query import PreparedQuery

        prepared = PreparedQuery(q, alpha)
        summary = build_summary(a)
        exact = alpha_distance(a, q, alpha)
        assert prepared.simple_lower_bound(summary) <= exact + 1e-9
        assert prepared.improved_lower_bound(summary) <= exact + 1e-9
        assert prepared.representative_upper_bound(summary) >= exact - 1e-9
        assert prepared.maxdist_upper_bound(summary) >= exact - 1e-9


class TestSerializationProperties:
    @given(obj=fuzzy_objects())
    @settings(**SETTINGS)
    def test_codec_roundtrip(self, obj):
        from repro.storage.serialization import decode_object, encode_object

        clone = decode_object(encode_object(obj))
        np.testing.assert_allclose(clone.points, obj.points)
        np.testing.assert_allclose(clone.memberships, obj.memberships)
        assert clone.object_id == obj.object_id
