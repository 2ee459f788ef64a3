"""Property-based tests for the interval algebra and distance profiles."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.fuzzy.intervals import Interval, IntervalSet
from repro.fuzzy.profile import DistanceProfile
from repro.predicates import at_least

SETTINGS = dict(max_examples=60, deadline=None)

interval_pairs = st.tuples(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
).map(lambda pair: (min(pair), max(pair)))


class TestIntervalSetProperties:
    @given(pairs=st.lists(interval_pairs, min_size=0, max_size=12))
    @settings(**SETTINGS)
    def test_intervals_stay_disjoint_and_sorted(self, pairs):
        ranges = IntervalSet.from_pairs(pairs)
        intervals = ranges.intervals
        for a, b in zip(intervals, intervals[1:]):
            assert a.end < b.start  # strictly disjoint after normalisation
        starts = [iv.start for iv in intervals]
        assert starts == sorted(starts)

    @given(pairs=st.lists(interval_pairs, min_size=0, max_size=10), value=st.floats(0, 1))
    @settings(**SETTINGS)
    def test_contains_matches_membership_in_some_input(self, pairs, value):
        ranges = IntervalSet.from_pairs(pairs)
        expected = any(at_least(value, lo) and at_least(hi, value) for lo, hi in pairs)
        assert ranges.contains(value) == expected

    @given(pairs=st.lists(interval_pairs, min_size=1, max_size=10))
    @settings(**SETTINGS)
    def test_total_length_does_not_exceed_span(self, pairs):
        ranges = IntervalSet.from_pairs(pairs)
        assert sum(i.length for i in ranges) <= ranges.span.length + 1e-9

    @given(
        a=st.lists(interval_pairs, min_size=0, max_size=6),
        b=st.lists(interval_pairs, min_size=0, max_size=6),
        value=st.floats(0, 1),
    )
    @settings(**SETTINGS)
    def test_union_and_intersection_pointwise(self, a, b, value):
        set_a = IntervalSet.from_pairs(a)
        set_b = IntervalSet.from_pairs(b)
        in_a = set_a.contains(value)
        in_b = set_b.contains(value)
        union = set_a.union(set_b)
        intersection = set_a.intersect(set_b)
        if in_a or in_b:
            assert union.contains(value)
        if in_a and in_b:
            assert intersection.contains(value)
        # intersection never contains a value missing from either operand
        if not in_a and not in_b:
            assert not intersection.contains(value)

    @given(pairs=st.lists(interval_pairs, min_size=0, max_size=8))
    @settings(**SETTINGS)
    def test_adding_in_any_order_is_equivalent(self, pairs):
        forward = IntervalSet.from_pairs(pairs)
        backward = IntervalSet.from_pairs(list(reversed(pairs)))
        assert forward == backward


@st.composite
def step_profiles(draw):
    """Random valid distance profiles (sorted levels, non-decreasing distances)."""
    n_levels = draw(st.integers(min_value=1, max_value=8))
    levels = sorted(
        set(
            draw(
                st.lists(
                    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
                    min_size=n_levels,
                    max_size=n_levels,
                )
            )
        )
    )
    if not levels:
        levels = [1.0]
    if levels[-1] < 1.0:
        levels.append(1.0)
    base = draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    steps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
            min_size=len(levels),
            max_size=len(levels),
        )
    )
    distances = base + np.cumsum(steps)
    return DistanceProfile(levels, distances)


class TestProfileProperties:
    @given(profile=step_profiles(), alpha=st.floats(min_value=0.01, max_value=1.0))
    @settings(**SETTINGS)
    def test_value_is_monotone(self, profile, alpha):
        assert profile.value(alpha) <= profile.value(1.0) + 1e-9
        assert profile.value(alpha) >= profile.value(profile.levels[0]) - 1e-9

    @given(profile=step_profiles(), alpha=st.floats(min_value=0.01, max_value=1.0))
    @settings(**SETTINGS)
    def test_next_critical_at_least_alpha_when_below_last(self, profile, alpha):
        critical = profile.next_critical(alpha)
        assert critical in profile.critical_set()
        if alpha <= profile.levels[-1]:
            assert critical >= min(alpha, float(profile.critical_set()[-1])) - 1e-9

    @given(profile=step_profiles())
    @settings(**SETTINGS)
    def test_critical_set_distances_strictly_increase(self, profile):
        critical = profile.critical_set()
        values = [profile.value(c) for c in critical]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))

    @given(profile=step_profiles(), threshold=st.floats(min_value=0.0, max_value=40.0))
    @settings(**SETTINGS)
    def test_safe_range_values_stay_below_threshold(self, profile, threshold):
        start = float(profile.levels[0])
        beta = profile.max_level_with_distance_below(threshold, start)
        if beta is None:
            assert profile.value(start) >= threshold
        else:
            assert profile.value(beta) < threshold
