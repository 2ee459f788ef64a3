"""Unit tests for :class:`DistanceProfile` (critical probabilities, safe ranges)."""

import numpy as np
import pytest

from repro.exceptions import InvalidQueryError
from repro.fuzzy.profile import DistanceProfile


def step_profile():
    """Levels 0.2/0.5/0.8/1.0 with distances 1, 1, 3, 7 (flat piece at the start)."""
    return DistanceProfile([0.2, 0.5, 0.8, 1.0], [1.0, 1.0, 3.0, 7.0])


class TestConstruction:
    def test_valid(self):
        profile = step_profile()
        assert profile.levels.size == 4
        assert profile.min_distance == 1.0
        assert profile.max_distance == 7.0

    def test_rejects_unsorted_levels(self):
        with pytest.raises(ValueError):
            DistanceProfile([0.5, 0.2], [1.0, 2.0])

    def test_rejects_levels_outside_unit(self):
        with pytest.raises(ValueError):
            DistanceProfile([0.0, 0.5], [1.0, 2.0])
        with pytest.raises(ValueError):
            DistanceProfile([0.5, 1.2], [1.0, 2.0])

    def test_rejects_decreasing_distances(self):
        with pytest.raises(ValueError):
            DistanceProfile([0.2, 0.8], [3.0, 1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            DistanceProfile([0.2, 0.8], [1.0])

    def test_constant_constructor(self):
        """One level at 1.0: the same distance at every threshold."""
        profile = DistanceProfile([1.0], [4.2])
        assert profile.value(0.3) == 4.2
        assert profile.value(1.0) == 4.2

    def test_from_pairs_sorts(self):
        profile = DistanceProfile.from_pairs([(1.0, 5.0), (0.3, 2.0)])
        assert profile.levels[0] == pytest.approx(0.3)
        assert profile.value(0.2) == 2.0


class TestEvaluation:
    def test_value_respects_piece_semantics(self):
        profile = step_profile()
        # distance for alpha in (0, 0.2] is 1.0, (0.2, 0.5] is 1.0,
        # (0.5, 0.8] is 3.0, (0.8, 1.0] is 7.0
        assert profile.value(0.1) == 1.0
        assert profile.value(0.2) == 1.0
        assert profile.value(0.5) == 1.0
        assert profile.value(0.500001) == 3.0
        assert profile.value(0.8) == 3.0
        assert profile.value(0.9) == 7.0
        assert profile.value(1.0) == 7.0

    def test_value_outside_domain_raises(self):
        profile = step_profile()
        with pytest.raises(InvalidQueryError):
            profile.value(0.0)
        with pytest.raises(InvalidQueryError):
            profile.value(1.1)

    def test_values_vectorised(self):
        profile = step_profile()
        np.testing.assert_allclose(
            profile.values([0.1, 0.6, 1.0]), [1.0, 3.0, 7.0]
        )


class TestCriticalProbabilities:
    def test_critical_set(self):
        profile = step_profile()
        # 0.2 is NOT critical (distance stays 1.0 after it); 0.5 and 0.8 are;
        # the last level is always included.
        np.testing.assert_allclose(profile.critical_set(), [0.5, 0.8, 1.0])

    def test_next_critical(self):
        profile = step_profile()
        assert profile.next_critical(0.1) == pytest.approx(0.5)
        assert profile.next_critical(0.5) == pytest.approx(0.5)
        assert profile.next_critical(0.51) == pytest.approx(0.8)
        assert profile.next_critical(0.95) == pytest.approx(1.0)
        assert profile.next_critical(1.0) == pytest.approx(1.0)

    def test_flat_profile_single_critical(self):
        profile = DistanceProfile([0.4, 1.0], [2.0, 2.0])
        np.testing.assert_allclose(profile.critical_set(), [1.0])


class TestSafeRanges:
    def test_max_level_with_distance_below(self):
        profile = step_profile()
        # starting at 0.1 (distance 1), threshold 5 -> levels 0.2, 0.5, 0.8 all
        # have distance < 5, so the answer is 0.8.
        assert profile.max_level_with_distance_below(5.0, 0.1) == pytest.approx(0.8)
        # threshold 2 -> only up to 0.5.
        assert profile.max_level_with_distance_below(2.0, 0.1) == pytest.approx(0.5)
        # threshold 10 -> the whole profile qualifies.
        assert profile.max_level_with_distance_below(10.0, 0.1) == pytest.approx(1.0)

    def test_returns_none_when_start_already_exceeds(self):
        profile = step_profile()
        assert profile.max_level_with_distance_below(1.0, 0.1) is None
        assert profile.max_level_with_distance_below(0.5, 0.9) is None


class TestRestrictionAndSteps:
    def test_steps_cover_domain(self):
        profile = step_profile()
        steps = profile.steps()
        assert steps[0][0] == 0.0
        assert steps[-1][1] == pytest.approx(1.0)
        # pieces are contiguous
        for (_, end, _), (start, _, _) in zip(steps, steps[1:]):
            assert end == pytest.approx(start)

    def test_equality_and_repr(self):
        assert step_profile() == step_profile()
        assert step_profile() != DistanceProfile([1.0], [1.0])
        assert "DistanceProfile" in repr(step_profile())
