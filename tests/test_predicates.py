"""The comparisons that decide without a read, each at the input that tells
its side and its tolerance apart.

Every test here is built to fail on one mutant of :mod:`repro.predicates`
or of a comparison that stays where it is (the mutant is named in each
docstring): a flipped side (``>=`` for ``>``, a searchsorted ``side``), a
negated or dropped tolerance, or a tolerance put back where the argument
says none is needed.  Random seeds do not find these inputs; each is
constructed.
"""

import math

import numpy as np
import pytest

from repro import reference
from repro.config import KDTREE_CROSSOVER_POINTS, PRUNE_MIN_POINTS, RuntimeConfig
from repro.core.database import FuzzyDatabase
from repro.core.requests import RangeRequest, SweepRequest
from repro.core.reverse_nn import count_test
from repro.exceptions import InvalidFuzzyObjectError
from repro.fuzzy.alpha_distance import alpha_distance, distance_profile
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.fuzzy.profile import DistanceProfile
from repro.geometry.distance import _closest_pair_brute, _closest_pair_kdtree, closest_pair_distance
from repro.index.soa import max_dist_to_boxes, min_dist_to_boxes, rep_to_samples_distances
from repro.metrics.counters import MetricsCollector
from repro.predicates import LEVEL_ATOL, above, at_least, first_above, first_at_least
from repro.service import ShardedDatabase
from repro.service.subscriptions import SubscriptionEngine
from tests.conftest import assert_same_assignments

CONFIG = RuntimeConfig(rtree_max_entries=4, cache_capacity=8)


def point(x, y, object_id=None):
    """A one-point object: every cut, box and representative is the point."""
    return FuzzyObject(np.array([[x, y]]), np.array([1.0]), object_id=object_id)


def engines(objects):
    return (
        FuzzyDatabase.build(list(objects), config=CONFIG),
        ShardedDatabase.build(list(objects), n_shards=3, placement="space", config=CONFIG),
    )


class TestLevels:
    """``LEVEL_ATOL``: each side of each level test, and its sign.

    ``alpha - LEVEL_ATOL`` and ``alpha + LEVEL_ATOL`` are taken in float,
    so a level sitting exactly on either edge is the same level as
    ``alpha``; one ulp further out it is not.
    """

    ALPHA = 0.5

    def edges(self):
        low, high = self.ALPHA - LEVEL_ATOL, self.ALPHA + LEVEL_ATOL
        return low, high, math.nextafter(low, -math.inf), math.nextafter(high, math.inf)

    def test_at_least_keeps_the_edge_and_drops_beyond_it(self):
        """Kills ``>=`` -> ``>`` (the edge drops) and ``- LEVEL_ATOL`` ->
        ``+`` (a normalised level just below drops)."""
        low, _, beyond, _ = self.edges()
        assert at_least(np.array([low, self.ALPHA]), self.ALPHA).all()
        assert not at_least(beyond, self.ALPHA)
        assert at_least(0.6999999999999999, 0.7) and at_least(0.7000000000000001, 0.7)

    def test_a_cut_holds_a_normalised_membership(self):
        """The site: ``alpha_cut(0.7)`` holds the point whose membership
        normalisation left at ``0.6999999999999999``."""
        obj = FuzzyObject(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.6999999999999999, 1.0]))
        assert obj.alpha_cut(0.7).shape[0] == 2
        assert obj.alpha_cut(math.nextafter(0.7 + LEVEL_ATOL, 1.0)).shape[0] == 1

    def test_above_is_strict_at_the_edge(self):
        """Kills ``>`` -> ``>=`` and ``+ LEVEL_ATOL`` -> ``-``."""
        _, high, _, beyond = self.edges()
        assert not above(np.array([high, self.ALPHA]), self.ALPHA).any()
        assert above(beyond, self.ALPHA)
        assert not above(1.0000000000000002, 1.0)

    def test_memberships_on_one_side_of_one(self):
        """The site: a membership a hair above 1 is 1, one beyond the
        tolerance is rejected; so is a threshold."""
        obj = FuzzyObject(np.array([[0.0, 0.0]]), np.array([1.0 + LEVEL_ATOL]))
        assert obj.memberships[0] == 1.0
        with pytest.raises(InvalidFuzzyObjectError):
            FuzzyObject(np.array([[0.0, 0.0]]), np.array([math.nextafter(1.0 + LEVEL_ATOL, 2.0)]))
        obj.alpha_cut(1.0 + LEVEL_ATOL)
        with pytest.raises(InvalidFuzzyObjectError):
            obj.alpha_cut(math.nextafter(1.0 + LEVEL_ATOL, 2.0))

    def test_first_at_least_lands_on_the_same_level(self):
        """Kills ``side="left"`` -> ``"right"`` (a level exactly on the edge
        is skipped) and the negated tolerance (a level just below is)."""
        low, _, beyond, _ = self.edges()
        levels = np.array([0.25, beyond, low, 0.75])
        assert first_at_least(levels, self.ALPHA) == 2
        assert first_at_least(np.array([0.25, 0.6999999999999999, 1.0]), 0.7) == 1
        assert list(first_at_least(levels, np.array([0.25, 0.75, 1.0]))) == [0, 3, 4]

    def test_first_above_skips_the_same_level(self):
        """Kills ``side="right"`` -> ``"left"`` (a level exactly on the edge
        counts as above) and the negated tolerance (the same level does)."""
        _, high, _, beyond = self.edges()
        levels = np.array([0.25, self.ALPHA, high, beyond, 0.75])
        assert first_above(levels, self.ALPHA) == 3
        assert first_above(np.array([0.25, 0.7000000000000001, 1.0]), 0.7) == 2

    def test_a_profile_reads_the_level_of_its_threshold(self):
        """The sites in ``DistanceProfile``: ``value`` at 0.7 is the piece
        ending at the level ``0.6999999999999999``, and ``next_critical``
        returns that level."""
        profile = DistanceProfile([0.6999999999999999, 1.0], [1.0, 2.0])
        assert profile.value(0.7) == 1.0
        assert profile.value(math.nextafter(0.7 + LEVEL_ATOL, 1.0)) == 2.0
        assert profile.next_critical(0.7) == 0.6999999999999999


class TestBoundsHoldInFloat:
    """``L <= d_alpha <= U`` bit for bit, the argument that lets
    :func:`~repro.predicates.may_reach` and
    :func:`~repro.predicates.confirms` carry no slack.

    ``MinDist`` / ``MaxDist`` between the cut boxes, Lemma 1 from a point of
    one set to the other set, and the exact distance by every path (the
    default front end, brute force, KD-tree), for d = 1 … 7, set sizes on
    both sides of ``PRUNE_MIN_POINTS`` and ``KDTREE_CROSSOVER_POINTS``,
    coordinates of every magnitude, and coordinates on a grid (exact ties
    between a box gap and a point gap).
    """

    SIZES = (1, 3, 40, PRUNE_MIN_POINTS, KDTREE_CROSSOVER_POINTS + 8)

    def pairs(self, count=160, seed=21):
        rng = np.random.default_rng(seed)
        for trial in range(count):
            d = 1 + trial % 7
            scale = 10.0 ** int(rng.integers(-3, 5))
            a = rng.normal(size=(int(rng.choice(self.SIZES)), d)) * scale
            b = rng.normal(size=(int(rng.choice(self.SIZES)), d)) * scale
            b += rng.normal(size=d) * scale * float(rng.choice([0.5, 2.0, 6.0]))
            if trial % 3 == 0:
                a, b = np.round(a / scale, 1), np.round(b / scale, 1)
            yield a, b

    def test_box_bounds_and_lemma_1_bracket_every_exact_path(self):
        for a, b in self.pairs():
            lo_b, hi_b = b.min(axis=0), b.max(axis=0)
            lower = min_dist_to_boxes(lo_b, hi_b, a.min(axis=0)[None], a.max(axis=0)[None])[0]
            upper = max_dist_to_boxes(lo_b, hi_b, a.min(axis=0)[None], a.max(axis=0)[None])[0]
            lemma1 = rep_to_samples_distances(a[:2], b).min()
            exact = closest_pair_distance(a, b)
            assert exact == _closest_pair_brute(a, b)[0] == _closest_pair_kdtree(a, b)[0]
            assert lower <= exact <= min(upper, lemma1), (a.shape, b.shape)

    def test_the_stored_alpha_boxes_bound_every_object_in_three_dimensions(self):
        """The improved bound's box, read the way the descent reads it
        (``NodeSoA.approx_alpha_bounds``), against the exact distance."""
        rng = np.random.default_rng(5)
        objects = [
            FuzzyObject(
                rng.normal(size=(n, 3)) + rng.uniform(-6, 6, size=3),
                np.append(rng.choice([0.2, 0.45, 0.5, 0.8], size=n - 1), 1.0),
                object_id=i,
            )
            for i, n in enumerate(rng.integers(2, 30, size=40).tolist())
        ]
        query = objects[0]
        db = FuzzyDatabase.build(objects[1:], config=CONFIG)
        try:
            for alpha in (0.2, 0.45, 0.5, 0.8, 1.0):
                cut = query.alpha_cut(alpha)
                for soa in db.tree.leaf_views():
                    lo, hi = soa.approx_alpha_bounds(alpha)
                    lower = min_dist_to_boxes(cut.min(axis=0), cut.max(axis=0), lo, hi)
                    upper = max_dist_to_boxes(cut.min(axis=0), cut.max(axis=0), lo, hi)
                    for oid, low, up in zip(soa.object_ids.tolist(), lower, upper):
                        exact = alpha_distance(db.get_object(oid), query, alpha)
                        assert low <= exact <= up, (oid, alpha)
        finally:
            db.close()


class TestPruneAndConfirm:
    """An object exactly at the radius, where ``L == d == U`` (a 3-4-5
    triangle between one-point objects)."""

    TARGET = 20

    def objects(self):
        fillers = [point(12.0 + i, 9.0 + 2.0 * i, object_id=i) for i in range(11)]
        return fillers + [point(3.0, 4.0, object_id=self.TARGET)]

    def test_the_descent_keeps_and_the_bounds_confirm_a_hit_at_the_radius(self):
        """Kills ``may_reach``'s ``<=`` -> ``<`` (the hit is pruned) and
        ``confirms``' ``<=`` -> ``<`` (the hit is read)."""
        query = point(0.0, 0.0)
        for engine in engines(self.objects()):
            try:
                before = engine.object_accesses
                result = engine.execute(RangeRequest(query, alpha=0.5, radius=5.0))
                assert result.matches == [(self.TARGET, None)]
                assert result.upper_bounds == {self.TARGET: 5.0}
                assert engine.object_accesses == before
            finally:
                engine.close()

    def test_an_object_just_beyond_the_radius_is_neither_kept_nor_read(self):
        """Kills a slack put back on ``may_reach``: 3.2e-9 beyond the radius
        is inside the old ``tau * (1 + 1e-9) + 1e-9``, so the hit was read."""
        beyond = self.objects()[:-1] + [point(3.0, 4.0 + 4e-9, object_id=self.TARGET)]
        for engine in engines(beyond):
            try:
                before = engine.object_accesses
                result = engine.execute(RangeRequest(point(0.0, 0.0), alpha=0.5, radius=5.0))
                assert result.matches == [] and engine.object_accesses == before
            finally:
                engine.close()

    def test_the_subscription_screen_passes_an_insert_at_the_radius(self):
        """Kills the screen's ``<=`` -> ``<``: the insert never enters."""
        objects = self.objects()
        db = FuzzyDatabase.build(objects[:-1], config=CONFIG)
        engine = SubscriptionEngine(db, metrics=MetricsCollector())
        db.add_update_listener(engine)
        try:
            sub = engine.subscribe(RangeRequest(point(0.0, 0.0), alpha=0.5, radius=5.0))
            assert not sub.members
            db.insert(objects[-1])
            assert sub.members == {self.TARGET: 5.0}
        finally:
            db.close()


class TestCriticalSet:
    """A distance that rises by two ulps is a rise.

    ``A`` is at 1 below level 0.5 and two ulps above 1 from there up; ``B``
    is one ulp above 1 throughout.  For k = 1 the nearest neighbour is ``A``
    up to 0.5 and ``B`` after it.  A critical set that ignored rises below
    1e-15 never saw 0.5 and gave ``A`` the whole range in the ``basic`` and
    ``rss`` sweeps.
    """

    def objects(self):
        one_ulp = math.nextafter(1.0, 2.0)
        two_ulps = math.nextafter(one_ulp, 2.0)
        a = FuzzyObject(np.array([[1.0, 0.0], [two_ulps, 0.0]]), np.array([0.5, 1.0]), object_id=1)
        b = FuzzyObject(np.array([[one_ulp, 0.0]]), np.array([1.0]), object_id=2)
        far = [point(20.0 + i, 20.0, object_id=3 + i) for i in range(6)]
        return [a, b] + far

    def test_the_rise_is_critical(self):
        profile = distance_profile(self.objects()[0], point(0.0, 0.0))
        assert list(profile.critical_set()) == [0.5, 1.0]

    @pytest.mark.parametrize("method", ["basic", "rss", "rss_icr"])
    def test_every_sweep_follows_the_reference(self, method):
        objects, query = self.objects(), point(0.0, 0.0)
        truth = reference.sweep(objects, query, 1, (0.3, 0.8))
        assert truth == {1: [(0.3, 0.5)], 2: [(0.5, 0.8)]}
        for engine in engines(objects):
            try:
                request = SweepRequest(query, k=1, alpha_range=(0.3, 0.8), method=method)
                assert_same_assignments(engine.execute(request).assignments, truth)
            finally:
                engine.close()

    def test_a_profile_that_falls_by_one_ulp_is_rejected(self):
        """Kills a tolerance put back on the monotonicity check."""
        DistanceProfile([0.5, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            DistanceProfile([0.5, 1.0], [math.nextafter(1.0, 2.0), 1.0])


class TestRangeStartsOnALevel:
    """A range that starts a hair above a level, the same level as it.

    ``A`` is nearest up to the level 0.7 (stored as ``0.6999999999999998``)
    and the sweep asks for ``(0.7, 0.95)``: ``A`` qualifies at 0.7 alone.
    The Lemma 2 step from 0.7 finds that level, below the range's start;
    the ``basic`` and ``rss`` sweeps used to report ``A`` on the reversed
    interval ``[0.7, 0.6999999999999998]`` and the next neighbour from
    ``0.6999999999999998``, outside the range.
    """

    def test_every_sweep_follows_the_reference(self):
        level = 0.6999999999999998
        a = FuzzyObject(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([level, 1.0]), object_id=1)
        b = point(1.5, 0.0, object_id=2)
        c = FuzzyObject(np.array([[3.0, 0.0], [1.2, 0.0]]), np.array([1.0, 0.9]), object_id=3)
        objects = [a, b, c] + [point(20.0 + i, 20.0, object_id=4 + i) for i in range(5)]
        query = point(0.0, 0.0)
        truth = reference.sweep(objects, query, 1, (0.7, 0.95))
        assert truth == {1: [(0.7, 0.7)], 3: [(0.7, 0.9)], 2: [(0.9, 0.95)]}
        for engine in engines(objects):
            try:
                for method in ("basic", "rss", "rss_icr"):
                    request = SweepRequest(query, k=1, alpha_range=(0.7, 0.95), method=method)
                    assert_same_assignments(engine.execute(request).assignments, truth)
            finally:
                engine.close()


class TestCountTestSides:
    """``count_test`` at an exact tie ``L(A, B) == U(A, Q)`` (and
    ``U(A, B) == L(A, Q)``): ``B`` may be closer but is not surely closer,
    so with k = 1 the pair stays open for a read.  Kills ``near_lower <=
    upper`` -> ``<`` (the pair is decided in) and ``near_upper < lower`` ->
    ``<=`` (decided out)."""

    def test_a_tie_leaves_the_pair_open(self):
        tie = np.array([1.0])
        decided_in, decided_out, sure, open_ = count_test(tie, tie, tie[:, None], tie[:, None], 1)
        assert not decided_in[0] and not decided_out[0]
        assert not sure[0, 0] and open_[0, 0]
