"""Unit tests for the closed-interval algebra used by RKNN qualifying ranges."""

import pytest

from repro.fuzzy.intervals import Interval, IntervalSet


class TestInterval:
    def test_basic_properties(self):
        interval = Interval(0.2, 0.6)
        assert interval.length == pytest.approx(0.4)
        assert interval.contains(0.2)
        assert interval.contains(0.6)
        assert interval.contains(0.4)
        assert not interval.contains(0.7)

    def test_degenerate_interval(self):
        point = Interval(0.5, 0.5)
        assert point.length == 0.0
        assert point.contains(0.5)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(0.7, 0.2)

    def test_overlaps(self):
        assert Interval(0.1, 0.5).overlaps(Interval(0.5, 0.9))
        assert Interval(0.1, 0.5).overlaps(Interval(0.3, 0.4))
        assert not Interval(0.1, 0.2).overlaps(Interval(0.5, 0.9))

    def test_merge(self):
        merged = Interval(0.1, 0.5).merge(Interval(0.4, 0.9))
        assert merged == Interval(0.1, 0.9)

    def test_intersect(self):
        assert Interval(0.1, 0.5).intersect(Interval(0.3, 0.9)) == Interval(0.3, 0.5)
        assert Interval(0.1, 0.2).intersect(Interval(0.5, 0.9)) is None

    def test_repr(self):
        assert "[" in repr(Interval(0.1, 0.2))


class TestIntervalSet:
    def test_empty(self):
        assert len(IntervalSet.empty()) == 0
        assert IntervalSet.empty().span is None

    def test_add_disjoint_keeps_both(self):
        ranges = IntervalSet()
        ranges.add_range(0.1, 0.2)
        ranges.add_range(0.5, 0.6)
        assert len(ranges) == 2
        assert sum(i.length for i in ranges) == pytest.approx(0.2)

    def test_add_overlapping_merges(self):
        ranges = IntervalSet()
        ranges.add_range(0.1, 0.4)
        ranges.add_range(0.3, 0.6)
        assert len(ranges) == 1
        assert ranges.intervals[0] == Interval(0.1, 0.6)

    def test_add_adjacent_merges(self):
        ranges = IntervalSet()
        ranges.add_range(0.1, 0.4)
        ranges.add_range(0.4, 0.6)
        assert len(ranges) == 1

    def test_chain_merge(self):
        """Adding an interval bridging two existing ones collapses all three."""
        ranges = IntervalSet.from_pairs([(0.1, 0.2), (0.5, 0.6)])
        ranges.add_range(0.2, 0.5)
        assert len(ranges) == 1
        assert ranges.intervals[0] == Interval(0.1, 0.6)

    def test_contains(self):
        ranges = IntervalSet.from_pairs([(0.1, 0.2), (0.5, 0.6)])
        assert ranges.contains(0.15)
        assert ranges.contains(0.5)
        assert not ranges.contains(0.35)

    def test_span(self):
        ranges = IntervalSet.from_pairs([(0.1, 0.2), (0.5, 0.6)])
        assert ranges.span == Interval(0.1, 0.6)

    def test_intersect(self):
        a = IntervalSet.from_pairs([(0.1, 0.4), (0.6, 0.9)])
        b = IntervalSet.from_pairs([(0.3, 0.7)])
        overlap = a.intersect(b)
        assert len(overlap) == 2
        assert overlap.intervals[0] == Interval(0.3, 0.4)
        assert overlap.intervals[1] == Interval(0.6, 0.7)

    def test_union(self):
        a = IntervalSet.from_pairs([(0.1, 0.3)])
        b = IntervalSet.from_pairs([(0.2, 0.5), (0.8, 0.9)])
        union = a.union(b)
        assert len(union) == 2
        assert sum(i.length for i in union) == pytest.approx(0.5)

    def test_clipped(self):
        ranges = IntervalSet.from_pairs([(0.1, 0.9)])
        clipped = ranges.clipped(0.3, 0.5)
        assert clipped.intervals[0] == Interval(0.3, 0.5)

    def test_copy_is_independent(self):
        a = IntervalSet.single(0.1, 0.2)
        b = a.copy()
        b.add_range(0.5, 0.6)
        assert len(a) == 1
        assert len(b) == 2

    def test_iteration_sorted(self):
        ranges = IntervalSet.from_pairs([(0.7, 0.8), (0.1, 0.2), (0.4, 0.5)])
        starts = [interval.start for interval in ranges]
        assert starts == sorted(starts)

    def test_equality_and_repr(self):
        a = IntervalSet.from_pairs([(0.1, 0.2)])
        b = IntervalSet.from_pairs([(0.1, 0.2)])
        assert a == b
        assert "IntervalSet" in repr(a)
