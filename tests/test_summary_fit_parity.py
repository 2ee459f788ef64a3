"""Reference parity for the summary fit, and the Equation (2) box's enclosure.

The summary fit once read each level's alpha-cut box with its own
``searchsorted`` and fed the monotone chain every ``(alpha, delta)`` pair of
each boundary function.  Those loops live on *here*, as references: the
vectorised table and the fit from the ends of the runs of equal deltas must
equal them bit for bit on generated objects that aim at what the shortcut
depends on — long runs of equal deltas (a handful of levels), all-distinct
levels, duplicate points, memberships 1e-13 apart around ``LEVEL_ATOL``,
a single level, kernel-only objects, exactly collinear staircases and
coordinates offset by 1e8.

The lines are then lifted (``boundary._stack_lift``) so the Equation (2)
box encloses every exact alpha-cut box in coordinates.  ``build_summary``
must equal the reference lines with that lift, and the box must enclose the
cut with no slack at every level, between levels, below the lowest level and
just above a level (where the cut still holds it).  Every path that writes a summary —
bulk build, one-by-one insert, a sharded build and WAL replay — must store
the same one, and a stacked build (``build_summaries``), chunked anywhere,
must give every object the reference's lines bit for bit.
"""

from typing import List, Sequence, Tuple
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import RuntimeConfig
from repro.core.database import FuzzyDatabase
from repro.fuzzy.boundary import _stack_lift, _stack_lines
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.fuzzy import summary as summary_module
from repro.fuzzy.summary import build_summaries, build_summary
from repro.metrics.counters import MetricsCollector
from repro.predicates import LEVEL_ATOL
from repro.service.sharded import ShardedDatabase

from tests.conftest import cut_table, make_fuzzy_object

SETTINGS = dict(max_examples=80, deadline=None)
# The reference fit's own copy of ``repro.predicates.CONSERVATIVE_SLACK``, so
# a change to the library's value shows as a line that is no longer equal.
CONSERVATIVE_SLACK = 1e-9


# ----------------------------------------------------------------------
# The replaced fit (commit 1d992f6), kept as the reference
# ----------------------------------------------------------------------
def reference_alpha_mbr_table(obj):
    levels = obj.distinct_memberships()
    order = np.argsort(obj.memberships, kind="stable")
    pts = obj.points[order]
    mus = obj.memberships[order]
    suffix_min = np.minimum.accumulate(pts[::-1], axis=0)[::-1]
    suffix_max = np.maximum.accumulate(pts[::-1], axis=0)[::-1]
    lower = np.empty((levels.size, obj.dimensions))
    upper = np.empty((levels.size, obj.dimensions))
    for j, level in enumerate(levels):
        start = int(np.searchsorted(mus, level - LEVEL_ATOL, side="left"))
        start = min(start, pts.shape[0] - 1)
        lower[j] = suffix_min[start]
        upper[j] = suffix_max[start]
    return levels, lower, upper


def _reference_cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def reference_upper_convex_hull(points: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    pts = sorted({(float(x), float(y)) for x, y in points})
    if len(pts) <= 2:
        return pts
    upper: List[Tuple[float, float]] = []
    for p in pts:
        while len(upper) >= 2 and _reference_cross(upper[-2], upper[-1], p) >= 0:
            upper.pop()
        upper.append(p)
    return upper


def _reference_anchor_line(alphas, deltas, anchor):
    x0, y0 = anchor
    dx = alphas - x0
    dy = deltas - y0
    denom = float(np.dot(dx, dx))
    if denom <= 0.0:
        slope = 0.0
    else:
        slope = float(np.dot(dx, dy) / denom)
    return slope, y0 - slope * x0


def reference_fit_line(levels, deltas) -> Tuple[float, float]:
    order = np.argsort(levels)
    pairs = [(float(levels[i]), float(deltas[i])) for i in order]
    alphas = np.asarray([p[0] for p in pairs])
    deltas = np.asarray([p[1] for p in pairs])
    if alphas.size == 1 or bool(np.all(deltas <= CONSERVATIVE_SLACK)):
        return 0.0, float(deltas.max(initial=0.0))
    hull = reference_upper_convex_hull(list(zip(alphas, deltas)))
    lo, hi = 0, len(hull) - 1
    best = _reference_anchor_line(alphas, deltas, hull[lo])
    while lo <= hi:
        mid = (lo + hi) // 2
        line = _reference_anchor_line(alphas, deltas, hull[mid])
        best = line
        pred_above = (
            mid > 0
            and hull[mid - 1][1] > line[0] * hull[mid - 1][0] + line[1] + CONSERVATIVE_SLACK
        )
        succ_above = (
            mid < len(hull) - 1
            and hull[mid + 1][1] > line[0] * hull[mid + 1][0] + line[1] + CONSERVATIVE_SLACK
        )
        if not pred_above and not succ_above:
            break
        if succ_above:
            lo = mid + 1
        else:
            hi = mid - 1
    if best[0] > 0.0:
        best = (0.0, float(deltas.max()))
    violation = float(np.max(deltas - (best[0] * alphas + best[1])))
    if violation > 0.0:
        best = (best[0], best[1] + violation + CONSERVATIVE_SLACK)
    return best


def line_bounds(lower, upper):
    """A table's ``2 d`` line bounds: the upper side, then the negated lower."""
    return np.concatenate((upper, -lower), axis=-1)


def lift(levels, lower, upper, kernel, slopes, intercepts):
    """The summary fit's Equation (2) lift of one object's lines."""
    base = line_bounds(kernel.lower, kernel.upper)
    table = line_bounds(lower, upper)
    return _stack_lift(levels[None], table[None], base[None], slopes[None], intercepts[None])[0]


def reference_lines(obj) -> Tuple[np.ndarray, np.ndarray]:
    """``(slopes, intercepts)``: the upper side by dimension, then the lower side."""
    levels, lower, upper = reference_alpha_mbr_table(obj)
    kernel_idx = levels.size - 1
    lines = [
        reference_fit_line(levels, np.abs(table[:, dim] - table[kernel_idx, dim]))
        for table in (upper, lower)
        for dim in range(obj.dimensions)
    ]
    return np.array([m for m, _ in lines]), np.array([t for _, t in lines])


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
SHAPES = ("distinct", "few", "atol", "kernel_only", "single", "staircase")
# Every shape but "single" (one level below 1: no kernel, so no summary).
WITH_KERNEL = tuple(shape for shape in SHAPES if shape != "single")


@st.composite
def fuzzy_objects(draw, shapes=SHAPES):
    n = draw(st.one_of(st.integers(1, 40), st.integers(41, 1000)))
    dims = draw(st.sampled_from([1, 2, 3]))
    shape = draw(st.sampled_from(shapes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.normal(scale=draw(st.sampled_from([1.0, 1e-3, 50.0])), size=(n, dims))
    if shape == "distinct":
        mus = np.clip(rng.random(n), 1e-3, 1.0)
    elif shape == "few":
        mus = rng.choice(np.clip(np.round(rng.random(int(rng.integers(1, 6))), 2), 0.01, 1.0), n)
    elif shape == "atol":
        bases = np.clip(np.round(rng.random(int(rng.integers(1, 4))), 2), 0.05, 1.0)
        mus = np.minimum(rng.choice(bases, n) + rng.integers(-15, 16, n) * 1e-13, 1.0)
    elif shape in ("kernel_only", "single"):
        mus = np.full(n, 1.0 if shape == "kernel_only" else 0.5)
    else:
        # Exactly collinear deltas on both sides: coordinate +-k/2 at 1 - k/8.
        steps = rng.integers(0, 8, n)
        mus = 1.0 - steps / 8.0
        points = (steps * 0.5 * rng.choice([-1.0, 1.0], n))[:, None] * np.ones(dims)
    if shape != "single":
        mus[int(rng.integers(0, n))] = 1.0
    if draw(st.booleans()) and n > 1:
        copies = rng.integers(0, n, n // 2)
        points[rng.integers(0, n, copies.size)] = points[copies]
    points = points + draw(st.sampled_from([0.0, 1e8]))
    return FuzzyObject(points, mus, object_id=7, require_kernel=shape != "single")


def _summary_alphas(obj) -> np.ndarray:
    """Every level, just above each level, every midpoint, and below the lowest."""
    levels = obj.distinct_memberships()
    above = np.minimum(levels + LEVEL_ATOL, 1.0 + LEVEL_ATOL)
    return np.concatenate((levels, above, (levels[1:] + levels[:-1]) / 2.0, levels[:1] / 2.0))


def enclosure_failures(obj) -> int:
    summary = build_summary(obj)
    failures = 0
    for alpha in _summary_alphas(obj).tolist():
        approx, true = summary.approx_alpha_mbr(alpha), obj.alpha_mbr(alpha)
        failures += bool(np.any(approx.lower > true.lower) or np.any(approx.upper < true.upper))
    return failures


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------
class TestFitParity:
    @given(obj=fuzzy_objects())
    @settings(**SETTINGS)
    def test_table_equals_reference(self, obj):
        for new, old in zip(cut_table(obj), reference_alpha_mbr_table(obj)):
            assert np.array_equal(new, old)

    @given(obj=fuzzy_objects())
    @settings(**SETTINGS)
    def test_lines_before_the_lift_equal_reference(self, obj):
        levels, lower, upper = cut_table(obj)
        slopes, intercepts = _stack_lines(levels[None], line_bounds(lower, upper)[None])
        ref_slopes, ref_intercepts = reference_lines(obj)
        assert slopes[0].tolist() == ref_slopes.tolist()
        assert intercepts[0].tolist() == ref_intercepts.tolist()

    @given(obj=fuzzy_objects(shapes=WITH_KERNEL))
    @settings(**SETTINGS)
    def test_summary_equals_reference_lines_lifted(self, obj):
        levels, lower, upper = reference_alpha_mbr_table(obj)
        kernel = obj.kernel_mbr()
        slopes, intercepts = reference_lines(obj)
        lifted = lift(levels, lower, upper, kernel, slopes, intercepts)
        dims = obj.dimensions
        expected = {
            "object_id": 7,
            "n_points": obj.size,
            "support_mbr": obj.support_mbr().to_array().tolist(),
            "kernel_mbr": kernel.to_array().tolist(),
            "upper_lines": list(zip(slopes[:dims].tolist(), lifted[:dims].tolist())),
            "lower_lines": list(zip(slopes[dims:].tolist(), lifted[dims:].tolist())),
            "representative": obj.representative_point().tolist(),
        }
        assert build_summary(obj).to_dict() == expected


# ----------------------------------------------------------------------
# Enclosure in coordinates
# ----------------------------------------------------------------------
class TestEnclosure:
    def test_rounding_reproducer(self):
        """``kernel - (kernel - lower)`` need not round back to ``lower``."""
        rng = np.random.default_rng(7)
        pts = rng.random((20, 2)) * 10
        mus = np.clip(np.round(rng.random(20), 2), 0.01, 1.0)
        mus[0] = 1.0
        obj = FuzzyObject(pts, mus, object_id=0)
        approx = build_summary(obj).approx_alpha_mbr(0.98)
        true = obj.alpha_mbr(0.98)
        assert np.all(approx.lower <= true.lower)
        assert np.all(approx.upper >= true.upper)

    def test_no_failures_at_any_offset(self):
        rng = np.random.default_rng(11)
        for offset in (0.0, 1e4, 1e6, 1e8):
            failures = 0
            for object_id in range(60):
                n = int(rng.integers(5, 40))
                mus = np.clip(np.round(rng.random(n), 2), 0.01, 1.0)
                mus[0] = 1.0
                obj = FuzzyObject(rng.random((n, 2)) * 10 + offset, mus, object_id=object_id)
                failures += enclosure_failures(obj)
            assert failures == 0, offset

    @given(obj=fuzzy_objects(shapes=WITH_KERNEL))
    @settings(**SETTINGS)
    def test_generated_objects(self, obj):
        assert enclosure_failures(obj) == 0


# ----------------------------------------------------------------------
# Every writer stores the same summary
# ----------------------------------------------------------------------
def _writer_objects():
    rng = np.random.default_rng(41)
    objects = [
        make_fuzzy_object(rng, n_points=int(rng.integers(1, 60)), object_id=i) for i in range(24)
    ]
    # A handful of levels (long runs of equal deltas) and levels 1e-13 apart.
    for object_id in (24, 25):
        mus = rng.choice([0.2, 0.5, 0.5 + 3e-13, 1.0 - 2e-13, 1.0], 40)
        mus[0] = 1.0
        objects.append(FuzzyObject(rng.random((40, 2)) * 10.0, mus, object_id=object_id))
    return objects


def _dicts(databases) -> dict:
    return {
        object_id: summary.to_dict()
        for db in databases
        for object_id, summary in db.summaries.items()
    }


class TestEveryWriterSameSummaries:
    def test_build_insert_shards_and_replay_agree(self, tmp_path):
        objects = _writer_objects()
        config = RuntimeConfig(snapshot_every=0)
        expected = {obj.object_id: build_summary(obj).to_dict() for obj in objects}

        built = FuzzyDatabase.build(objects, config=config)
        inserted = FuzzyDatabase.build([], config=config)
        for obj in objects:
            inserted.insert(obj)
        sharded = ShardedDatabase.build(objects, n_shards=3, config=config)
        durable = FuzzyDatabase.build(objects[:10], config=config)
        durable.enable_durability(tmp_path / "durable")
        for obj in objects[10:]:
            durable.insert(obj)
        # Crash: the handle is dropped without close(); replay the WAL tail.
        recovered = FuzzyDatabase.recover(tmp_path / "durable", config=config, resume=False)
        assert recovered.metrics.as_dict().get(MetricsCollector.WAL_REPLAYED) == len(objects) - 10

        assert _dicts([built]) == expected
        assert _dicts([inserted]) == expected
        assert _dicts(shard.db for shard in sharded._shards) == expected
        assert _dicts([recovered]) == expected
        for db in (built, inserted, sharded, durable, recovered):
            db.close()


# ----------------------------------------------------------------------
# A stacked build equals the per-object reference
# ----------------------------------------------------------------------
def reference_summary(obj, representative) -> dict:
    """The summary the reference fit gives ``obj``, as ``to_dict()`` does."""
    levels, lower, upper = reference_alpha_mbr_table(obj)
    kernel = obj.kernel_mbr()
    slopes, intercepts = reference_lines(obj)
    lifted = lift(levels, lower, upper, kernel, slopes, intercepts)
    dims = obj.dimensions
    return {
        "object_id": obj.object_id,
        "n_points": obj.size,
        "support_mbr": obj.support_mbr().to_array().tolist(),
        "kernel_mbr": kernel.to_array().tolist(),
        "upper_lines": list(zip(slopes[:dims].tolist(), lifted[:dims].tolist())),
        "lower_lines": list(zip(slopes[dims:].tolist(), lifted[dims:].tolist())),
        "representative": representative.tolist(),
    }


def line_bits(payload: dict) -> List[str]:
    return [
        float(value).hex()
        for side in ("upper_lines", "lower_lines")
        for line in payload[side]
        for value in line
    ]


@st.composite
def object_batches(draw):
    """1-12 objects of every shape with a kernel.  Some get a sibling of the
    same shape whose memberships are coarsened to tenths, so one stack
    holds several objects of different level counts."""
    batch = []
    for obj in draw(st.lists(fuzzy_objects(shapes=WITH_KERNEL), min_size=1, max_size=8)):
        batch.append(obj)
        if draw(st.booleans()):
            coarse = np.clip(np.round(obj.memberships, 1), 0.1, 1.0)
            batch.append(FuzzyObject(obj.points[::-1].copy(), coarse))
    return [obj.with_id(object_id) for object_id, obj in enumerate(batch[:12])]


class TestStackedBuild:
    @given(
        batch=object_batches(),
        chunk=st.integers(1, 3000),
        seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_object_reference(self, batch, chunk, seed):
        """Chunked anywhere, ``build_summaries`` gives every object the
        reference's lines bit for bit, its boxes, and the representative a
        sequential loop draws (the first kernel point without a generator)."""
        rng = None if seed is None else np.random.default_rng(seed)
        with mock.patch.object(summary_module, "_CHUNK_POINTS", chunk):
            summaries = build_summaries(batch, rng=rng)
        draws = None if seed is None else np.random.default_rng(seed)
        assert [s.object_id for s in summaries] == [obj.object_id for obj in batch]
        for obj, summary in zip(batch, summaries):
            got = summary.to_dict()
            expected = reference_summary(obj, obj.representative_point(draws))
            assert got == expected
            assert line_bits(got) == line_bits(expected)
            assert [v.hex() for v in got["representative"]] == [
                v.hex() for v in expected["representative"]
            ]

    def test_stacked_matmul_is_ddot(self):
        """The bisection's two sums are one stacked ``matmul`` of
        ``(R, 1, L) @ (R, L, 1)``; the reference took ``np.dot`` of each row.
        Both must be the same BLAS ``ddot``, bit for bit, at every length the
        fit meets (one level up to a thousand)."""
        rng = np.random.default_rng(5)
        mismatched = []
        for width in range(1, 1001):
            rows = rng.normal(size=(3, width)) * rng.choice([1e-3, 1.0, 1e8], (3, 1))
            other = rng.normal(size=(3, width))
            stacked = (rows[:, None] @ other[:, :, None]).ravel()
            by_row = [np.dot(row, column) for row, column in zip(rows, other)]
            if stacked.tolist() != [float(v) for v in by_row]:
                mismatched.append(width)
        assert not mismatched, f"stacked matmul != np.dot at L = {mismatched[:10]}"


class TestEveryWriterStacked:
    """A build of several chunks, and WAL replay of a tail of inserts and
    deletes ending in a torn record, store what one object at a time would."""

    def test_build_larger_than_a_chunk(self):
        rng = np.random.default_rng(43)
        objects = _writer_objects() + [
            make_fuzzy_object(rng, n_points=40, object_id=100 + i) for i in range(440)
        ]
        assert sum(obj.size for obj in objects) > summary_module._CHUNK_POINTS
        expected = {obj.object_id: build_summary(obj).to_dict() for obj in objects}
        config = RuntimeConfig(snapshot_every=0)
        db = FuzzyDatabase.build(objects, config=config)
        assert _dicts([db]) == expected
        sharded = ShardedDatabase.build(objects, n_shards=3, config=config)
        assert _dicts(shard.db for shard in sharded._shards) == expected
        db.close()
        sharded.close()

    @staticmethod
    def _churn(db, objects):
        """Snapshot holds objects[:8]; the tail inserts 8-13, deletes a
        snapshot object and a tail one, then inserts 14-19."""
        for obj in objects[8:14]:
            db.insert(obj)
        db.delete(objects[2].object_id)
        db.delete(objects[10].object_id)
        for obj in objects[14:20]:
            db.insert(obj)
        return [obj for obj in objects[:20] if obj.object_id not in (2, 10)]

    def test_replay_one_tree(self, tmp_path):
        objects = _writer_objects()
        config = RuntimeConfig(snapshot_every=0)
        durable = FuzzyDatabase.build(objects[:8], config=config)
        durable.enable_durability(tmp_path / "one")
        survivors = self._churn(durable, objects)
        # Crash with a torn record after the tail.
        with open(tmp_path / "one" / "wal.log", "ab") as wal:
            wal.write(b"\xde\xad\xbe")
        recovered = FuzzyDatabase.recover(tmp_path / "one", config=config, resume=False)
        counters = recovered.metrics.as_dict()
        assert counters.get(MetricsCollector.WAL_REPLAYED) == 14
        assert counters.get(MetricsCollector.WAL_TORN_TAILS, 0) == 1
        assert _dicts([recovered]) == {o.object_id: build_summary(o).to_dict() for o in survivors}
        durable.close()
        recovered.close()

    def test_replay_three_shards(self, tmp_path):
        objects = _writer_objects()
        config = RuntimeConfig(snapshot_every=0)
        durable = ShardedDatabase.build(objects[:8], n_shards=3, config=config)
        durable.enable_durability(tmp_path / "three")
        survivors = self._churn(durable, objects)
        for shard in sorted((tmp_path / "three").glob("shard-*")):
            with open(shard / "wal.log", "ab") as wal:
                wal.write(b"\xde\xad\xbe")
        recovered = ShardedDatabase.recover(tmp_path / "three", config=config, resume=False)
        counters = recovered.metrics.as_dict()
        assert counters.get(MetricsCollector.WAL_REPLAYED) == 14
        assert counters.get(MetricsCollector.WAL_TORN_TAILS, 0) == 3
        assert _dicts(shard.db for shard in recovered._shards) == {
            o.object_id: build_summary(o).to_dict() for o in survivors
        }
        durable.close()
        recovered.close()
