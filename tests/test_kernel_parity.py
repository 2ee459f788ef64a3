"""Reference parity and adversarial numerics for the exact-distance kernels.

PR 18 replaced three places an exact quantity was recomputed: the closest-pair
brute force (dot-product expansion + cancellation repair) became an argmin
over one blocked direct-formula pairwise kernel, ``distance_profile`` (one
closest-pair solve per membership level) became a 2-D running minimum over
that kernel's blocks, and the box-pair bounds (``(..., n, d)`` + trailing-axis
``einsum``) became per-dimension planes.  The formulas they replaced live on
*here*, as references: every rewritten kernel must equal its predecessor bit
for bit at d = 2 (and d = 1) and within 2 ulp at d = 3, on generated inputs
that aim at what the old code needed special handling for — coincident and
duplicated points, ties, coordinates offset by 1e8, zero-extent boxes,
membership levels closer than ``LEVEL_ATOL``, empty cuts, and inputs
that span several kernel blocks.
"""

import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import KDTREE_CROSSOVER_POINTS, RuntimeConfig
from repro.core import executor as executor_module, reverse_nn as reverse_module
from repro.core.executor import RepresentativeIndex, _exact_min_distances
from repro.exceptions import EmptyAlphaCutError
from repro.fuzzy.alpha_distance import alpha_distance, distance_profile
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.geometry import distance as distance_module
from repro.geometry.distance import (
    _closest_pair_brute,
    closest_pair,
    pairwise_sq_blocks,
    set_to_set_distances,
)
from repro.index import soa as soa_module
from repro.index.soa import (
    certainly_closer_counts,
    max_dist_to_boxes,
    min_dist_to_boxes,
    rep_to_samples_distances,
)
from repro.metrics.counters import MetricsCollector
from repro.predicates import LEVEL_ATOL

SETTINGS = dict(max_examples=60, deadline=None)
DIMENSIONS = st.sampled_from([1, 2, 3])


# ----------------------------------------------------------------------
# The parent's formulas (commit 43e82b1), kept verbatim as references
# ----------------------------------------------------------------------
def reference_pairwise(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def reference_closest_pair(points_a, points_b, chunk_rows=2048):
    """Dot-product expansion, then a direct re-evaluation of every candidate
    within ``16 eps (max|a|^2 + max|b|^2)`` of the chunk minimum."""
    best = np.inf
    best_i = best_j = 0
    b_sq = np.einsum("ij,ij->i", points_b, points_b)
    eps = float(np.finfo(float).eps)
    for start in range(0, points_a.shape[0], chunk_rows):
        chunk = points_a[start : start + chunk_rows]
        a_sq = np.einsum("ij,ij->i", chunk, chunk)
        sq = a_sq[:, None] + b_sq[None, :] - 2.0 * chunk @ points_b.T
        np.maximum(sq, 0.0, out=sq)
        chunk_min = float(sq.min())
        slack = 16.0 * eps * (float(a_sq.max(initial=0.0)) + float(b_sq.max(initial=0.0)))
        cand_i, cand_j = np.nonzero(sq <= chunk_min + slack)
        diffs = chunk[cand_i] - points_b[cand_j]
        exact_sq = np.einsum("ij,ij->i", diffs, diffs)
        pos = int(np.argmin(exact_sq))
        if exact_sq[pos] < best:
            best = float(exact_sq[pos])
            best_i = start + int(cand_i[pos])
            best_j = int(cand_j[pos])
    return float(np.sqrt(best)), best_i, best_j


def reference_profile(obj_a, obj_b, max_level=None):
    """One fresh closest-pair solve per membership level."""
    levels = np.union1d(obj_a.distinct_memberships(), obj_b.distinct_memberships())
    if levels[-1] < 1.0 - LEVEL_ATOL:
        levels = np.append(levels, 1.0)
    if max_level is not None:
        keep = levels <= max_level + LEVEL_ATOL
        above = levels[levels > max_level + LEVEL_ATOL]
        levels = levels[keep]
        if above.size:
            levels = np.append(levels, above[0])
    distances = np.empty(levels.size)
    for i, level in enumerate(levels):
        cut_a = obj_a.points[obj_a.memberships >= level - LEVEL_ATOL]
        cut_b = obj_b.points[obj_b.memberships >= level - LEVEL_ATOL]
        if cut_a.shape[0] == 0 or cut_b.shape[0] == 0:
            distances[i] = np.inf
        else:
            distances[i] = reference_closest_pair(cut_a, cut_b)[0]
    return levels, distances


def reference_min_dist(query_lower, query_upper, lower, upper):
    gap = np.maximum(
        0.0,
        np.maximum(lower - query_upper[..., None, :], query_lower[..., None, :] - upper),
    )
    return np.sqrt(np.einsum("...nd,...nd->...n", gap, gap))


def reference_max_dist(query_lower, query_upper, lower, upper):
    span = np.maximum(
        np.abs(upper - query_lower[..., None, :]),
        np.abs(lower - query_upper[..., None, :]),
    )
    return np.sqrt(np.einsum("...nd,...nd->...n", span, span))


def assert_parity(actual, expected, dimensions):
    """Bit-equal up to d = 2 (a two-term sum has one rounding order); within
    2 ulp at d = 3, where ``einsum`` and the kernel may associate differently."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    if dimensions <= 2:
        np.testing.assert_array_equal(actual, expected)
        return
    finite = np.isfinite(expected)
    np.testing.assert_array_equal(actual[~finite], expected[~finite])
    ulps = np.abs(actual[finite] - expected[finite]) / np.spacing(np.abs(expected[finite]))
    assert np.all(ulps <= 2.0), ulps.max()


def small_planes(elements):
    """Shrink the pairwise kernel's plane so small inputs span many blocks."""
    return mock.patch.object(distance_module, "_PLANE_ELEMENTS", elements)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
# Mostly a coarse grid (coincident points, exact ties, duplicated rows), some
# arbitrary floats; optionally shifted to 1e8, where the dot-product expansion
# loses every digit of a unit-scale distance.
COORDINATE = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
)
OFFSET = st.sampled_from([0.0, 0.0, 1e8])
PLANE = st.sampled_from([1, 5, 32_768])


@st.composite
def point_sets(draw, dimensions, count=None):
    n = draw(st.integers(1, 12)) if count is None else count
    flat = draw(st.lists(COORDINATE, min_size=n * dimensions, max_size=n * dimensions))
    points = np.asarray(flat, dtype=float).reshape(n, dimensions)
    for _ in range(draw(st.integers(0, 2))):  # duplicated points
        points[draw(st.integers(0, n - 1))] = points[draw(st.integers(0, n - 1))]
    return points + draw(OFFSET)


# Shared levels, pairs of levels 1e-13 apart (inside LEVEL_ATOL) and
# arbitrary values.
MEMBERSHIP = st.one_of(
    st.sampled_from([0.2, 0.2 + 1e-13, 0.5, 0.5 - 1e-13, 0.8, 1.0, 1.0 - 1e-13]),
    st.floats(0.01, 1.0, allow_nan=False),
)


@st.composite
def fuzzy_pairs(draw, require_kernel):
    dimensions = draw(DIMENSIONS)
    objects = []
    for _ in range(2):
        points = draw(point_sets(dimensions))
        n = points.shape[0]
        mus = np.asarray(draw(st.lists(MEMBERSHIP, min_size=n, max_size=n)))
        if require_kernel:
            mus[draw(st.integers(0, n - 1))] = 1.0
        objects.append(FuzzyObject(points, mus, require_kernel=require_kernel))
    return objects[0], objects[1]


@st.composite
def box_sets(draw, dimensions, count):
    lower = draw(point_sets(dimensions, count))
    extent = np.asarray(
        draw(
            st.lists(
                st.sampled_from([0.0, 0.0, 0.5, 1.0, 7.25]),  # zero-extent sides
                min_size=count * dimensions,
                max_size=count * dimensions,
            )
        )
    ).reshape(count, dimensions)
    return lower, lower + extent


# ----------------------------------------------------------------------
# The pairwise kernel and what reduces it
# ----------------------------------------------------------------------
class TestPairwiseKernel:
    @given(data=st.data(), dimensions=DIMENSIONS, plane=PLANE)
    @settings(**SETTINGS)
    def test_blocks_tile_the_reference_matrix(self, data, dimensions, plane):
        a = data.draw(point_sets(dimensions))
        b = data.draw(point_sets(dimensions))
        matrix = np.full((a.shape[0], b.shape[0]), np.nan)
        next_start = 0
        with small_planes(plane):
            for start, sq in pairwise_sq_blocks(a, b):
                assert start == next_start and sq.shape[1] == b.shape[0]
                assert sq.size <= max(plane, b.shape[0])
                matrix[start : start + sq.shape[0]] = sq
                next_start += sq.shape[0]
        assert next_start == a.shape[0]
        assert_parity(matrix, reference_pairwise(a, b), dimensions)

    @given(data=st.data(), dimensions=DIMENSIONS, plane=PLANE)
    @settings(**SETTINGS)
    def test_coincident_points_are_exactly_zero(self, data, dimensions, plane):
        a = data.draw(point_sets(dimensions))
        b = data.draw(point_sets(dimensions))
        b[data.draw(st.integers(0, b.shape[0] - 1))] = a[data.draw(st.integers(0, a.shape[0] - 1))]
        with small_planes(plane):
            assert _closest_pair_brute(a, b)[0] == 0.0
            assert closest_pair(a, b)[0] == 0.0
            assert np.all(np.diag(set_to_set_distances(a, a)) == 0.0)
            assert _exact_min_distances(a, [b, a])[1] == 0.0

    @given(data=st.data(), dimensions=DIMENSIONS, plane=PLANE)
    @settings(**SETTINGS)
    def test_closest_pair_equals_expansion_plus_repair(self, data, dimensions, plane):
        a = data.draw(point_sets(dimensions))
        b = data.draw(point_sets(dimensions))
        with small_planes(plane):
            distance, i, j = _closest_pair_brute(a, b)
        expected, expected_i, expected_j = reference_closest_pair(a, b)
        assert_parity(distance, expected, dimensions)
        assert np.linalg.norm(a[i] - b[j]) == pytest.approx(distance, rel=1e-14)
        if dimensions <= 2:
            # Same tie-break as before: the first minimum in row-major order.
            assert (i, j) == (expected_i, expected_j)

    def test_tie_break_is_first_in_row_major_order_across_blocks(self):
        a = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
        b = np.array([[9.0, 9.0], [0.0, 1.0], [4.0, 1.0], [1.0, 4.0], [1.0, 0.0]])
        # Distance 1 is realised by (0,1), (0,4), (1,2), (2,3): the first wins.
        for plane in (1, 5, 10, 32_768):
            with small_planes(plane):
                assert _closest_pair_brute(a, b) == (1.0, 0, 1)
                assert closest_pair(a, b) == reference_closest_pair(a, b)
        assert _closest_pair_brute(a[::-1], b) == (1.0, 1, 3)

    def test_offset_coordinates_keep_unit_scale_distances(self, rng):
        # |a|^2 + |b|^2 - 2 a.b cancels to noise at 1e8; the reference needed
        # its repair pass here, the direct formula needs nothing.
        a = rng.integers(0, 64, size=(40, 2)).astype(float) + 1e8
        b = rng.integers(0, 64, size=(50, 2)).astype(float) + 1e8 + 0.5
        exact = np.sqrt(reference_pairwise(a - 1e8, b - 1e8).min())
        assert _closest_pair_brute(a, b)[0] == exact
        assert _closest_pair_brute(a, b) == reference_closest_pair(a, b)
        assert closest_pair(a, b, use_kdtree=True)[0] == exact

    @pytest.mark.parametrize("dimensions", [1, 2, 3])
    @pytest.mark.parametrize(
        "sizes",
        [
            (KDTREE_CROSSOVER_POINTS - 1, KDTREE_CROSSOVER_POINTS + 40),
            (KDTREE_CROSSOVER_POINTS, KDTREE_CROSSOVER_POINTS),
            (KDTREE_CROSSOVER_POINTS + 40, KDTREE_CROSSOVER_POINTS + 1),
        ],
    )
    def test_brute_force_equals_kdtree_across_the_crossover(self, rng, dimensions, sizes):
        a = rng.random((sizes[0], dimensions)) * 10.0
        b = rng.random((sizes[1], dimensions)) * 10.0 + 0.5
        b[7] = a[3] + 1e-7  # a unique, known closest pair
        brute = closest_pair(a, b, use_kdtree=False)
        tree = closest_pair(a, b, use_kdtree=True)
        assert brute[1:] == tree[1:] == (3, 7)
        assert_parity(tree[0], brute[0], dimensions)
        assert_parity(brute[0], reference_closest_pair(a, b)[0], dimensions)

    def test_crossover_is_a_rule_on_the_smaller_set(self, rng):
        calls = []
        real = distance_module._closest_pair_kdtree

        def spy(points_a, points_b):
            calls.append((points_a.shape[0], points_b.shape[0]))
            return real(points_a, points_b)

        big = rng.random((KDTREE_CROSSOVER_POINTS, 2))
        small = rng.random((KDTREE_CROSSOVER_POINTS - 1, 2))
        with mock.patch.object(distance_module, "_closest_pair_kdtree", spy):
            closest_pair(small, big)
            closest_pair(big, small)
            closest_pair(big, big, use_kdtree=False)
            assert calls == []
            closest_pair(big, big)
        assert calls == [(KDTREE_CROSSOVER_POINTS, KDTREE_CROSSOVER_POINTS)]

    @given(data=st.data(), dimensions=DIMENSIONS, plane=PLANE)
    @settings(**SETTINGS)
    def test_hand_copied_formulas_now_reduce_the_kernel(self, data, dimensions, plane):
        a = data.draw(point_sets(dimensions))
        b = data.draw(point_sets(dimensions))
        c = data.draw(point_sets(dimensions))
        sq_ab, sq_ac = reference_pairwise(a, b), reference_pairwise(a, c)
        with small_planes(plane):
            assert_parity(set_to_set_distances(a, b), np.sqrt(sq_ab), dimensions)
            assert_parity(rep_to_samples_distances(a, b), np.sqrt(sq_ab.min(axis=1)), dimensions)
            assert_parity(
                _exact_min_distances(a, [b, c, b]),
                np.sqrt([sq_ab.min(), sq_ac.min(), sq_ab.min()]),
                dimensions,
            )

    @given(data=st.data(), dimensions=DIMENSIONS, batch=st.integers(1, 4), count=st.integers(1, 6))
    @settings(**SETTINGS)
    def test_paired_lemma1_equals_the_per_query_call(self, data, dimensions, batch, count):
        """``(B, n, d)`` reps x ``(B, s, d)`` samples, and the bound table
        that pads unequal sample sets into it, == one call per query."""
        reps = np.stack([data.draw(point_sets(dimensions, count)) for _ in range(batch)])
        samples = [data.draw(point_sets(dimensions)) for _ in range(batch)]
        per_query = np.stack([rep_to_samples_distances(r, s) for r, s in zip(reps, samples)])
        width = max(s.shape[0] for s in samples)
        padded = np.stack([
            np.concatenate([s, np.repeat(s[:1], width - s.shape[0], axis=0)]) for s in samples
        ])
        np.testing.assert_array_equal(rep_to_samples_distances(reps, padded), per_query)

        # The table's rows are the reps in order; far query boxes keep MaxDist
        # above every Lemma 1 value, so the upper bound is Lemma 1 alone.
        rows = np.arange(batch * count).reshape(batch, count)
        table = executor_module.BoundTable(
            np.arange(batch * count), reps.reshape(-1, dimensions),
            reps.reshape(-1, dimensions), reps.reshape(-1, dimensions),
            [(0, batch * count)],
        )
        far = np.full(dimensions, 1e12)
        prepared = [
            SimpleNamespace(query_mbr=SimpleNamespace(lower=-far, upper=far), query_samples=s)
            for s in samples
        ]
        _, upper = table.bounds(prepared, rows)
        np.testing.assert_array_equal(upper, per_query)


    def test_deterministic_lemma1_sample_equals_linspace(self):
        """Without an rng, ``Q'_alpha`` is the cut at
        ``np.linspace(0, n - 1, k).astype(int)``, for every cut size and ``k``."""
        for n in range(1, 150):
            obj = FuzzyObject(np.arange(2.0 * n).reshape(n, 2), np.ones(n))
            for k in range(1, n + 2):
                want = obj.alpha_cut(1.0)[np.linspace(0, n - 1, min(k, n)).astype(int)]
                np.testing.assert_array_equal(obj.sample_alpha_cut(1.0, k), want)


# ----------------------------------------------------------------------
# Box-pair bounds
# ----------------------------------------------------------------------
class TestBoxBounds:
    @given(
        data=st.data(),
        dimensions=DIMENSIONS,
        batch=st.sampled_from([None, 1, 2, 5]),
        count=st.sampled_from([1, 2, 9]),
    )
    @settings(**SETTINGS)
    def test_bounds_equal_the_trailing_axis_einsum(self, data, dimensions, batch, count):
        lower, upper = data.draw(box_sets(dimensions, count))
        q_lower, q_upper = data.draw(box_sets(dimensions, batch or 1))
        if data.draw(st.booleans()):  # a query box equal to a data box
            q_lower[0], q_upper[0] = lower[-1], upper[-1]
        if batch is None:
            q_lower, q_upper = q_lower[0], q_upper[0]
        for kernel, reference in (
            (min_dist_to_boxes, reference_min_dist),
            (max_dist_to_boxes, reference_max_dist),
        ):
            actual = kernel(q_lower, q_upper, lower, upper)
            assert actual.shape == ((count,) if batch is None else (batch, count))
            assert_parity(actual, reference(q_lower, q_upper, lower, upper), dimensions)

    @pytest.mark.parametrize("batched", [False, True])
    def test_equal_and_zero_extent_boxes(self, batched):
        lower = np.array([[1.0, 2.0], [5.0, 5.0], [1e8, 1e8]])
        upper = np.array([[4.0, 6.0], [5.0, 5.0], [1e8, 1e8 + 2.0]])
        q_lower, q_upper = lower[0], upper[0]
        if batched:
            q_lower, q_upper = q_lower[None, :], q_upper[None, :]
        gaps = min_dist_to_boxes(q_lower, q_upper, lower, upper).reshape(-1)
        spans = max_dist_to_boxes(q_lower, q_upper, lower, upper).reshape(-1)
        assert gaps[0] == 0.0 and spans[0] == 5.0  # itself: the 3-4-5 diagonal
        assert gaps[1] == 1.0 and spans[1] == 5.0  # a point box right of it
        # A point box against itself: both bounds are exactly zero.
        assert min_dist_to_boxes(lower[1], upper[1], lower[1:2], upper[1:2])[0] == 0.0
        assert max_dist_to_boxes(lower[1], upper[1], lower[1:2], upper[1:2])[0] == 0.0

    def test_closer_counts_do_not_depend_on_the_block_size(self, rng):
        lower = rng.random((70, 2)) * 20.0
        upper = lower + rng.random((70, 2)) * 2.0
        rows = np.arange(5, 45)
        thresholds = rng.random((3, rows.size)) * 12.0
        whole = reference_max_dist(lower[rows], upper[rows], lower, upper)
        expected = (whole[None, :, :] < thresholds[:, :, None]).sum(axis=2)
        expected -= whole[np.arange(rows.size), rows][None, :] < thresholds
        for elements in (1, 700, 32_768):
            with mock.patch.object(soa_module, "_PAIRWISE_BLOCK_ELEMENTS", elements):
                counts = certainly_closer_counts(
                    lower[rows], upper[rows], lower, upper, thresholds, self_index=rows
                )
                single = certainly_closer_counts(
                    lower[rows], upper[rows], lower, upper, thresholds[1], self_index=rows
                )
            np.testing.assert_array_equal(counts, expected)
            np.testing.assert_array_equal(single, expected[1])


# ----------------------------------------------------------------------
# The reverse filter's k-th MaxDist table
# ----------------------------------------------------------------------
class _BoxTree:
    """Exports fixed Equation-2 boxes the way an R-tree's leaves do, under
    ids ``first_id`` on."""

    mutations = 0

    def __init__(self, lower, upper, first_id=0):
        self.lower, self.upper, self.first_id = lower, upper, first_id

    def __len__(self):
        return self.lower.shape[0]

    def leaf_alpha_bounds(self, alpha):
        if not len(self):  # an empty tree exports (0, 0)-shaped boxes
            return np.empty(0, dtype=np.int64), np.empty((0, 0)), np.empty((0, 0))
        return self.first_id + np.arange(len(self)), self.lower, self.upper

    def leaf_views(self):
        """One leaf holding every box, each box's centre as its ``rep(A)``."""
        if len(self):
            yield SimpleNamespace(
                object_ids=self.first_id + np.arange(len(self)),
                reps=(self.lower + self.upper) / 2.0,
            )


def _box_part(lower, upper, first_id):
    return SimpleNamespace(
        tree=_BoxTree(lower, upper, first_id),
        store=SimpleNamespace(statistics=SimpleNamespace(object_accesses=0)),
    )


@st.composite
def filter_thresholds(draw, spans, n_queries):
    """Per (query, row): exactly one of the row's MaxDist values, 1 ulp either
    side of one, or an arbitrary value."""
    thresholds = np.empty((n_queries, spans.shape[0]))
    for q in range(n_queries):
        for row in range(spans.shape[0]):
            value = spans[row, draw(st.integers(0, spans.shape[1] - 1))]
            kind = draw(st.sampled_from(["at", "above", "below", "any"]))
            if kind == "above":
                value = np.nextafter(value, np.inf)
            elif kind == "below":
                value = np.nextafter(value, -np.inf)
            elif kind == "any":
                value = draw(st.floats(0.0, 120.0))
            thresholds[q, row] = value
    return thresholds


class TestReverseFilterTable:
    """``k``-th MaxDist ``>=`` threshold decides exactly what the closer count
    ``< k`` decides, through the reverse pass's own filter: cold, cached, per
    part and across blocks."""

    @given(
        data=st.data(),
        dimensions=DIMENSIONS,
        count=st.integers(1, 14),
        k=st.sampled_from([1, 2, 3, 5, 16]),
        n_queries=st.integers(1, 4),
        elements=st.sampled_from([1, 7, 20, 32_768]),
    )
    @settings(**SETTINGS)
    def test_masks_equal_closer_counts_below_k(
        self, data, dimensions, count, k, n_queries, elements
    ):
        lower, upper = data.draw(box_sets(dimensions, count))
        for _ in range(data.draw(st.integers(0, 3))):  # duplicated boxes
            i, j = data.draw(st.integers(0, count - 1)), data.draw(st.integers(0, count - 1))
            lower[i], upper[i] = lower[j], upper[j]
        spans = max_dist_to_boxes(lower, upper, lower, upper)
        thresholds = data.draw(filter_thresholds(spans, n_queries))
        cuts = sorted(data.draw(st.lists(st.integers(0, count), max_size=2)))
        bounds = [0, *cuts, count]
        parts = [
            _box_part(lower[a:b], upper[a:b], a) for a, b in zip(bounds, bounds[1:])
        ]
        expected = certainly_closer_counts(
            lower, upper, lower, upper, thresholds, self_index=np.arange(count)
        ) < k

        seen = []

        def capture(prepared, masks, *args, **kwargs):
            seen.append(masks.copy())
            return None

        query = FuzzyObject(np.zeros((1, dimensions)), np.ones(1))
        index = RepresentativeIndex()
        with mock.patch.object(soa_module, "_PAIRWISE_BLOCK_ELEMENTS", elements), \
                mock.patch.object(reverse_module, "query_filter_thresholds",
                                  lambda *args: thresholds), \
                mock.patch.object(reverse_module, "plan_bucket_verification", capture):
            for _ in range(2):  # builds the table, then reads it
                results = reverse_module.reverse_bucket_pass(
                    index, parts, lambda op, fn: [fn(part) for part in parts],
                    [query] * n_queries, k, 0.5, RuntimeConfig(), MetricsCollector(),
                )
                seen[-1] = (seen[-1], results[0].stats.extra)
        (cold, cold_stats), (warm, warm_stats) = seen
        np.testing.assert_array_equal(cold, expected)
        np.testing.assert_array_equal(warm, expected)
        filtered = n_queries * count
        assert cold_stats["bucket_lower_bound_evaluations"] == filtered + count * count
        assert warm_stats["bucket_lower_bound_evaluations"] == filtered

    def test_a_few_pairs_are_kept_oldest_out_first(self, rng):
        lower = rng.random((6, 2)) * 4.0
        upper = lower + 0.5
        trees = [_BoxTree(lower, upper)]
        index = RepresentativeIndex()

        def builds(k):
            return index.kth_table(trees, 0.5, k, 0)[1]

        kept = executor_module._KTH_TABLE_PAIRS
        assert all(builds(k) for k in range(1, kept + 2))
        assert not any(builds(k) for k in range(2, kept + 2))
        assert builds(1)  # the first pair went out when one too many came in


# ----------------------------------------------------------------------
# The distance profile
# ----------------------------------------------------------------------
def max_levels_for(levels):
    """None, below every level, at a level, between two levels, 1.0."""
    choices = [None, float(levels[0]) / 2.0, float(levels[levels.size // 2]), 1.0]
    if levels.size > 1:
        choices.append(float(levels[0] + levels[1]) / 2.0)
    return choices


class TestDistanceProfile:
    @given(pair=fuzzy_pairs(require_kernel=False), plane=PLANE, data=st.data())
    @settings(**SETTINGS)
    def test_profile_equals_one_closest_pair_per_level(self, pair, plane, data):
        a, b = pair
        every_level = np.union1d(a.distinct_memberships(), b.distinct_memberships())
        max_level = data.draw(st.sampled_from(max_levels_for(every_level)))
        with small_planes(plane):
            profile = distance_profile(a, b, max_level=max_level)
            mirrored = distance_profile(b, a, max_level=max_level)
        levels, distances = reference_profile(a, b, max_level)
        np.testing.assert_array_equal(profile.levels, levels)
        assert_parity(profile.distances, distances, a.dimensions)
        # An empty cut (no kernel on one side) reads inf, never a wrapped cell.
        empty = np.array(
            [
                not (a.memberships >= level - LEVEL_ATOL).any()
                or not (b.memberships >= level - LEVEL_ATOL).any()
                for level in levels
            ]
        )
        np.testing.assert_array_equal(np.isinf(profile.distances), empty)
        np.testing.assert_array_equal(mirrored.levels, profile.levels)
        np.testing.assert_array_equal(mirrored.distances, profile.distances)

    @given(pair=fuzzy_pairs(require_kernel=True), plane=PLANE, data=st.data())
    @settings(**SETTINGS)
    def test_profile_evaluates_to_the_alpha_distance(self, pair, plane, data):
        a, b = pair
        every_level = np.union1d(a.distinct_memberships(), b.distinct_memberships())
        max_level = data.draw(st.sampled_from(max_levels_for(every_level)))
        with small_planes(plane):
            profile = distance_profile(a, b, max_level=max_level)
        stored = profile.levels
        between = (np.concatenate([[0.0], stored[:-1]]) + stored) / 2.0
        probes = list(stored) + [x for x in between if x > 0.0]
        if max_level is not None:
            probes.append(max_level)
        for alpha in probes:
            assert_parity(profile.value(alpha), alpha_distance(a, b, alpha), a.dimensions)

    def test_levels_inside_the_membership_tolerance_share_one_cut(self):
        a = FuzzyObject(
            np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 0.0]]),
            np.array([1.0, 0.5, 0.5 - 1e-13, 0.2]),
        )
        b = FuzzyObject(
            np.array([[9.0, 0.0], [5.0, 0.0], [4.0, 0.0]]),
            np.array([1.0, 0.5 + 1e-13, 0.2]),
        )
        profile = distance_profile(a, b)
        np.testing.assert_array_equal(
            profile.levels, [0.2, 0.5 - 1e-13, 0.5, 0.5 + 1e-13, 1.0]
        )
        # All three levels around 0.5 select {0,1,2} x {0,1}: |2 - 5| = 3.
        np.testing.assert_array_equal(profile.distances, [2.0, 3.0, 3.0, 3.0, 9.0])
        for level, distance in zip(profile.levels, profile.distances):
            assert alpha_distance(a, b, float(level)) == distance

    def test_objects_without_a_kernel_end_in_an_infinite_piece(self):
        a = FuzzyObject(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.9, 0.4]), require_kernel=False)
        b = FuzzyObject(np.array([[3.0, 0.0], [5.0, 0.0]]), np.array([0.4, 1.0]))
        profile = distance_profile(a, b)
        np.testing.assert_array_equal(profile.levels, [0.4, 0.9, 1.0])
        np.testing.assert_array_equal(profile.distances, [2.0, 5.0, np.inf])
        with pytest.raises(EmptyAlphaCutError):
            alpha_distance(a, b, 1.0)

    def test_a_large_profile_never_holds_the_full_matrix(self, rng):
        def big(center):
            points = np.asarray(center) + rng.normal(size=(1500, 2))
            mus = rng.random(1500) * 0.98 + 0.01
            mus[0] = 1.0
            return FuzzyObject(points, mus)

        a, b = big([0.0, 0.0]), big([6.0, 1.0])
        tracemalloc.start()
        try:
            profile = distance_profile(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The 1500 x 1500 matrix of doubles alone would be 18 MB.
        assert peak < 8 * 1024 * 1024
        assert profile.levels.size == 2999
        for index in np.linspace(0, profile.levels.size - 1, 16).astype(int):
            level = float(profile.levels[index])
            cut_a = a.points[a.memberships >= level - LEVEL_ATOL]
            cut_b = b.points[b.memberships >= level - LEVEL_ATOL]
            assert profile.distances[index] == reference_closest_pair(cut_a, cut_b)[0]
