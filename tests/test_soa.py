"""Parity tests for the struct-of-arrays (SoA) node views.

The searchers now evaluate ``MinDist`` / ``MaxDist`` / ``d-_alpha`` for a
whole node through :class:`repro.index.soa.NodeSoA`; these tests pin the
vectorized values to the scalar per-entry reference implementations, both on
bulk-loaded trees and across incremental maintenance (inserts, splits,
directory-MBR refreshes).
"""

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.core.query import PreparedQuery
from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset
from repro.fuzzy.summary import build_summary
from repro.geometry.mbr import max_dist, min_dist
from repro.index.rtree import RTree


@pytest.fixture(scope="module")
def objects():
    config = SyntheticDatasetConfig(n_objects=120, points_per_object=24, seed=11)
    return generate_synthetic_dataset(config)


@pytest.fixture(scope="module")
def summaries(objects):
    return [build_summary(obj) for obj in objects]


@pytest.fixture(scope="module")
def tree(summaries):
    return RTree.bulk_load(summaries, max_entries=8)


@pytest.fixture()
def prepared(objects):
    return PreparedQuery(objects[0], 0.5, RuntimeConfig())


def iter_nodes(tree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack.extend(entry.child for entry in node.entries)


class TestVectorizedBoundParity:
    def test_leaf_simple_lower_bounds_match_scalar(self, tree, prepared):
        for node in iter_nodes(tree):
            if not node.is_leaf:
                continue
            vectorized = prepared.leaf_lower_bounds(node.soa(), improved=False)
            scalar = [prepared.simple_lower_bound(e.summary) for e in node.entries]
            np.testing.assert_allclose(vectorized, scalar, rtol=0, atol=1e-12)

    def test_leaf_improved_lower_bounds_match_scalar(self, tree, prepared):
        for node in iter_nodes(tree):
            if not node.is_leaf:
                continue
            vectorized = prepared.leaf_lower_bounds(node.soa(), improved=True)
            scalar = [prepared.improved_lower_bound(e.summary) for e in node.entries]
            np.testing.assert_allclose(vectorized, scalar, rtol=0, atol=1e-12)

    def test_leaf_upper_bounds_match_scalar(self, tree, prepared):
        for node in iter_nodes(tree):
            if not node.is_leaf:
                continue
            vectorized = prepared.leaf_upper_bounds(node.soa(), use_representative=True)
            scalar = [prepared.combined_upper_bound(e.summary) for e in node.entries]
            np.testing.assert_allclose(vectorized, scalar, rtol=0, atol=1e-12)
            maxdist_only = prepared.leaf_upper_bounds(
                node.soa(), use_representative=False
            )
            scalar_md = [prepared.maxdist_upper_bound(e.summary) for e in node.entries]
            np.testing.assert_allclose(maxdist_only, scalar_md, rtol=0, atol=1e-12)

    def test_internal_lower_bounds_match_scalar(self, tree, prepared):
        for node in iter_nodes(tree):
            if node.is_leaf:
                continue
            vectorized = prepared.node_lower_bounds(node.soa())
            scalar = [prepared.node_lower_bound(e.mbr) for e in node.entries]
            np.testing.assert_allclose(vectorized, scalar, rtol=0, atol=1e-12)

    def test_approx_alpha_bounds_match_summary(self, tree):
        for node in iter_nodes(tree):
            if not node.is_leaf:
                continue
            for alpha in (0.2, 0.5, 0.9):
                lower, upper = node.soa().approx_alpha_bounds(alpha)
                for i, entry in enumerate(node.entries):
                    box = entry.summary.approx_alpha_mbr(alpha)
                    np.testing.assert_array_equal(lower[i], box.lower)
                    np.testing.assert_array_equal(upper[i], box.upper)

    def test_batched_boxes_sandwich_query(self, tree, prepared):
        """Vectorized lower bounds never exceed vectorized upper bounds."""
        for node in iter_nodes(tree):
            if not node.is_leaf:
                continue
            lowers = prepared.leaf_lower_bounds(node.soa(), improved=True)
            uppers = prepared.leaf_upper_bounds(node.soa(), use_representative=True)
            for low, high in zip(lowers, uppers):
                assert low <= high + 1e-9


class TestAlphaCacheReuse:
    def test_equation2_reconstruction_is_memoised(self, tree):
        leaf = next(node for node in iter_nodes(tree) if node.is_leaf)
        soa = leaf.soa()
        first = soa.approx_alpha_bounds(0.35)
        second = soa.approx_alpha_bounds(0.35)
        assert first[0] is second[0] and first[1] is second[1]
        other = soa.approx_alpha_bounds(0.36)
        assert other[0] is not first[0]


class TestIncrementalMaintenance:
    def _assert_soa_mirrors_entries(self, tree):
        for node in iter_nodes(tree):
            soa = node.soa()
            assert soa.n == len(node.entries)
            for i, entry in enumerate(node.entries):
                np.testing.assert_array_equal(soa.lo[i], entry.mbr.lower)
                np.testing.assert_array_equal(soa.hi[i], entry.mbr.upper)
                if node.is_leaf:
                    assert int(soa.object_ids[i]) == entry.object_id

    def test_soa_tracks_inserts_and_splits(self, summaries):
        tree = RTree(max_entries=4)
        for i, summary in enumerate(summaries[:40]):
            tree.insert(summary)
            if i % 7 == 0:
                # Interleave queries so cached views exist while the tree
                # keeps mutating underneath them.
                self._assert_soa_mirrors_entries(tree)
        tree.validate()
        self._assert_soa_mirrors_entries(tree)

    def test_search_parity_after_inserts(self, objects, summaries):
        bulk = RTree.bulk_load(summaries[:40], max_entries=4)
        incremental = RTree(max_entries=4)
        for summary in summaries[:40]:
            incremental.insert(summary)
        prepared = PreparedQuery(objects[-1], 0.5, RuntimeConfig())

        def all_leaf_bounds(tree):
            bounds = {}
            for node in iter_nodes(tree):
                if node.is_leaf:
                    values = prepared.leaf_lower_bounds(node.soa(), improved=True)
                    for entry, value in zip(node.entries, values):
                        bounds[entry.object_id] = value
            return bounds

        bulk_bounds = all_leaf_bounds(bulk)
        incremental_bounds = all_leaf_bounds(incremental)
        assert bulk_bounds.keys() == incremental_bounds.keys()
        for object_id, value in bulk_bounds.items():
            assert incremental_bounds[object_id] == pytest.approx(value, abs=1e-12)


class TestKernelsAgainstMBR:
    def test_min_and_max_dist_match_pairwise(self, summaries, objects):
        prepared = PreparedQuery(objects[1], 0.4, RuntimeConfig())
        tree = RTree.bulk_load(summaries[:30], max_entries=8)
        for node in iter_nodes(tree):
            soa = node.soa()
            got = soa.min_dist(prepared.query_mbr.lower, prepared.query_mbr.upper)
            want = [min_dist(prepared.query_mbr, e.mbr) for e in node.entries]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            if node.is_leaf:
                got_max = soa.max_dist(
                    0.4, prepared.query_mbr.lower, prepared.query_mbr.upper
                )
                want_max = [
                    max_dist(prepared.query_mbr, e.summary.approx_alpha_mbr(0.4))
                    for e in node.entries
                ]
                np.testing.assert_allclose(got_max, want_max, rtol=0, atol=1e-12)
