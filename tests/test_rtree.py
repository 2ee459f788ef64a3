"""Unit tests for the R-tree (insertion, bulk loading, range queries, validation)."""

import numpy as np
import pytest

from repro.exceptions import IndexError_
from repro.fuzzy.summary import build_summary
from repro.geometry.mbr import MBR
from repro.index.entry import InternalEntry, LeafEntry
from repro.index.node import RTreeNode
from repro.index.rtree import RTree
from tests.conftest import make_fuzzy_object


def make_summaries(rng, count, spread=20.0):
    summaries = []
    for i in range(count):
        obj = make_fuzzy_object(rng, n_points=10, center=rng.random(2) * spread, object_id=i)
        summaries.append(build_summary(obj))
    return summaries


class TestNodeAndEntries:
    def test_leaf_entry_exposes_summary_fields(self, rng):
        summary = make_summaries(rng, 1)[0]
        entry = LeafEntry(summary)
        assert entry.object_id == summary.object_id
        assert entry.mbr == summary.support_mbr
        assert "LeafEntry" in repr(entry)

    def test_leaf_node_rejects_internal_entries(self, rng):
        node = RTreeNode(level=0)
        child = RTreeNode(level=0)
        with pytest.raises(IndexError_):
            node.add(InternalEntry(MBR([0, 0], [1, 1]), child))

    def test_internal_node_rejects_leaf_entries(self, rng):
        summary = make_summaries(rng, 1)[0]
        node = RTreeNode(level=1)
        with pytest.raises(IndexError_):
            node.add(LeafEntry(summary))

    def test_compute_mbr_of_empty_node_raises(self):
        with pytest.raises(IndexError_):
            RTreeNode(level=0).compute_mbr()

    def test_internal_entry_refresh(self, rng):
        summary = make_summaries(rng, 1)[0]
        child = RTreeNode(level=0, entries=[LeafEntry(summary)])
        entry = InternalEntry(MBR([0, 0], [0.1, 0.1]), child)
        entry.refresh_mbr()
        assert entry.mbr == summary.support_mbr


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(IndexError_):
            RTree(max_entries=3)
        with pytest.raises(IndexError_):
            RTree(min_fill=0.8)

    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert {int(i) for view in tree.leaf_views() for i in view.object_ids} == set()
        tree.validate()

    def test_bulk_load_small(self, rng):
        summaries = make_summaries(rng, 3)
        tree = RTree.bulk_load(summaries, max_entries=4)
        assert len(tree) == 3
        tree.validate()

    def test_bulk_load_multi_level(self, rng):
        summaries = make_summaries(rng, 120)
        tree = RTree.bulk_load(summaries, max_entries=8)
        assert len(tree) == 120
        assert tree.height >= 2
        tree.validate()
        ids = {int(i) for view in tree.leaf_views() for i in view.object_ids}
        assert ids == set(range(120))

    def test_bulk_load_empty(self):
        tree = RTree.bulk_load([])
        assert len(tree) == 0

    def test_insert_one_by_one_with_splits(self, rng):
        summaries = make_summaries(rng, 60)
        tree = RTree(max_entries=5)
        for summary in summaries:
            tree.insert(summary)
        assert len(tree) == 60
        assert tree.height >= 2
        tree.validate()
        ids = {int(i) for view in tree.leaf_views() for i in view.object_ids}
        assert ids == set(range(60))

    def test_node_count_positive(self, rng):
        tree = RTree.bulk_load(make_summaries(rng, 40), max_entries=6)
        assert tree.node_count() >= len(tree) / 6


class TestValidation:
    def test_validate_detects_size_mismatch(self, rng):
        tree = RTree.bulk_load(make_summaries(rng, 10), max_entries=8)
        tree._size = 11
        with pytest.raises(IndexError_):
            tree.validate()

    def test_validate_detects_bad_child_mbr(self, rng):
        tree = RTree.bulk_load(make_summaries(rng, 60), max_entries=6)
        # Corrupt the first internal entry's MBR.
        assert not tree.root.is_leaf
        tree.root.entries[0].mbr = MBR([0, 0], [1e-6, 1e-6])
        with pytest.raises(IndexError_):
            tree.validate()

    def test_validate_detects_duplicate_object(self, rng):
        summaries = make_summaries(rng, 5)
        summaries.append(summaries[0])
        tree = RTree.bulk_load(summaries, max_entries=8)
        with pytest.raises(IndexError_):
            tree.validate()
