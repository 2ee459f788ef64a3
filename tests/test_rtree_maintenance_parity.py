"""The array maintenance builds the tree the per-``MBR`` loops built.

PR 21 moved every box comparison R-tree maintenance makes — ChooseSubtree,
the quadratic split's PickSeeds / PickNext, FindLeaf's containment test, node
tight boxes and STR packing — from one Python ``MBR`` object at a time onto
the nodes' struct-of-arrays views.  The loops it replaced live on *here*, as
the reference: :class:`ScalarRTree` is the parent's (commit 20208b0)
maintenance, verbatim, reading entry objects only and never a view.  Every
history below is applied to both trees and, after every step, they must have
the same shape, the same entry order in every node and byte-equal boxes;
``validate()`` must pass; and every live view must equal a fresh ``NodeSoA``
of its entries.  Histories aim at what a tie rule could get wrong:
coordinates from a four-value grid (duplicate boxes, zero-extent boxes, ties
at every criterion) and floats offset by 1e8.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import IndexError_
from repro.fuzzy.boundary import ConservativeLine
from repro.fuzzy.summary import FuzzyObjectSummary
from repro.geometry.mbr import MBR
from repro.index.entry import InternalEntry, LeafEntry
from repro.index.node import RTreeNode
from repro.index.rtree import RTree, _areas
from repro.index.soa import NodeSoA

SETTINGS = dict(max_examples=40, deadline=None)


# ----------------------------------------------------------------------
# The parent's maintenance (commit 20208b0), kept verbatim as the reference
# ----------------------------------------------------------------------
def enlargement(box, other):
    """Area ``box`` grows by to also cover ``other`` (the scalar ChooseLeaf metric)."""
    return box.union(other).area() - box.area()


def tight_box(node):
    return MBR.union_of(entry.mbr for entry in node.entries)


class ScalarRTree(RTree):
    """Guttman's algorithms evaluated one ``MBR`` at a time; no view is ever read."""

    @classmethod
    def bulk_load(cls, summaries, max_entries, min_fill):
        tree = cls(max_entries=max_entries, min_fill=min_fill)
        if not summaries:
            return tree
        nodes = tree._pack_level([LeafEntry(s) for s in summaries], level=0)
        level = 1
        while len(nodes) > 1:
            entries = [InternalEntry(tight_box(node), node) for node in nodes]
            nodes = tree._pack_level(entries, level=level)
            level += 1
        tree.root = nodes[0]
        tree._size = len(summaries)
        return tree

    def _pack_level(self, entries, level):
        capacity = self.max_entries
        n = len(entries)
        n_nodes = max(1, math.ceil(n / capacity))
        dims = entries[0].mbr.dimensions
        centers = np.asarray([e.mbr.center for e in entries])
        if dims == 1 or n_nodes == 1:
            order = np.argsort(centers[:, 0])
            ordered = [entries[i] for i in order]
        else:
            n_slices = max(1, math.ceil(math.sqrt(n_nodes)))
            slice_size = math.ceil(n / n_slices)
            order = np.argsort(centers[:, 0])
            ordered = []
            for start in range(0, n, slice_size):
                slice_idx = order[start : start + slice_size]
                slice_centers = centers[slice_idx]
                inner = slice_idx[np.argsort(slice_centers[:, 1])]
                ordered.extend(entries[i] for i in inner)
        return [
            RTreeNode(level=level, entries=ordered[start : start + capacity])
            for start in range(0, n, capacity)
        ]

    def _insert_entry(self, entry, target_level):
        split = self._insert_into(self.root, entry, target_level)
        if split is not None:
            old_root = self.root
            self.root = RTreeNode(level=old_root.level + 1)
            self.root.entries.append(InternalEntry(tight_box(old_root), old_root))
            self.root.entries.append(InternalEntry(tight_box(split), split))

    def _insert_into(self, node, entry, target_level):
        if node.level == target_level:
            node.entries.append(entry)
        else:
            child_entry = self._choose_subtree(node, entry.mbr)
            split = self._insert_into(child_entry.child, entry, target_level)
            child_entry.mbr = tight_box(child_entry.child)
            if split is not None:
                node.entries.append(InternalEntry(tight_box(split), split))
        if len(node.entries) > self.max_entries:
            return self._split_node(node)
        return None

    @staticmethod
    def _choose_subtree(node, mbr):
        best = None
        best_key = None
        for entry in node.entries:
            key = (enlargement(entry.mbr, mbr), entry.mbr.area())
            if best_key is None or key < best_key:
                best = entry
                best_key = key
        return best

    def _split_node(self, node):
        entries = node.entries
        seed_a, seed_b = self._pick_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        mbr_a = entries[seed_a].mbr
        mbr_b = entries[seed_b].mbr
        remaining = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]
        while remaining:
            if len(group_a) + len(remaining) <= self.min_entries:
                group_a.extend(remaining)
                break
            if len(group_b) + len(remaining) <= self.min_entries:
                group_b.extend(remaining)
                break
            index = self._pick_next(remaining, mbr_a, mbr_b)
            entry = remaining.pop(index)
            cost_a = enlargement(mbr_a, entry.mbr)
            cost_b = enlargement(mbr_b, entry.mbr)
            if (cost_a, mbr_a.area(), len(group_a)) <= (cost_b, mbr_b.area(), len(group_b)):
                group_a.append(entry)
                mbr_a = mbr_a.union(entry.mbr)
            else:
                group_b.append(entry)
                mbr_b = mbr_b.union(entry.mbr)
        node.entries = group_a
        return RTreeNode(level=node.level, entries=group_b)

    @staticmethod
    def _pick_seeds(entries):
        best_pair = (0, 1)
        best_waste = -math.inf
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                union = entries[i].mbr.union(entries[j].mbr)
                waste = union.area() - entries[i].mbr.area() - entries[j].mbr.area()
                if waste > best_waste:
                    best_waste = waste
                    best_pair = (i, j)
        return best_pair

    @staticmethod
    def _pick_next(remaining, mbr_a, mbr_b):
        best_index = 0
        best_diff = -1.0
        for i, entry in enumerate(remaining):
            diff = abs(enlargement(mbr_a, entry.mbr) - enlargement(mbr_b, entry.mbr))
            if diff > best_diff:
                best_diff = diff
                best_index = i
        return best_index

    def delete(self, object_id, mbr=None):
        path = self._detach(object_id, mbr)
        orphans = []
        for depth in range(len(path) - 1, 0, -1):
            node, parent = path[depth], path[depth - 1]
            parent_entry = next(e for e in parent.entries if e.child is node)
            if len(node.entries) < self.min_entries:
                parent.entries.remove(parent_entry)
                orphans.extend((node.level, e) for e in node.entries)
            else:
                parent_entry.mbr = tight_box(node)
        for level, orphan in sorted(orphans, key=lambda item: -item[0]):
            self._reinsert(orphan, level)
        self._shorten_root()

    def delete_lazy(self, object_id, mbr=None):
        path = self._detach(object_id, mbr)
        for depth in range(len(path) - 1, 0, -1):
            node, parent = path[depth], path[depth - 1]
            parent_entry = next(e for e in parent.entries if e.child is node)
            if not node.entries:
                parent.entries.remove(parent_entry)
            else:
                parent_entry.mbr = tight_box(node)
        self._shorten_root()

    def _detach(self, object_id, mbr):
        path = self._find_leaf(self.root, int(object_id), mbr)
        if path is None:
            raise IndexError_(f"object {object_id} is not indexed")
        leaf = path[-1]
        leaf.entries.remove(next(e for e in leaf.entries if e.object_id == object_id))
        self._size -= 1
        self.mutations += 1
        return path

    def _find_leaf(self, node, object_id, mbr):
        if node.is_leaf:
            if any(e.object_id == object_id for e in node.entries):
                return [node]
            return None
        for entry in node.entries:
            if mbr is not None and not entry.mbr.contains(mbr):
                continue
            tail = self._find_leaf(entry.child, object_id, mbr)
            if tail is not None:
                return [node, *tail]
        return None

    def _reinsert(self, entry, target_level):
        if not self.root.entries:
            if isinstance(entry, InternalEntry):
                self.root = entry.child
            else:
                self.root = RTreeNode(level=0, entries=[entry])
            return
        if isinstance(entry, InternalEntry) and entry.child.level >= self.root.level:
            old_root = self.root
            self.root = RTreeNode(level=entry.child.level + 1)
            self.root.entries.append(InternalEntry(tight_box(old_root), old_root))
            self.root.entries.append(entry)
            return
        self._insert_entry(entry, target_level)


# ----------------------------------------------------------------------
# Comparing two trees, and a tree with its own views
# ----------------------------------------------------------------------
def nodes_of(tree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack.extend(entry.child for entry in reversed(node.entries))


def signature(tree):
    """(level, [box bytes + object id per entry, in order]) per node, in preorder."""
    return [
        (
            node.level,
            [
                (e.mbr.lower.tobytes(), e.mbr.upper.tobytes(), e.object_id if node.is_leaf else None)
                for e in node.entries
            ],
        )
        for node in nodes_of(tree)
    ]


_VIEW_ARRAYS = (
    "_lo", "_hi", "_kernel_lo", "_kernel_hi", "_up_slope", "_up_icpt",
    "_lo_slope", "_lo_icpt", "_reps", "_object_ids",
)


def assert_views_fresh(tree):
    """Every view a node holds equals one rebuilt from its entries, payload included."""
    for node in nodes_of(tree):
        view = node._soa
        if view is None:
            continue
        assert node._soa_list_id == id(node.entries), "a view outlived its entries list"
        fresh = NodeSoA(node.entries, is_leaf=node.is_leaf)
        assert view.n == fresh.n
        for name in _VIEW_ARRAYS if node.is_leaf else _VIEW_ARRAYS[:2]:
            np.testing.assert_array_equal(getattr(view, name)[: view.n], getattr(fresh, name)[: fresh.n])


def assert_same(tree, reference):
    assert len(tree) == len(reference)
    assert signature(tree) == signature(reference)
    tree.validate()
    assert_views_fresh(tree)
    assert all(node._soa is None for node in nodes_of(reference)), "the reference read a view"


def make_summary(object_id, corner_a, corner_b):
    box = MBR(np.minimum(corner_a, corner_b), np.maximum(corner_a, corner_b))
    line = (ConservativeLine(0.0, 0.0),) * box.dimensions
    return FuzzyObjectSummary(
        object_id=object_id, n_points=1, support_mbr=box, kernel_mbr=box,
        upper_lines=line, lower_lines=line, representative=box.center,
    )


def run_history(boxes, n_bulk, ops, max_entries, min_fill, check_every_step=True):
    """Apply one history to both trees; ``ops`` are ``("insert",)`` or
    ``(delete | delete_lazy, victim in [0, 1), pass the mbr hint)``."""
    summaries = [make_summary(i, *box) for i, box in enumerate(boxes)]
    trees = [
        cls.bulk_load(summaries[:n_bulk], max_entries=max_entries, min_fill=min_fill)
        for cls in (RTree, ScalarRTree)
    ]
    assert_same(*trees)
    live = list(range(n_bulk))
    pending = iter(summaries[n_bulk:])
    for op in ops:
        if op[0] == "insert":
            summary = next(pending, None)
            if summary is None:
                continue
            for tree in trees:
                tree.insert(summary)
            live.append(summary.object_id)
        elif live:
            victim = live.pop(int(op[1] * len(live)))
            hint = summaries[victim].support_mbr if op[2] else None
            for tree in trees:
                getattr(tree, op[0])(victim, hint)
        if check_every_step:
            assert_same(*trees)
    assert_same(*trees)
    return trees


GRID = st.sampled_from([0.0, 1.0, 2.0, 3.0])
OFFSET = st.floats(0.0, 64.0, allow_nan=False).map(lambda x: 1e8 + x)


@st.composite
def histories(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    coordinate = draw(st.sampled_from([GRID, OFFSET]))
    corner = st.lists(coordinate, min_size=d, max_size=d).map(np.array)
    n_bulk = draw(st.sampled_from([0, 0, 3, 40, 70]))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert")),
                st.tuples(st.just("insert")),
                st.tuples(
                    st.sampled_from(["delete", "delete_lazy"]),
                    st.floats(0.0, 1.0, exclude_max=True),
                    st.booleans(),
                ),
            ),
            min_size=25,
            max_size=80,
        )
    )
    n_boxes = n_bulk + sum(op[0] == "insert" for op in ops)
    boxes = draw(st.lists(st.tuples(corner, corner), min_size=n_boxes, max_size=n_boxes))
    return dict(
        boxes=boxes, n_bulk=n_bulk, ops=ops,
        max_entries=draw(st.sampled_from([4, 5, 8, 32])),
        min_fill=draw(st.sampled_from([0.25, 0.4, 0.5])),
    )


class TestHistories:
    @given(history=histories())
    @settings(**SETTINGS)
    def test_every_step_of_a_random_history_matches_the_scalar_tree(self, history):
        run_history(**history)

    @pytest.mark.parametrize("dimensions", [1, 2, 3])
    @pytest.mark.parametrize("max_entries, min_fill", [(4, 0.5), (5, 0.25), (8, 0.4)])
    def test_a_long_grid_history_with_every_tie(self, dimensions, max_entries, min_fill):
        """Deep trees (height >= 4) out of duplicate and zero-extent boxes."""
        rng = np.random.default_rng(100 * dimensions + max_entries)
        corners = rng.integers(0, 4, size=(260, 2, dimensions)).astype(float)
        ops = [("insert",)] * 140
        for _ in range(120):
            kind = ("insert", "delete", "delete_lazy")[int(rng.integers(0, 3))]
            ops.append((kind, float(rng.random()), bool(rng.integers(0, 2))))
        tree, _ = run_history(
            [tuple(pair) for pair in corners], 0, ops, max_entries, min_fill,
            check_every_step=False,
        )
        assert tree.height >= 3

    def test_full_width_nodes_split_the_same_way(self):
        """``max_entries`` = 32, the served configuration: 33-entry splits on three levels' worth."""
        rng = np.random.default_rng(32)
        lower = rng.random((420, 2)) * 100.0
        boxes = [(lo, lo + rng.random(2) * 3.0) for lo in lower]
        tree, _ = run_history(boxes, 0, [("insert",)] * 420, 32, 0.4, check_every_step=False)
        assert tree.height == 2 and tree.node_count() > 12

    def test_delete_without_the_hint_after_a_split(self):
        """The no-hint descent scans every child and must hand back valid positions."""
        boxes = [(np.array([float(i), 0.0]), np.array([i + 0.5, 1.0])) for i in range(12)]
        ops = [("insert",)] * 12 + [("delete", 0.9, False), ("delete_lazy", 0.0, False)]
        tree, _ = run_history(boxes, 0, ops, 4, 0.5)
        assert tree.height >= 2 and len(tree) == 10

    def test_an_orphan_reinsertion_that_grows_the_root(self):
        """A condensing delete whose reinserted orphans overflow the root (height 3 -> 4)."""
        corners = np.array(ROOT_GROWING_CORNERS, dtype=float).reshape(-1, 2, 2)
        tree, reference = run_history(
            [tuple(pair) for pair in corners], 0, [("insert",)] * len(corners), 4, 0.5,
            check_every_step=False,
        )
        assert tree.height == 3
        with mock.patch.object(
            RTree, "_grow_root", autospec=True, side_effect=RTree._grow_root
        ) as grow_root:
            tree.delete(ROOT_GROWING_VICTIM)
        reference.delete(ROOT_GROWING_VICTIM)
        assert grow_root.call_count == 1 and tree.height == 4
        assert_same(tree, reference)


# Found by search over seeded grid histories: inserting these (x, y, x, y)
# corner pairs in order and deleting object 10 dissolves a leaf and its parent,
# and putting the orphans back splits the root.
ROOT_GROWING_VICTIM = 10
ROOT_GROWING_CORNERS = [
    [3, 0, 3, 4], [0, 1, 2, 3], [2, 0, 2, 1], [4, 0, 7, 0], [0, 6, 7, 5], [5, 5, 5, 3],
    [1, 4, 5, 1], [7, 5, 7, 0], [7, 1, 1, 7], [1, 5, 2, 0], [6, 1, 3, 1], [4, 2, 4, 3],
    [4, 0, 6, 4], [6, 2, 3, 2], [1, 2, 6, 1], [0, 4, 5, 6], [6, 0, 1, 3], [1, 0, 0, 2],
    [3, 7, 3, 3], [5, 7, 7, 0], [2, 3, 5, 2], [6, 3, 3, 5], [3, 4, 1, 2], [0, 5, 6, 2],
    [3, 0, 2, 6], [3, 6, 2, 0], [4, 2, 5, 6], [3, 7, 1, 2],
]


class TestAreas:
    @given(
        corners=st.sampled_from([1, 2, 3]).flatmap(
            lambda d: st.lists(
                st.tuples(
                    st.lists(st.one_of(GRID, OFFSET, st.floats(-1e3, 1e3)), min_size=d, max_size=d),
                    st.lists(st.one_of(GRID, OFFSET, st.floats(-1e3, 1e3)), min_size=d, max_size=d),
                ),
                min_size=1,
                max_size=12,
            )
        )
    )
    @settings(**SETTINGS)
    def test_areas_equal_mbr_area_bit_for_bit(self, corners):
        a, b = (np.array(side, dtype=float) for side in zip(*corners))
        lower, upper = np.minimum(a, b), np.maximum(a, b)
        expected = [MBR(lo, hi).area() for lo, hi in zip(lower, upper)]
        assert _areas(lower, upper).tolist() == expected
        # Leading axes are free: the split evaluates both groups in one call.
        stacked = _areas(np.stack([lower, lower]), np.stack([upper, upper]))
        assert stacked.tolist() == [expected, expected]


class TestValidateChecksWhatMaintenanceReads:
    """``validate()`` fails on a view that stopped mirroring its entries, and on a loose box."""

    @pytest.fixture
    def tree(self):
        rng = np.random.default_rng(5)
        corners = rng.random((41, 2, 2)) * 10.0
        tree = RTree.bulk_load(
            [make_summary(i, *pair) for i, pair in enumerate(corners)], max_entries=4, min_fill=0.5
        )
        for node in nodes_of(tree):
            node.soa()
        tree.validate()
        return tree

    def leaf(self, tree):
        """The emptiest leaf (41 entries in fours leave one with room)."""
        return min((node for node in nodes_of(tree) if node.is_leaf), key=len)

    def test_a_stale_box_row(self, tree):
        self.leaf(tree).soa()._hi[0] += 1.0
        with pytest.raises(IndexError_, match="mirror"):
            tree.validate()

    def test_a_stale_directory_row(self, tree):
        tree.root.soa()._lo[0] -= 1.0
        with pytest.raises(IndexError_, match="mirror"):
            tree.validate()

    def test_a_stale_object_id(self, tree):
        self.leaf(tree).soa()._object_ids[0] = -1
        with pytest.raises(IndexError_, match="mirror"):
            tree.validate()

    def test_an_entry_the_view_never_saw(self, tree):
        leaf = self.leaf(tree)
        leaf.entries.append(leaf.entries[0])
        with pytest.raises(IndexError_, match="mirror"):
            tree.validate()

    def test_a_loose_directory_box(self, tree):
        """Covering its child is not enough any more: the box must be the tight one."""
        entry = tree.root.entries[0]
        entry.mbr = MBR(entry.mbr.lower - 0.5, entry.mbr.upper + 0.5)
        tree.root.invalidate_soa()
        with pytest.raises(IndexError_, match="tight"):
            tree.validate()

    def test_checking_builds_no_view(self):
        tree = RTree.bulk_load([make_summary(i, [i, 0.0], [i + 1.0, 1.0]) for i in range(30)], 4, 0.5)
        tree.validate()
        assert all(node._soa is None for node in nodes_of(tree))
