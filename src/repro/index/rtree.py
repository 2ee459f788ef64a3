"""An in-memory R-tree over fuzzy-object summaries.

Supported operations:

* one-by-one insertion with Guttman's quadratic split,
* deletion with Guttman's CondenseTree: the entry is located through a
  containment-guided descent, underfull nodes along the path are dissolved
  and their surviving entries reinserted at their original level, and a
  root left with a single child is shortened,
* Sort-Tile-Recursive (STR) bulk loading, the default when building a
  database from a full dataset,
* rectangle range search (used by the RSS optimisation of Section 4.2),
* structural validation (used by the test suite).

Maintenance evaluates Guttman's criteria a node at a time, not an ``MBR``
object at a time: ChooseSubtree, PickSeeds / PickNext, FindLeaf's containment
test and node tight boxes read the ``(n, d)`` arrays of the node's
:class:`~repro.index.soa.NodeSoA` view (the one mirror of the entries' boxes),
and STR packing reduces each level's stacked boxes.  Areas multiply in
``MBR.area()``'s order and every tie goes to the first entry, so the trees
are the ones the per-entry loops built, byte for byte
(``tests/test_rtree_maintenance_parity.py`` keeps those loops as reference).

Every structural mutation bumps :attr:`RTree.mutations`, which lets callers
that cache derived structures (for example the batch executor's
representative KD-tree) detect that the indexed set changed even when the
entry count did not (an insert/delete pair).

The best-first kNN traversal itself lives in :mod:`repro.core.aknn`; the tree
only exposes its root and nodes so the searchers can maintain their own
priority queues and count node accesses through a
:class:`~repro.metrics.counters.MetricsCollector`.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import DEFAULT_RTREE_MAX_ENTRIES, DEFAULT_RTREE_MIN_FILL
from repro.exceptions import IndexError_
from repro.fuzzy.summary import FuzzyObjectSummary
from repro.geometry.mbr import MBR
from repro.index.entry import InternalEntry, LeafEntry
from repro.index.node import Entry, RTreeNode
from repro.index.soa import NodeSoA
from repro.metrics.counters import MetricsCollector


def _areas(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Hyper-volumes of the boxes ``lower`` / ``upper`` (shape ``(..., d)``).

    Extents are multiplied dimension by dimension, the order of
    :meth:`MBR.area`'s ``np.prod``, so the two agree to the last bit.
    """
    extent = upper - lower
    area = extent[..., 0]
    for dim in range(1, extent.shape[-1]):
        area = area * extent[..., dim]
    return area


class RTree:
    """R-tree whose data entries are fuzzy-object summaries."""

    def __init__(
        self,
        max_entries: int = DEFAULT_RTREE_MAX_ENTRIES,
        min_fill: float = DEFAULT_RTREE_MIN_FILL,
    ):
        if max_entries < 4:
            raise IndexError_("max_entries must be at least 4")
        if not 0.0 < min_fill <= 0.5:
            raise IndexError_("min_fill must be in (0, 0.5]")
        self.max_entries = max_entries
        self.min_entries = max(1, int(math.ceil(max_entries * min_fill)))
        self.root = RTreeNode(level=0)
        self._size = 0
        self.mutations = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        summaries: Sequence[FuzzyObjectSummary],
        max_entries: int = DEFAULT_RTREE_MAX_ENTRIES,
        min_fill: float = DEFAULT_RTREE_MIN_FILL,
    ) -> "RTree":
        """Build a tree with Sort-Tile-Recursive packing.

        STR produces well-filled, spatially coherent leaves which keeps the
        best-first search close to the paper's measured behaviour.  A level's
        boxes are stacked once and its nodes' tight boxes, reduced from those
        arrays, are the next level's input: no view is built at pack time.
        """
        tree = cls(max_entries=max_entries, min_fill=min_fill)
        if not summaries:
            return tree
        entries: List[Entry] = [LeafEntry(s) for s in summaries]
        lower = np.array([s.support_mbr.lower for s in summaries])
        upper = np.array([s.support_mbr.upper for s in summaries])
        level = 0
        while True:
            nodes, lower, upper = tree._pack_level(entries, lower, upper, level)
            if len(nodes) == 1:
                break
            entries = [
                InternalEntry(MBR._derived(lo, hi), node)
                for lo, hi, node in zip(lower, upper, nodes)
            ]
            level += 1
        tree.root = nodes[0]
        tree._size = len(summaries)
        return tree

    def _pack_level(
        self, entries: List[Entry], lower: np.ndarray, upper: np.ndarray, level: int
    ) -> Tuple[List[RTreeNode], np.ndarray, np.ndarray]:
        """Pack ``entries`` (boxes ``lower`` / ``upper``) into nodes of ``level`` by STR tiling.

        Returns the nodes with their tight boxes as ``(n_nodes, d)`` arrays.
        """
        capacity = self.max_entries
        n = len(entries)
        n_nodes = max(1, math.ceil(n / capacity))
        centers = (lower + upper) / 2.0
        order = np.argsort(centers[:, 0])
        if lower.shape[1] > 1 and n_nodes > 1:
            # Classic 2-d STR: sort by x, cut into vertical slices, then sort
            # each slice by y.  Higher dimensions reuse the first two axes.
            n_slices = max(1, math.ceil(math.sqrt(n_nodes)))
            slice_size = math.ceil(n / n_slices)
            slices = [order[start : start + slice_size] for start in range(0, n, slice_size)]
            order = np.concatenate(
                [slice_idx[np.argsort(centers[slice_idx, 1])] for slice_idx in slices]
            )
        ordered = [entries[i] for i in order]
        starts = np.arange(0, n, capacity)
        nodes = [RTreeNode(level, ordered[start : start + capacity]) for start in starts]
        return (
            nodes,
            np.minimum.reduceat(lower[order], starts, axis=0),
            np.maximum.reduceat(upper[order], starts, axis=0),
        )

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, summary: FuzzyObjectSummary) -> None:
        """Insert one summary, splitting nodes on overflow."""
        self._insert_entry(LeafEntry(summary), target_level=0)
        self._size += 1
        self.mutations += 1

    def _insert_entry(self, entry: Entry, target_level: int) -> None:
        """Place ``entry`` into a node of ``target_level``, growing the root on split."""
        split = self._insert_into(self.root, entry, target_level)
        if split is not None:
            self._grow_root(InternalEntry(split.compute_mbr(), split))

    def _grow_root(self, sibling: InternalEntry) -> None:
        """Join the current root and ``sibling`` under a fresh root one level up."""
        old_root = self.root
        self.root = RTreeNode(level=old_root.level + 1)
        self.root.add(InternalEntry(old_root.compute_mbr(), old_root))
        self.root.add(sibling)

    def _insert_into(
        self, node: RTreeNode, entry: Entry, target_level: int
    ) -> Optional[RTreeNode]:
        if node.level == target_level:
            node.add(entry)
        else:
            position = self._choose_subtree(node, entry.mbr)
            split = self._insert_into(node.entries[position].child, entry, target_level)
            node.refresh_child(position)
            if split is not None:
                node.add(InternalEntry(split.compute_mbr(), split))
        if len(node.entries) > self.max_entries:
            return self._split_node(node)
        return None

    @staticmethod
    def _choose_subtree(node: RTreeNode, mbr: MBR) -> int:
        """Guttman's ChooseLeaf criterion: least enlargement, then least area.

        Returns the chosen child's position; the stable sort hands ties to
        the first entry.
        """
        view = node.soa()
        area = _areas(view.lo, view.hi)
        grown = _areas(np.minimum(view.lo, mbr.lower), np.maximum(view.hi, mbr.upper))
        return int(np.lexsort((area, grown - area))[0])

    def _split_node(self, node: RTreeNode) -> RTreeNode:
        """Quadratic split; ``node`` keeps one group, the sibling is returned.

        PickSeeds takes the first pair (row-major over ``i < j``) wasting the
        most area; PickNext then repeatedly moves the first live entry with
        the strongest preference into the group it enlarges least (ties: the
        smaller group box, then the shorter group, then the first group).
        """
        entries = node.entries
        view = node.soa()
        lo, hi = view.lo, view.hi
        area = _areas(lo, hi)
        first, second = np.triu_indices(len(entries), 1)
        union = _areas(np.minimum(lo[first], lo[second]), np.maximum(hi[first], hi[second]))
        seed = int(np.argmax(union - area[first] - area[second]))
        seeds = [int(first[seed]), int(second[seed])]
        members = ([seeds[0]], [seeds[1]])
        # Both groups' boxes, as (2, d) bounds and (2,) areas, carried incrementally.
        box_lo, box_hi, box_area = lo[seeds], hi[seeds], area[seeds]
        alive = np.ones(len(entries), dtype=bool)
        alive[seeds] = False
        for remaining in range(len(entries) - 2, 0, -1):
            # If one group must take everything left to reach minimum fill,
            # assign the rest to it outright.
            starved = [m for m in members if len(m) + remaining <= self.min_entries]
            if starved:
                starved[0].extend(np.flatnonzero(alive).tolist())
                break
            grown = _areas(np.minimum(lo, box_lo[:, None]), np.maximum(hi, box_hi[:, None]))
            cost = grown - box_area[:, None]
            pick = int(np.argmax(np.where(alive, np.abs(cost[0] - cost[1]), -1.0)))
            alive[pick] = False
            keys = [(cost[g, pick], box_area[g], len(members[g])) for g in (0, 1)]
            g = 0 if keys[0] <= keys[1] else 1
            members[g].append(pick)
            box_lo[g] = np.minimum(box_lo[g], lo[pick])
            box_hi[g] = np.maximum(box_hi[g], hi[pick])
            box_area[g] = grown[g, pick]
        node.entries = [entries[i] for i in members[0]]
        node.invalidate_soa()
        return RTreeNode(level=node.level, entries=[entries[i] for i in members[1]])

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, object_id: int, mbr: Optional[MBR] = None) -> None:
        """Remove the data entry for ``object_id`` (Guttman's CondenseTree).

        ``mbr`` is the entry's support MBR when the caller knows it (it guides
        the descent so only covering subtrees are searched); without it the
        whole tree is scanned for the entry.  Underfull nodes along the
        deletion path are dissolved and their entries reinserted at their
        original level; a root left with a single child is shortened.
        Raises :class:`IndexError_` when the object is not indexed.
        """
        orphans = self._remove(object_id, mbr, self.min_entries)
        # Taller orphan subtrees go back first so lower-level entries can
        # descend into them (the empty-root seeding below depends on it).
        for level, orphan in sorted(orphans, key=lambda item: -item[0]):
            self._reinsert(orphan, level)
        self._shorten_root()

    def delete_lazy(self, object_id: int, mbr: Optional[MBR] = None) -> None:
        """Remove the data entry for ``object_id`` without condensing.

        The deferred-compaction write path (:mod:`repro.index.bulk`): the
        entry is removed, ancestor MBRs are tightened, and nodes left *empty*
        are pruned upward — but underfull nodes are tolerated instead of
        being dissolved and reinserted.  This keeps the per-delete cost at
        one root-to-leaf walk; the accumulated fill debt is repaid in one STR
        rebuild when :class:`~repro.index.bulk.CompactionManager` decides the
        debt ratio crossed its threshold.  All :meth:`validate` invariants
        are preserved (validation rejects *empty* non-root nodes, never
        underfull ones).
        """
        self._remove(object_id, mbr, 1)
        self._shorten_root()

    def _remove(
        self, object_id: int, mbr: Optional[MBR], min_entries: int
    ) -> List[Tuple[int, Entry]]:
        """Drop ``object_id``'s entry, then dissolve path nodes under ``min_entries``, bottom-up.

        Returns the orphans as ``(level to reinsert at, entry)`` pairs; a node
        that stays adequately filled gets its parent's box tightened instead.
        """
        path = self._find_leaf(self.root, int(object_id), mbr)
        if path is None:
            raise IndexError_(f"object {object_id} is not indexed")
        leaf, position = path[-1]
        leaf.remove_at(position)
        self._size -= 1
        self.mutations += 1
        orphans: List[Tuple[int, Entry]] = []
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth][0]
            parent, position = path[depth - 1]
            if len(node.entries) < min_entries:
                parent.remove_at(position)
                orphans.extend((node.level, e) for e in node.entries)
            else:
                parent.refresh_child(position)
        return orphans

    def _shorten_root(self) -> None:
        while not self.root.is_leaf and len(self.root.entries) == 1:
            self.root = self.root.entries[0].child
        if not self.root.is_leaf and not self.root.entries:
            self.root = RTreeNode(level=0)

    def _find_leaf(
        self, node: RTreeNode, object_id: int, mbr: Optional[MBR]
    ) -> Optional[List[Tuple[RTreeNode, int]]]:
        """Root-to-leaf path to ``object_id`` as ``(node, position)`` steps.

        ``position`` is where the next step's node (for the leaf: the data
        entry) sits in ``node.entries``.
        """
        if node.is_leaf:
            for position, entry in enumerate(node.entries):
                if entry.object_id == object_id:
                    return [(node, position)]
            return None
        covering: Sequence[int] = range(len(node.entries))
        if mbr is not None:
            view = node.soa()
            covers = np.all((view.lo <= mbr.lower) & (view.hi >= mbr.upper), axis=1)
            covering = np.flatnonzero(covers).tolist()
        for position in covering:
            tail = self._find_leaf(node.entries[position].child, object_id, mbr)
            if tail is not None:
                return [(node, position), *tail]
        return None

    def _reinsert(self, entry: Entry, target_level: int) -> None:
        """Reinsert one orphaned entry into a node of ``target_level``.

        An empty root (every subtree dissolved) is reseeded directly: an
        orphaned subtree becomes the new root, an orphaned data entry a fresh
        leaf root.
        """
        if not self.root.entries:
            if isinstance(entry, InternalEntry):
                self.root = entry.child
            else:
                self.root = RTreeNode(level=0, entries=[entry])
            return
        if isinstance(entry, InternalEntry) and entry.child.level >= self.root.level:
            # The orphaned subtree is as tall as the (reseeded) tree itself:
            # join both under a fresh root instead of descending.
            self._grow_root(entry)
            return
        self._insert_entry(entry, target_level)

    def adopt(self, other: "RTree") -> None:
        """Take over ``other``'s nodes in place.

        Deferred compaction repacks into a fresh tree and grafts it here so
        every searcher holding a reference to *this* tree sees the rebuilt
        structure; the mutation counter bump invalidates derived caches.
        """
        self.root = other.root
        self._size = other._size
        self.mutations += 1

    # ------------------------------------------------------------------
    # Search primitives
    # ------------------------------------------------------------------
    def leaf_views(self) -> Iterator[NodeSoA]:
        """The SoA view of every non-empty leaf, in depth-first order."""
        stack = [self.root] if self._size else []
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                stack.extend(entry.child for entry in node.entries)
            elif node.entries:
                yield node.soa()

    def leaf_alpha_bounds(
        self, alpha: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``M_A(alpha)*`` (Equation 2) of every data entry, as flat arrays.

        Returns ``(object_ids, lower, upper)`` — an ``(N,)`` id array aligned
        with ``(N, d)`` lo/hi matrices of the approximated alpha-cut MBRs,
        assembled in :meth:`leaf_views` order so each leaf's Equation-2
        reconstruction is computed once per (node, alpha) and shared through
        its per-alpha cache.  An empty tree yields ``(0,)`` / ``(0, 0)``-shaped
        arrays.
        """
        views = list(self.leaf_views())
        if not views:
            empty = np.empty((0, 0))
            return np.empty(0, dtype=np.int64), empty, empty
        boxes = [soa.approx_alpha_bounds(alpha) for soa in views]
        return (
            np.concatenate([soa.object_ids for soa in views]),
            np.concatenate([lower for lower, _ in boxes]),
            np.concatenate([upper for _, upper in boxes]),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a tree that is a single leaf)."""
        return self.root.level + 1

    def node_count(self) -> int:
        """Total number of nodes."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(entry.child for entry in node.entries)
        return count

    def validate(self) -> None:
        """Check structural invariants; raises :class:`IndexError_` on violation."""
        seen_objects = set()
        self._validate_node(self.root, is_root=True, seen_objects=seen_objects)
        if len(seen_objects) != self._size:
            raise IndexError_(
                f"tree size mismatch: {len(seen_objects)} entries vs {self._size} recorded"
            )

    def _validate_node(self, node: RTreeNode, is_root: bool, seen_objects: set) -> None:
        if len(node.entries) > self.max_entries:
            raise IndexError_("node exceeds max_entries")
        if not is_root and self._size > 0 and len(node.entries) == 0:
            raise IndexError_("non-root node is empty")
        kind = LeafEntry if node.is_leaf else InternalEntry
        if not all(isinstance(entry, kind) for entry in node.entries):
            raise IndexError_(f"level-{node.level} node holds an entry that is no {kind.__name__}")
        node.check_view()
        if node.is_leaf:
            for entry in node.entries:
                if entry.object_id in seen_objects:
                    raise IndexError_(f"duplicate object id {entry.object_id}")
                seen_objects.add(entry.object_id)
            return
        for entry in node.entries:
            if entry.child.level != node.level - 1:
                raise IndexError_("child level mismatch")
            boxes = [e.mbr for e in entry.child.entries]
            if boxes and entry.mbr != MBR.union_of(boxes):
                raise IndexError_("internal entry MBR is not its child's tight box")
            self._validate_node(entry.child, is_root=False, seen_objects=seen_objects)
