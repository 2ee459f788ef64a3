"""R-tree nodes."""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.exceptions import IndexError_
from repro.geometry.mbr import MBR
from repro.index.entry import InternalEntry, LeafEntry
from repro.index.soa import NodeSoA

Entry = Union[LeafEntry, InternalEntry]


class RTreeNode:
    """A node of the R-tree.

    ``level`` 0 denotes a leaf node (its entries are :class:`LeafEntry`);
    higher levels hold :class:`InternalEntry` children.

    Besides the entry list, every node lazily exposes a struct-of-arrays view
    (:meth:`soa`) holding contiguous ``(n, d)`` arrays of its children's MBRs
    and leaf summaries, which is what the searchers evaluate bounds against
    and what tree maintenance reads every box from.  The view is maintained
    incrementally on :meth:`add`, :meth:`remove_at` and :meth:`refresh_child`
    and invalidated on structural rewrites.
    """

    __slots__ = ("level", "entries", "_soa", "_soa_list_id")

    def __init__(self, level: int = 0, entries: List[Entry] | None = None):
        self.level = level
        self.entries: List[Entry] = list(entries) if entries else []
        self._soa: Optional[NodeSoA] = None
        self._soa_list_id: int = 0

    @property
    def is_leaf(self) -> bool:
        """Whether the node stores data entries."""
        return self.level == 0

    def compute_mbr(self) -> MBR:
        """Tightest MBR enclosing every entry of the node."""
        if not self.entries:
            raise IndexError_("cannot compute the MBR of an empty node")
        view = self.soa()
        return MBR._derived(view.lo.min(axis=0), view.hi.max(axis=0))

    def add(self, entry: Entry) -> None:
        """Append an entry (caller is responsible for overflow handling)."""
        if self.is_leaf and not isinstance(entry, LeafEntry):
            raise IndexError_("leaf nodes only accept LeafEntry instances")
        if not self.is_leaf and not isinstance(entry, InternalEntry):
            raise IndexError_("internal nodes only accept InternalEntry instances")
        self.entries.append(entry)
        if self._soa is not None:
            self._soa.append(entry)

    def remove_at(self, index: int) -> None:
        """Remove the entry at ``index``, keeping the SoA view aligned.

        A populated view is updated in place (the matching row shifts out); a
        node left empty drops its view entirely, since a SoA cannot represent
        zero rows.
        """
        self.entries.pop(index)
        if self._soa is not None:
            if self.entries:
                self._soa.remove_row(index)
            else:
                self._soa = None

    # ------------------------------------------------------------------
    # Struct-of-arrays view
    # ------------------------------------------------------------------
    def soa(self) -> NodeSoA:
        """The vectorised view of this node's entries (built lazily, cached).

        A stale view caused by wholesale entry replacement is detected through
        the row count and the identity of the ``entries`` list (rebinding
        ``node.entries`` to a new list always rebuilds); in-place MBR
        refreshes must go through :meth:`refresh_child` (or
        :meth:`invalidate_soa`) instead.
        """
        if (
            self._soa is None
            or self._soa.n != len(self.entries)
            or self._soa_list_id != id(self.entries)
        ):
            self._soa = NodeSoA(self.entries, is_leaf=self.is_leaf)
            self._soa_list_id = id(self.entries)
        return self._soa

    def invalidate_soa(self) -> None:
        """Drop the cached view after a structural rewrite of ``entries``."""
        self._soa = None

    def check_view(self) -> None:
        """Raise unless a live view mirrors ``entries`` row for row (maintenance decides
        from it).  Builds nothing; a view ``soa()`` would rebuild anyway is skipped."""
        view = self._soa
        if view is None or self._soa_list_id != id(self.entries):
            return
        boxes = [entry.mbr for entry in self.entries]
        if (
            view.n != len(boxes)
            or not np.array_equal(view.lo, [box.lower for box in boxes])
            or not np.array_equal(view.hi, [box.upper for box in boxes])
            or (self.is_leaf and view.object_ids.tolist() != [e.object_id for e in self.entries])
        ):
            raise IndexError_("node view does not mirror its entries")

    def refresh_child(self, index: int) -> None:
        """Re-tighten the directory entry at ``index`` to its child, view row included."""
        entry = self.entries[index]
        entry.refresh_mbr()
        if self._soa is not None:
            self._soa.refresh_box(index, entry.mbr)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"RTreeNode({kind}, level={self.level}, entries={len(self.entries)})"
