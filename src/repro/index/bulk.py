"""Counted STR bulk loading and deferred compaction.

Two pieces move the R-tree's expensive maintenance off the write path:

* :func:`bulk_load_tree` — the one entry point through which recovery, cold
  ``open()`` and compaction rebuild a tree.  It delegates to
  :meth:`repro.index.rtree.RTree.bulk_load` (Sort-Tile-Recursive packing:
  one argsort by x, tiles re-sorted by y, nodes packed level by level) and
  bumps the BULK_LOADS counter, which is how the crash-recovery tests *prove*
  the fast path was taken rather than one-insert-at-a-time rebuilding.
* :class:`CompactionManager` — durable databases delete with
  :meth:`~repro.index.rtree.RTree.delete_lazy` (no orphan reinsertion on the
  write path) and let the manager track the accumulated fill debt.  Once
  ``lazy deletes / live entries`` crosses ``debt_ratio`` the whole
  tree is repacked with one STR pass, amortising what Guttman's CondenseTree
  would have paid per delete.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.config import RuntimeConfig
from repro.fuzzy.summary import FuzzyObjectSummary
from repro.index.rtree import RTree
from repro.metrics.counters import MetricsCollector


def bulk_load_tree(
    summaries: Iterable[FuzzyObjectSummary],
    config: Optional[RuntimeConfig] = None,
    metrics: Optional[MetricsCollector] = None,
) -> RTree:
    """STR-pack ``summaries`` into a fresh tree, counting the bulk load."""
    config = config or RuntimeConfig()
    tree = RTree.bulk_load(list(summaries), max_entries=config.rtree_max_entries)
    if metrics is not None:
        metrics.increment(MetricsCollector.BULK_LOADS)
    return tree


class CompactionManager:
    """Tracks lazy-delete debt and repacks the tree when it grows too large.

    The owner calls :meth:`note_lazy_delete` after every
    :meth:`~repro.index.rtree.RTree.delete_lazy` and then offers the tree to
    :meth:`maybe_compact`; a non-``None`` return value is the freshly packed
    replacement tree (the caller swaps it in under its own write lock).
    """

    def __init__(
        self,
        *,
        debt_ratio: float = 0.3,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        if not 0.0 < debt_ratio <= 1.0:
            raise ValueError("debt_ratio must be in (0, 1]")
        self.debt_ratio = float(debt_ratio)
        self.metrics = metrics
        self._debt = 0

    def note_lazy_delete(self) -> None:
        self._debt += 1
        if self.metrics is not None:
            self.metrics.increment(MetricsCollector.LAZY_DELETES)

    def due(self, live_entries: int) -> bool:
        """Whether the debt ratio crossed the rebuild threshold."""
        if self._debt == 0:
            return False
        return self._debt >= self.debt_ratio * max(1, live_entries)

    def maybe_compact(
        self,
        tree: RTree,
        summaries: Iterable[FuzzyObjectSummary],
        config: Optional[RuntimeConfig] = None,
    ) -> Optional[RTree]:
        """Return a repacked replacement for ``tree`` when compaction is due."""
        if not self.due(len(tree)):
            return None
        rebuilt = bulk_load_tree(summaries, config=config, metrics=self.metrics)
        self._debt = 0
        if self.metrics is not None:
            self.metrics.increment(MetricsCollector.COMPACTIONS)
        return rebuilt
