"""A small LRU buffer pool for fuzzy objects.

The paper's algorithms treat every probe as a disk access; the buffer pool is
optional but provided so
downstream users can trade memory for I/O, and so tests can exercise the
difference between logical probes and physical reads.

The cache is thread-safe.  A query runs on the thread that asked for it and
the engine starts no threads of its own, but a shard's *read* lock is shared:
several callers of ``ShardedDatabase.execute*`` — and the query service's
flusher thread beside them — can be inside the same shard at once, reading
through the same cache instances (the store buffer pool, per-object alpha-cut
caches, per-node alpha caches).  A lookup reorders the LRU list, so even
``get`` mutates and every operation holds an internal lock.  The lock is
per-instance and uncontended in single-threaded use; it is not free, though —
on the served batch path the two lookups behind each object access (buffer
pool, then alpha-cut cache) are the largest remaining per-access cost.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Hashable, Optional, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """A classic least-recently-used cache with hit/miss accounting."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity = capacity
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: K) -> Optional[V]:
        """Return the cached value or ``None``, updating recency and stats."""
        with self._lock:
            if self.capacity == 0:
                self.misses += 1
                return None
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: K, value: V) -> None:
        """Insert or refresh an entry, evicting the oldest one if needed."""
        with self._lock:
            if self.capacity == 0:
                return
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, key: K) -> bool:
        """Drop one entry if present; returns whether it was cached."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every entry (statistics are preserved)."""
        with self._lock:
            self._entries.clear()

    def reset_statistics(self) -> None:
        """Zero the hit/miss/eviction counters."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
