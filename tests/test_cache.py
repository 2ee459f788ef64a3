"""Unit tests for the LRU buffer pool."""

import pytest

from repro.storage.cache import LRUCache


class TestLRUCache:
    def test_put_get(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1

    def test_miss_returns_none(self):
        cache = LRUCache(capacity=2)
        assert cache.get("missing") is None
        assert cache.misses == 1

    def test_eviction_order_is_lru(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh + overwrite
        cache.put("c", 3)  # evicts b, not a
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_zero_capacity_disables_cache(self):
        cache = LRUCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert cache.get("a") is None
        assert len(cache) == 0
        assert cache.misses == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=-1)

    def test_clear_keeps_statistics(self):
        cache = LRUCache(capacity=3)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_reset_statistics(self):
        cache = LRUCache(capacity=3)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        cache.reset_statistics()
        assert cache.hits == 0
        assert cache.misses == 0

    def test_hit_rate(self):
        cache = LRUCache(capacity=2)
        assert (cache.hits, cache.misses) == (0, 0)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        # one hit in two lookups: the rate ``hits / (hits + misses)`` is 0.5
        assert (cache.hits, cache.misses) == (1, 1)

    def test_capacity_never_exceeded(self):
        cache = LRUCache(capacity=3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3


class TestThreadSafety:
    def test_concurrent_get_put_clear_is_safe(self):
        """Hammer one cache from many threads; shared by the shard pool."""
        import threading

        cache = LRUCache(capacity=16)
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(2000):
                    key = (seed * 31 + i) % 64
                    cache.put(key, key)
                    value = cache.get(key)
                    assert value is None or value == key
                    if i % 500 == 499:
                        cache.clear()
                    if i % 97 == 0:
                        cache.invalidate(key)
                        assert len(cache) <= 16
            except Exception as exc:  # noqa: BLE001 - surfaced via assert below
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(cache) <= 16
        # Every lookup was tallied exactly once despite the contention.
        assert cache.hits + cache.misses == 8 * 2000

    def test_invalidate(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        assert cache.get("a") is None
