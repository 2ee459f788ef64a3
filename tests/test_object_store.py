"""Unit tests for the object store (in-memory and on-disk modes)."""

import numpy as np
import pytest

from repro.exceptions import ObjectNotFoundError, StorageError
from repro.storage.object_store import ObjectStore
from tests.conftest import make_fuzzy_object


@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path):
    """One store per backing mode, closed after the test."""
    path = None if request.param == "memory" else tmp_path / "objects.dat"
    store = ObjectStore(path=path)
    yield store
    store.close()


class TestPutGet:
    def test_put_assigns_sequential_ids(self, store, rng):
        ids = [store.put(make_fuzzy_object(rng)) for _ in range(3)]
        assert ids == [0, 1, 2]

    def test_put_respects_explicit_id(self, store, rng):
        assert store.put(make_fuzzy_object(rng, object_id=42)) == 42

    def test_duplicate_id_rejected(self, store, rng):
        store.put(make_fuzzy_object(rng, object_id=7))
        with pytest.raises(StorageError):
            store.put(make_fuzzy_object(rng, object_id=7))

    def test_get_roundtrip(self, store, rng):
        obj = make_fuzzy_object(rng, object_id=5)
        store.put(obj)
        loaded = store.get(5)
        np.testing.assert_allclose(loaded.points, obj.points)
        np.testing.assert_allclose(loaded.memberships, obj.memberships)
        assert loaded.object_id == 5

    def test_get_missing_raises(self, store):
        with pytest.raises(ObjectNotFoundError):
            store.get(123)

    def test_contains_len_ids(self, store, rng):
        store.put(make_fuzzy_object(rng, object_id=2))
        store.put(make_fuzzy_object(rng, object_id=9))
        assert 2 in store and 9 in store and 5 not in store
        assert len(store) == 2
        assert store.object_ids() == [2, 9]

    def test_build_classmethod(self, rng):
        """A store is filled by ``put``: the constructor plus one put per object."""
        objects = [make_fuzzy_object(rng, object_id=i) for i in range(5)]
        store = ObjectStore()
        assert [store.put(obj) for obj in objects] == list(range(5))
        assert len(store) == 5
        store.close()


class TestAccessCounting:
    def test_each_get_counts_one_access(self, store, rng):
        store.put(make_fuzzy_object(rng, object_id=0))
        store.put(make_fuzzy_object(rng, object_id=1))
        store.get(0)
        store.get(0)
        store.get(1)
        assert store.access_count == 3
        assert store.statistics.physical_reads == 3

    def test_reset_statistics(self, store, rng):
        store.put(make_fuzzy_object(rng, object_id=0))
        store.get(0)
        store.reset_statistics()
        assert store.access_count == 0

    def test_put_does_not_count_accesses(self, store, rng):
        store.put(make_fuzzy_object(rng, object_id=0))
        assert store.access_count == 0
        assert store.statistics.bytes_written > 0

    def test_cache_reduces_physical_reads_but_not_accesses(self, rng, tmp_path):
        store = ObjectStore(path=tmp_path / "cached.dat", cache_capacity=4)
        store.put(make_fuzzy_object(rng, object_id=0))
        store.get(0)
        store.get(0)
        assert store.access_count == 2
        assert store.statistics.physical_reads == 1
        assert store.statistics.cache_hits == 1
        store.close()

    def test_iter_objects_can_skip_accounting(self, store, rng):
        for i in range(3):
            store.put(make_fuzzy_object(rng, object_id=i))
        list(store.iter_objects(count_accesses=False))
        assert store.access_count == 0
        list(store.iter_objects(count_accesses=True))
        assert store.access_count == 3

    def test_snapshot_is_immutable_copy(self, store, rng):
        store.put(make_fuzzy_object(rng, object_id=0))
        snap = store.statistics.snapshot()
        store.get(0)
        assert snap.object_accesses == 0
        assert store.statistics.object_accesses == 1


class TestPersistence:
    def test_reopen_existing_file(self, rng, tmp_path):
        path = tmp_path / "objects.dat"
        store = ObjectStore(path=path)
        objects = [make_fuzzy_object(rng, object_id=i) for i in range(3)]
        for obj in objects:
            store.put(obj)
        table = store.slot_table()
        store.close()

        reopened = ObjectStore.open_existing(path, table)
        for obj in objects:
            loaded = reopened.get(obj.object_id)
            np.testing.assert_allclose(loaded.points, obj.points)
        reopened.close()

    def test_closed_store_rejects_operations(self, rng, tmp_path):
        store = ObjectStore(path=tmp_path / "x.dat")
        store.put(make_fuzzy_object(rng, object_id=0))
        store.close()
        with pytest.raises(StorageError):
            store.get(0)
        with pytest.raises(StorageError):
            store.put(make_fuzzy_object(rng, object_id=1))

    def test_context_manager_closes(self, rng, tmp_path):
        with ObjectStore(path=tmp_path / "y.dat") as store:
            store.put(make_fuzzy_object(rng, object_id=0))
        with pytest.raises(StorageError):
            store.get(0)


class TestDeletion:
    def test_delete_removes_object(self, store, rng):
        store.put(make_fuzzy_object(rng, object_id=0))
        store.put(make_fuzzy_object(rng, object_id=1))
        store.delete(0)
        assert len(store) == 1
        assert 0 not in store
        with pytest.raises(ObjectNotFoundError):
            store.get(0)
        assert store.statistics.deletes == 1

    def test_delete_missing_raises(self, store):
        with pytest.raises(ObjectNotFoundError):
            store.delete(5)

    def test_deleted_ids_never_reassigned(self, store, rng):
        ids = [store.put(make_fuzzy_object(rng)) for _ in range(3)]
        store.delete(ids[-1])
        new_id = store.put(make_fuzzy_object(rng))
        assert new_id == ids[-1] + 1

    def test_delete_evicts_cached_copy(self, rng, tmp_path):
        store = ObjectStore(path=tmp_path / "del.dat", cache_capacity=4)
        store.put(make_fuzzy_object(rng, object_id=0))
        store.get(0)  # populate the buffer pool
        store.delete(0)
        with pytest.raises(ObjectNotFoundError):
            store.get(0)
        store.close()
