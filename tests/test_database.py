"""Tests for the FuzzyDatabase facade: build, query, persist, reopen."""

import numpy as np
import pytest

from repro import reference
from repro.config import RuntimeConfig
from repro.core.database import FuzzyDatabase
from repro.core.requests import AknnRequest, SweepRequest
from repro.exceptions import StorageError
from tests.conftest import assert_same_assignments, make_fuzzy_object, stored_objects


@pytest.fixture
def objects(rng):
    return [
        make_fuzzy_object(rng, n_points=20, center=rng.random(2) * 10, object_id=i)
        for i in range(25)
    ]


class TestBuild:
    def test_build_in_memory(self, objects):
        database = FuzzyDatabase.build(objects)
        assert len(database) == len(objects)
        database.validate()
        assert database.object_ids() == list(range(len(objects)))
        # Offline summary construction must not count as query-time accesses.
        assert database.object_accesses == 0

    def test_build_on_disk(self, objects, tmp_path):
        database = FuzzyDatabase.build(objects, path=tmp_path / "db")
        assert (tmp_path / "db" / "objects.dat").exists()
        database.validate()
        database.close()

    def test_build_assigns_missing_ids(self, rng):
        anonymous = [make_fuzzy_object(rng) for _ in range(5)]
        database = FuzzyDatabase.build(anonymous)
        assert database.object_ids() == [0, 1, 2, 3, 4]

    def test_get_object(self, objects):
        database = FuzzyDatabase.build(objects)
        obj = database.get_object(3)
        assert obj.object_id == 3
        assert database.object_accesses == 1

    def test_context_manager(self, objects, tmp_path):
        with FuzzyDatabase.build(objects, path=tmp_path / "db") as database:
            assert len(database) == len(objects)
        with pytest.raises(StorageError):
            database.get_object(0)

    def test_custom_config(self, objects):
        config = RuntimeConfig(rtree_max_entries=4, upper_bound_samples=2)
        database = FuzzyDatabase.build(objects, config=config)
        database.validate()
        assert database.tree.max_entries == 4


class TestQueries:
    def test_aknn_and_rknn_available(self, objects, rng):
        database = FuzzyDatabase.build(objects)
        query = make_fuzzy_object(rng, center=[5.0, 5.0])
        aknn = database.execute(AknnRequest(query, k=4, alpha=0.5))
        assert len(aknn) == 4
        rknn = database.execute(SweepRequest(query, k=4, alpha_range=(0.3, 0.6)))
        truth = reference.sweep(stored_objects(database), query, k=4, alpha_range=(0.3, 0.6))
        assert_same_assignments(rknn.assignments, truth)

    def test_reset_statistics(self, objects, rng):
        database = FuzzyDatabase.build(objects)
        query = make_fuzzy_object(rng, center=[5.0, 5.0])
        database.execute(AknnRequest(query, k=3, alpha=0.5, method="basic"))
        assert database.object_accesses > 0
        database.reset_statistics()
        assert database.object_accesses == 0


class TestPersistence:
    def test_save_and_open_roundtrip(self, objects, rng, tmp_path):
        path = tmp_path / "db"
        database = FuzzyDatabase.build(objects, path=path)
        database.save(path)
        query = make_fuzzy_object(rng, center=[5.0, 5.0])
        expected = database.execute(AknnRequest(query, k=5, alpha=0.5, method="lb"))
        expected_ids = sorted(expected.object_ids)
        database.close()

        reopened = FuzzyDatabase.open(path)
        reopened.validate()
        assert len(reopened) == len(objects)
        result = reopened.execute(AknnRequest(query, k=5, alpha=0.5, method="lb"))
        assert sorted(result.object_ids) == expected_ids
        reopened.close()

    def test_open_missing_raises(self, tmp_path):
        with pytest.raises(StorageError):
            FuzzyDatabase.open(tmp_path / "nowhere")

    def test_open_with_explicit_config(self, objects, tmp_path):
        path = tmp_path / "db"
        database = FuzzyDatabase.build(objects, path=path)
        database.save(path)
        database.close()
        reopened = FuzzyDatabase.open(path, config=RuntimeConfig(rtree_max_entries=6))
        assert reopened.tree.max_entries == 6
        reopened.close()

    def test_saved_config_restored(self, objects, tmp_path):
        path = tmp_path / "db"
        database = FuzzyDatabase.build(
            objects, path=path, config=RuntimeConfig(rtree_max_entries=8)
        )
        database.save(path)
        database.close()
        reopened = FuzzyDatabase.open(path)
        assert reopened.config.rtree_max_entries == 8
        reopened.close()

    def test_validate_detects_store_index_mismatch(self, objects):
        database = FuzzyDatabase.build(objects)
        database.tree._size -= 1
        with pytest.raises(Exception):
            database.validate()


class TestRoundTripUnderCustomConfig:
    def test_save_open_parity_with_non_default_runtime_config(
        self, objects, rng, tmp_path
    ):
        """Queries must agree before save and after reopen when the runtime
        config is non-default (buffer pool, fan-out, bound samples)."""
        config = RuntimeConfig(
            rtree_max_entries=8,
            cache_capacity=16,
            upper_bound_samples=4,
        )
        database = FuzzyDatabase.build(objects, path=tmp_path / "db", config=config)
        database.save(tmp_path / "db")
        query = make_fuzzy_object(rng, center=[5.0, 5.0])
        queries = [make_fuzzy_object(rng, center=rng.random(2) * 10) for _ in range(5)]

        before_aknn = database.execute(AknnRequest(query, k=6, alpha=0.5))
        batch_requests = [AknnRequest(q, k=4, alpha=0.5) for q in queries]
        before_batch = database.execute_batch(batch_requests)
        before_rknn = database.execute(SweepRequest(query, k=4, alpha_range=(0.3, 0.6)))
        database.close()

        reopened = FuzzyDatabase.open(tmp_path / "db", config=config)
        assert reopened.config.cache_capacity == 16
        assert reopened.config.upper_bound_samples == 4
        reopened.validate()

        after_aknn = reopened.execute(AknnRequest(query, k=6, alpha=0.5))
        assert set(after_aknn.object_ids) == set(before_aknn.object_ids)
        after_batch = reopened.execute_batch(batch_requests)
        for before, after in zip(before_batch, after_batch):
            assert before.object_ids == after.object_ids
        after_rknn = reopened.execute(SweepRequest(query, k=4, alpha_range=(0.3, 0.6)))
        assert_same_assignments(after_rknn.assignments, before_rknn.assignments)
        # The buffer pool is live after reopen: repeated probes hit it.
        reopened.reset_statistics()
        reopened.get_object(0)
        reopened.get_object(0)
        assert reopened.store.statistics.cache_hits >= 1
        reopened.close()

    def test_saved_default_config_roundtrip_still_queries(self, objects, tmp_path, rng):
        database = FuzzyDatabase.build(objects, path=tmp_path / "plain")
        database.save(tmp_path / "plain")
        database.close()
        reopened = FuzzyDatabase.open(tmp_path / "plain")
        result = reopened.execute(
            AknnRequest(make_fuzzy_object(rng, center=[5.0, 5.0]), k=3, alpha=0.5)
        )
        assert len(result) == 3
        reopened.close()

    def test_deleted_ids_stay_retired_across_reopen(self, objects, rng, tmp_path):
        """The never-recycle-ids guarantee must survive save/open."""
        database = FuzzyDatabase.build(objects, path=tmp_path / "wm")
        highest = max(database.object_ids())
        database.delete(highest)
        database.save(tmp_path / "wm")
        database.close()
        reopened = FuzzyDatabase.open(tmp_path / "wm")
        new_id = reopened.insert(make_fuzzy_object(rng))
        assert new_id == highest + 1
        reopened.close()
