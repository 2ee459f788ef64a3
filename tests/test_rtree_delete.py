"""Tests for R-tree deletion (condense-tree + reinsert) and live updates.

Deletion is the substrate of the service's live-update path, so beyond the
structural invariants the load-bearing property is that query answers after
any mixed insert/delete workload match the exhaustive linear scan over the
surviving objects.
"""

import pytest

from repro import reference
from repro.config import RuntimeConfig
from repro.core.database import FuzzyDatabase
from repro.core.requests import AknnRequest
from repro.exceptions import IndexError_, ObjectNotFoundError
from repro.fuzzy.summary import build_summary
from repro.index.rtree import RTree

from tests.conftest import make_fuzzy_object, stored_objects


def _summaries(rng, count, **kwargs):
    objects = [make_fuzzy_object(rng, object_id=i, **kwargs) for i in range(count)]
    return [build_summary(obj) for obj in objects]


class TestTreeDeletion:
    def test_delete_reduces_size_and_keeps_invariants(self, rng):
        summaries = _summaries(rng, 40)
        tree = RTree.bulk_load(summaries, max_entries=5)
        order = list(range(40))
        rng.shuffle(order)
        remaining = set(range(40))
        for object_id in order:
            tree.delete(object_id, mbr=summaries[object_id].support_mbr)
            remaining.discard(object_id)
            assert len(tree) == len(remaining)
            tree.validate()
            ids = {int(i) for view in tree.leaf_views() for i in view.object_ids}
            assert ids == remaining

    def test_delete_without_mbr_hint(self, rng):
        summaries = _summaries(rng, 12)
        tree = RTree.bulk_load(summaries, max_entries=4)
        tree.delete(7)
        tree.validate()
        assert 7 not in {int(i) for view in tree.leaf_views() for i in view.object_ids}

    def test_delete_unknown_id_raises(self, rng):
        tree = RTree.bulk_load(_summaries(rng, 6), max_entries=4)
        with pytest.raises(IndexError_):
            tree.delete(999)

    def test_root_shrinks_after_mass_deletion(self, rng):
        summaries = _summaries(rng, 60)
        tree = RTree.bulk_load(summaries, max_entries=4)
        tall = tree.height
        assert tall >= 3
        for object_id in range(55):
            tree.delete(object_id, mbr=summaries[object_id].support_mbr)
            tree.validate()
        assert tree.height < tall
        assert len(tree) == 5

    def test_delete_to_empty_and_rebuild(self, rng):
        summaries = _summaries(rng, 10)
        tree = RTree.bulk_load(summaries, max_entries=4)
        for object_id in range(10):
            tree.delete(object_id)
        assert len(tree) == 0
        assert tree.root.is_leaf
        tree.validate()
        for summary in summaries:
            tree.insert(summary)
        tree.validate()
        assert len(tree) == 10

    def test_interleaved_insert_delete(self, rng):
        summaries = _summaries(rng, 30)
        tree = RTree.bulk_load(summaries[:15], max_entries=4)
        alive = set(range(15))
        for step, summary in enumerate(summaries[15:]):
            tree.insert(summary)
            alive.add(summary.object_id)
            victim = sorted(alive)[step % len(alive)]
            tree.delete(victim, mbr=summaries[victim].support_mbr)
            alive.discard(victim)
            tree.validate()
        assert {int(i) for view in tree.leaf_views() for i in view.object_ids} == alive

    def test_mutation_counter_advances(self, rng):
        summaries = _summaries(rng, 8)
        tree = RTree.bulk_load(summaries, max_entries=4)
        before = tree.mutations
        tree.delete(0)
        tree.insert(summaries[0])
        assert tree.mutations == before + 2


class TestDatabaseLiveUpdates:
    @pytest.fixture
    def database(self, rng):
        objects = [make_fuzzy_object(rng, object_id=i) for i in range(30)]
        return FuzzyDatabase.build(
            objects, config=RuntimeConfig(rtree_max_entries=5)
        )

    def test_query_parity_after_deletes(self, database, rng, query_object):
        order = list(database.object_ids())
        rng.shuffle(order)
        for object_id in order[:20]:
            database.delete(object_id)
            database.validate()
        result = database.execute(AknnRequest(query_object, k=5, alpha=0.5))
        truth = reference.aknn(stored_objects(database), query_object, k=5, alpha=0.5)
        assert set(result.object_ids) == {object_id for object_id, _ in truth}

    def test_insert_visible_to_queries(self, database, query_object, rng):
        # An object dropped on the query's own centre must become the 1-NN.
        clone = make_fuzzy_object(rng, center=[5.0, 5.0], spread=0.05)
        object_id = database.insert(clone)
        result = database.execute(AknnRequest(query_object, k=1, alpha=0.5))
        truth = reference.aknn(stored_objects(database), query_object, k=1, alpha=0.5)
        assert set(result.object_ids) == {object_id for object_id, _ in truth}
        assert object_id in database.object_ids()

    def test_deleted_object_never_returned(self, database, query_object):
        top = database.execute(AknnRequest(query_object, k=1, alpha=0.5)).object_ids[0]
        database.delete(top)
        result = database.execute(AknnRequest(query_object, k=5, alpha=0.5))
        assert top not in result.object_ids

    def test_delete_unknown_raises(self, database):
        with pytest.raises(ObjectNotFoundError):
            database.delete(10_000)

    def test_ids_never_recycled(self, database, rng):
        highest = max(database.object_ids())
        database.delete(highest)
        new_id = database.insert(make_fuzzy_object(rng))
        assert new_id > highest

    def test_batch_parity_after_equal_size_churn(self, database, rng, query_object):
        """Insert+delete keeping the size constant must refresh the rep index."""
        # Two requests sharing a bucket run the batch engine (a bucket of one
        # would take the single-query searcher and never touch the rep index).
        requests = [AknnRequest(query_object, k=4, alpha=0.5)] * 2
        database.execute_batch(requests)  # prime the KD-tree
        victim = database.object_ids()[0]
        database.delete(victim)
        database.insert(make_fuzzy_object(rng, center=[5.0, 5.0], spread=0.1))
        batch = database.execute_batch(requests)
        truth = reference.aknn(stored_objects(database), query_object, k=4, alpha=0.5)
        assert set(batch[0].object_ids) == {object_id for object_id, _ in truth}
