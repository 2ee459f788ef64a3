"""Tests for the reverse AKNN extension query, against the brute-force
reference."""

import sys
import threading

import numpy as np
import pytest

from repro import reference
from repro.config import RuntimeConfig
from repro.core import executor as executor_module
from repro.core.database import FuzzyDatabase
from repro.core.requests import ReverseRequest
from repro.core.reverse_nn import ReverseAKNNSearcher
from repro.exceptions import InvalidQueryError
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.metrics.counters import MetricsCollector
from repro.service import FaultPlan, ShardedDatabase
from tests.conftest import assert_reverse_answer, make_fuzzy_object


def reverse_ids(objects, query, k, alpha):
    return [object_id for object_id, _ in reference.reverse(objects, query, k, alpha)]


@pytest.fixture
def reverse_setup(rng):
    objects = [
        make_fuzzy_object(rng, n_points=12, center=rng.random(2) * 8, object_id=i)
        for i in range(22)
    ]
    database = FuzzyDatabase.build(objects)
    query = make_fuzzy_object(rng, n_points=12, center=[4.0, 4.0])
    yield database, objects, query
    database.close()


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_brute_force(self, reverse_setup, k):
        database, objects, query = reverse_setup
        expected = reverse_ids(objects, query, k, alpha=0.5)
        result = database.execute(ReverseRequest(query, k=k, alpha=0.5))
        assert result.object_ids == expected

    @pytest.mark.parametrize("alpha", [0.2, 0.8, 1.0])
    def test_matches_brute_force_across_alphas(self, reverse_setup, alpha):
        database, objects, query = reverse_setup
        expected = reverse_ids(objects, query, 2, alpha=alpha)
        result = database.execute(ReverseRequest(query, k=2, alpha=alpha))
        assert result.object_ids == expected

    def test_distances_reported_for_results(self, reverse_setup):
        database, objects, query = reverse_setup
        for k in (1, 2, 4):
            result = database.execute(ReverseRequest(query, k=k, alpha=0.5))
            assert_reverse_answer(result, objects, query, k, 0.5)

    def test_far_away_query_has_no_reverse_neighbors(self, reverse_setup):
        database, objects, query = reverse_setup
        far_query = make_fuzzy_object(np.random.default_rng(1), center=[500.0, 500.0])
        result = database.execute(ReverseRequest(far_query, k=1, alpha=0.5))
        assert len(result) == 0

    def test_large_k_returns_everything(self, reverse_setup):
        database, objects, _ = reverse_setup
        query = make_fuzzy_object(np.random.default_rng(2), center=[4.0, 4.0])
        result = database.execute(
            ReverseRequest(query, k=len(objects) + 5, alpha=0.5)
        )
        assert len(result) == len(objects)


def assert_matches_reference(database, objects, query, k, alpha):
    """Pin the served reverse answer to the brute-force one."""
    expected = reverse_ids(objects, query, k, alpha)
    result = database.execute(ReverseRequest(query, k=k, alpha=alpha))
    assert result.object_ids == expected, (
        f"diverged at k={k}, alpha={alpha}: {result.object_ids} != {expected}"
    )


class TestEdgeCaseParity:
    """Regression pins for the degenerate configurations of the RKNN engine."""

    def test_duplicate_objects_zero_distance_ties(self, rng):
        """Identical objects sit at distance zero from each other: the
        strictly-closer count must treat the tie as the reference does."""
        base = make_fuzzy_object(rng, n_points=10, center=[2.0, 2.0])
        objects = [
            FuzzyObject(base.points.copy(), base.memberships.copy(), object_id=i)
            for i in range(3)
        ] + [
            make_fuzzy_object(rng, n_points=10, center=rng.random(2) * 6, object_id=i)
            for i in range(3, 12)
        ]
        database = FuzzyDatabase.build(list(objects))
        try:
            query = make_fuzzy_object(rng, n_points=10, center=[2.5, 2.5])
            for k in (1, 2, 3, 5):
                assert_matches_reference(database, objects, query, k, alpha=0.5)
            # A query coincident with the duplicates (distance-zero to them).
            coincident = FuzzyObject(base.points.copy(), base.memberships.copy())
            for k in (1, 3):
                assert_matches_reference(database, objects, coincident, k, alpha=0.5)
        finally:
            database.close()

    @pytest.mark.parametrize("k_extra", [0, 1, 10])
    def test_k_at_least_n_returns_everything(self, rng, k_extra):
        objects = [
            make_fuzzy_object(rng, n_points=8, center=rng.random(2) * 5, object_id=i)
            for i in range(7)
        ]
        database = FuzzyDatabase.build(list(objects))
        try:
            query = make_fuzzy_object(rng, n_points=8, center=[2.0, 2.0])
            assert_matches_reference(
                database, objects, query, k=len(objects) + k_extra, alpha=0.5
            )
            result = database.execute(
                ReverseRequest(query, k=len(objects) + k_extra, alpha=0.5)
            )
            assert len(result) == len(objects)
        finally:
            database.close()

    def test_single_object_store(self, rng):
        objects = [make_fuzzy_object(rng, n_points=8, center=[1.0, 1.0], object_id=0)]
        database = FuzzyDatabase.build(list(objects))
        try:
            query = make_fuzzy_object(rng, n_points=8, center=[4.0, 4.0])
            for k in (1, 2):
                assert_matches_reference(database, objects, query, k, alpha=0.5)
        finally:
            database.close()

    def test_alpha_one_kernel_cuts(self, reverse_setup):
        database, objects, query = reverse_setup
        for k in (1, 3):
            assert_matches_reference(database, objects, query, k, alpha=1.0)

    def test_empty_database(self):
        database = FuzzyDatabase.build([])
        try:
            query = make_fuzzy_object(np.random.default_rng(4), center=[1.0, 1.0])
            result = database.execute(ReverseRequest(query, k=2, alpha=0.5))
            assert len(result) == 0
        finally:
            database.close()


class TestBatchEngine:
    def test_search_batch_matches_per_query(self, reverse_setup, rng):
        """A coalesced bucket returns exactly the per-query answers."""
        database, objects, _ = reverse_setup
        bucket = [
            make_fuzzy_object(rng, n_points=12, center=rng.random(2) * 8)
            for _ in range(5)
        ]
        results = database.execute_batch(
            [ReverseRequest(query, k=2, alpha=0.5) for query in bucket]
        )
        assert len(results) == len(bucket)
        for query, result in zip(bucket, results):
            assert_reverse_answer(result, objects, query, 2, 0.5)
            single = database.execute(ReverseRequest(query, k=2, alpha=0.5))
            assert_reverse_answer(single, objects, query, 2, 0.5)
            assert single.object_ids == result.object_ids

    def test_empty_bucket(self, reverse_setup):
        database, _, _ = reverse_setup
        assert database.execute_batch([]) == []

    def test_batch_filter_is_effective(self, reverse_setup):
        """The vectorized filter verifies no more candidates than a scan would."""
        database, objects, query = reverse_setup
        batch = database.execute(ReverseRequest(query, k=2, alpha=0.5))
        assert batch.object_ids == reverse_ids(objects, query, 2, 0.5)
        assert batch.stats.extra["candidates"] <= len(objects)

    def test_batch_reports_exact_distances(self, reverse_setup):
        """A member read for its count carries its exact distance; one its
        bounds confirmed carries ``None`` and an upper bound instead."""
        database, objects, query = reverse_setup
        result = database.execute(ReverseRequest(query, k=2, alpha=0.5))
        assert_reverse_answer(result, objects, query, 2, 0.5)
        probed = [d for d in result.distances.values() if d is not None]
        assert len(probed) + len(result.upper_bounds) == len(result)


class TestCostAndValidation:

    def test_validation(self, reverse_setup):
        database, _, query = reverse_setup
        with pytest.raises(InvalidQueryError):
            database.execute(ReverseRequest(query, k=0, alpha=0.5))
        with pytest.raises(InvalidQueryError):
            database.execute(ReverseRequest(query, k=2, alpha=0.0))
        with pytest.raises(TypeError):  # one reverse plan: there is no method
            ReverseRequest(query, k=2, alpha=0.5, method="batch")

    def test_searcher_direct_use(self, reverse_setup):
        database, objects, query = reverse_setup
        searcher = ReverseAKNNSearcher(database.store, database.tree)
        (result,) = searcher.search_batch([query], k=3, alpha=0.6)
        expected = reverse_ids(objects, query, 3, alpha=0.6)
        assert result.object_ids == expected
        assert result.stats.object_accesses > 0
        assert result.k == 3 and result.alpha == 0.6


class TestTableVersion:
    """The filter's k-th MaxDist table is built once per partition-set
    version: two buckets with no write between them build it once, every
    write (also one that keeps a tree's size) and every change of the live
    set rebuilds it, and every answer equals the reference."""

    K, ALPHA = 3, 0.5

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        kernel = executor_module.kth_max_dists

        def counted(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(executor_module, "kth_max_dists", counted)
        return calls

    def answer(self, db, queries, builds, expect_builds, objects=None):
        """One reverse bucket; its kernel calls and answers are checked."""
        before = len(builds)
        results = db.execute_batch(
            [ReverseRequest(q, k=self.K, alpha=self.ALPHA) for q in queries]
        )
        assert len(builds) - before == expect_builds
        if objects is None:
            objects = [db.get_object(object_id) for object_id in db.object_ids()]
        for query, result in zip(queries, results):
            assert_reverse_answer(result, objects, query, self.K, self.ALPHA)
        return results

    @staticmethod
    def tree_mates(db, object_id):
        """Ids stored in the same tree as ``object_id``."""
        if isinstance(db, FuzzyDatabase):
            return db.object_ids()
        (shard,) = [s for s in db._shards if object_id in s.db.summaries]
        return shard.db.object_ids()

    @pytest.mark.parametrize("n_shards", [None, 1, 3])
    def test_writes_and_recovery_rebuild_the_table(self, builds, tmp_path, n_shards):
        rng = np.random.default_rng(41)
        objects = [
            make_fuzzy_object(rng, n_points=10, center=rng.random(2) * 8, object_id=i)
            for i in range(45)
        ]
        queries = [
            make_fuzzy_object(rng, n_points=10, center=center)
            for center in ([3.0, 3.0], [5.0, 6.0])
        ]
        config = RuntimeConfig(
            rtree_max_entries=6, snapshot_every=0, service_shards=n_shards or 1,
            shard_retry_attempts=1, shard_retry_base_ms=0.1, shard_retry_max_ms=0.2,
        )
        engine = FuzzyDatabase if n_shards is None else ShardedDatabase
        db = engine.build(objects, config=config)
        parts = n_shards or 1
        self.answer(db, queries, builds, parts)
        self.answer(db, queries, builds, 0)  # no write: the same table

        db.insert(make_fuzzy_object(rng, center=[3.5, 3.0]))
        self.answer(db, queries, builds, parts)
        db.insert(make_fuzzy_object(rng, center=[5.0, 5.5], object_id=100))
        self.answer(db, queries, builds, parts)
        db.delete(7)
        self.answer(db, queries, builds, parts)
        # One insert and one delete in the same tree: its size is unchanged.
        fresh = db.insert(make_fuzzy_object(rng, center=[4.0, 4.0]))
        db.delete(next(i for i in self.tree_mates(db, fresh) if i != fresh))
        self.answer(db, queries, builds, parts)

        db.enable_durability(tmp_path / "db")  # deletes now take delete_lazy
        db.delete(db.object_ids()[0])
        self.answer(db, queries, builds, parts)
        # Lazy deletes from one tree until its compaction swaps the tree in.
        victim = db.object_ids()[-1]
        owner = db if n_shards is None else next(
            s.db for s in db._shards if victim in s.db.summaries
        )
        while not owner.metrics.get(MetricsCollector.COMPACTIONS):
            db.delete(next(i for i in self.tree_mates(db, victim) if i != victim))
        self.answer(db, queries, builds, parts)
        self.answer(db, queries, builds, 0)

        # Recovery: a new database with its own, cold table.
        db.close()
        db = engine.recover(tmp_path / "db", config=config)
        try:
            self.answer(db, queries, builds, parts)
            self.answer(db, queries, builds, 0)
            if n_shards != 3:
                return
            # A dead shard: the pass reruns over the survivors, whose rows
            # are a different set, so the table is rebuilt for them only.
            db.fault_plan = FaultPlan.parse("shard=2,op=reverse_filter,kind=raise")
            survivors = [
                db.get_object(object_id)
                for shard in db._shards[:2]
                for object_id in shard.db.object_ids()
            ]
            results = self.answer(db, queries, builds, 2, objects=survivors)
            assert all(result.coverage.failed == (2,) for result in results)
            db.fault_plan = None
            self.answer(db, queries, builds, parts)
        finally:
            db.close()

    def test_concurrent_buckets_share_the_table(self):
        """Readers on more threads than cores, over more (alpha, k) pairs
        than the table keeps: a lost update only costs a rebuild, and every
        answer still equals the reference."""
        rng = np.random.default_rng(43)
        objects = [
            make_fuzzy_object(rng, n_points=8, center=rng.random(2) * 8, object_id=i)
            for i in range(36)
        ]
        queries = [make_fuzzy_object(rng, n_points=8, center=rng.random(2) * 8)]
        pairs = [(alpha, k) for alpha in (0.3, 0.5, 0.7) for k in (1, 2, 3)]
        want = {
            (alpha, k): reverse_ids(objects, queries[0], k, alpha)
            for alpha, k in pairs
        }
        db = ShardedDatabase.build(
            objects, config=RuntimeConfig(rtree_max_entries=6, service_shards=3)
        )
        wrong, errors = [], []

        def reader(offset):
            try:
                for step in range(12):
                    alpha, k = pairs[(offset + step) % len(pairs)]
                    got = db.execute(ReverseRequest(queries[0], k=k, alpha=alpha))
                    if got.object_ids != want[alpha, k]:
                        wrong.append((alpha, k, got.object_ids))
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
            db.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert not wrong, wrong
