"""Parity tests for the sharded database.

The load-bearing property is that partitioning is invisible to results:
``ShardedDatabase`` must return the same neighbour sets / matches /
qualifying ranges as the single-tree ``FuzzyDatabase`` over the same
objects, for every placement policy, shard count and query type — including
after a mixed insert/delete workload applied to both sides.
"""

import sys
import threading

import numpy as np
import pytest

from repro import reference as oracle
from repro.config import RuntimeConfig
from repro.core import reverse_nn as reverse_module
from repro.core.aknn import AKNN_METHODS
from repro.core.database import FuzzyDatabase
from repro.core.requests import (
    AknnRequest,
    RangeRequest,
    ReverseRequest,
    SweepRequest,
)
from repro.datasets.builder import build_dataset
from repro.datasets.queries import generate_query_object
from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset
from repro.exceptions import (
    InvalidFuzzyObjectError,
    InvalidQueryError,
    ObjectNotFoundError,
)
from repro.metrics.counters import MetricsCollector
from repro.service import QueryService, ShardedDatabase
from repro.service.placement import HashPlacement, SpacePlacement, make_placement

from tests.conftest import (
    assert_reverse_answer, assert_same_assignments, make_fuzzy_object, stored_objects,
)

SHARD_COUNTS = (2, 3, 5)
PLACEMENTS = ("hash", "space")


@pytest.fixture(scope="module")
def objects():
    return build_dataset(
        kind="synthetic", n_objects=90, points_per_object=24, seed=31, space_size=9.0
    )


@pytest.fixture(scope="module")
def config():
    return RuntimeConfig(rtree_max_entries=8, cache_capacity=32)


@pytest.fixture(scope="module")
def reference(objects, config):
    database = FuzzyDatabase.build(list(objects), config=config)
    yield database
    database.close()


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(404)
    return [
        generate_query_object(rng, kind="synthetic", space_size=9.0, points_per_object=24)
        for _ in range(4)
    ]


def build_sharded(objects, config, n_shards, placement):
    return ShardedDatabase.build(
        list(objects), n_shards=n_shards, placement=placement, config=config
    )


class TestPlacementPolicies:
    def test_hash_placement_is_deterministic_and_in_range(self):
        policy = HashPlacement(4)
        shards = [policy.shard_for(i) for i in range(100)]
        assert shards == [policy.shard_for(i) for i in range(100)]
        assert set(shards) == {0, 1, 2, 3}

    def test_space_placement_stripes_the_axis(self):
        centers = np.linspace(0.0, 10.0, 100).reshape(-1, 1)
        policy = SpacePlacement.fit(centers, 4)
        assert policy.shard_for(0, np.array([0.1])) == 0
        assert policy.shard_for(1, np.array([9.9])) == 3
        assigned = [policy.shard_for(i, c) for i, c in enumerate(centers)]
        assert assigned == sorted(assigned)  # monotone along the axis

    def test_space_placement_requires_center(self):
        policy = SpacePlacement.fit(np.linspace(0, 1, 10).reshape(-1, 1), 2)
        with pytest.raises(ValueError):
            policy.shard_for(3, None)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_placement("nope", 2)

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_shards_are_reasonably_balanced(self, objects, config, placement):
        sharded = build_sharded(objects, config, 3, placement)
        sizes = sharded.shard_sizes()
        assert sum(sizes) == len(objects)
        assert min(sizes) >= len(objects) // 6  # no shard starves
        sharded.close()


class TestQueryParity:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("method", AKNN_METHODS)
    def test_aknn_parity(
        self, objects, config, reference, queries, placement, n_shards, method
    ):
        sharded = build_sharded(objects, config, n_shards, placement)
        for query in queries:
            got = sharded.execute(AknnRequest(query, k=7, alpha=0.5, method=method))
            want = reference.execute(AknnRequest(query, k=7, alpha=0.5, method=method))
            assert set(got.object_ids) == set(want.object_ids)
            exact = dict(oracle.aknn(objects, query, len(objects), 0.5))
            for neighbor in got.neighbors:
                d_alpha = exact[neighbor.object_id]
                assert neighbor.lower_bound <= d_alpha <= neighbor.upper_bound
                if neighbor.probed:
                    assert neighbor.distance == pytest.approx(d_alpha, rel=1e-9)
        sharded.close()

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_batch_parity(self, objects, config, reference, queries, placement, n_shards):
        sharded = build_sharded(objects, config, n_shards, placement)
        batch = sharded.execute_batch(
            [AknnRequest(query, k=6, alpha=0.45) for query in queries]
        )
        assert len(batch) == len(queries)
        for query, result in zip(queries, batch):
            want = reference.execute(AknnRequest(query, k=6, alpha=0.45))
            assert set(result.object_ids) == set(want.object_ids)
        sharded.close()

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_range_parity(self, objects, config, reference, queries, placement, n_shards):
        sharded = build_sharded(objects, config, n_shards, placement)
        got = sharded.execute(RangeRequest(queries[0], alpha=0.5, radius=1.5))
        want = reference.execute(RangeRequest(queries[0], alpha=0.5, radius=1.5))
        assert got.matches == want.matches
        sharded.close()

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("n_shards", (2, 4))
    def test_reverse_aknn_parity(
        self, objects, config, queries, placement, n_shards
    ):
        """Sharded reverse AKNN returns the brute-force answer for every
        placement and shard count."""
        sharded = build_sharded(objects, config, n_shards, placement)
        try:
            for query in queries[:2]:
                for k in (1, 4):
                    got = sharded.execute(ReverseRequest(query, k=k, alpha=0.5))
                    assert_reverse_answer(got, objects, query, k, 0.5)
        finally:
            sharded.close()

    def test_reverse_aknn_batch_bucket_parity(
        self, objects, config, reference, queries
    ):
        sharded = build_sharded(objects, config, 3, "hash")
        try:
            results = sharded.execute_batch(
                [ReverseRequest(query, k=3, alpha=0.5) for query in queries]
            )
            assert len(results) == len(queries)
            for query, got in zip(queries, results):
                want = reference.execute(ReverseRequest(query, k=3, alpha=0.5))
                assert got.object_ids == want.object_ids
        finally:
            sharded.close()

    def test_reverse_aknn_invalid_arguments(self, objects, config, queries):
        sharded = build_sharded(objects, config, 2, "hash")
        try:
            with pytest.raises(InvalidQueryError):
                sharded.execute(ReverseRequest(queries[0], k=0, alpha=0.5))
            with pytest.raises(InvalidQueryError):
                sharded.execute(ReverseRequest(queries[0], k=2, alpha=0.0))
        finally:
            sharded.close()

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("method", ("basic", "rss", "rss_icr"))
    def test_rknn_parity(self, objects, config, reference, queries, placement, method):
        sharded = build_sharded(objects, config, 3, placement)
        got = sharded.execute(
            SweepRequest(queries[1], k=4, alpha_range=(0.3, 0.6), method=method)
        )
        want = reference.execute(
            SweepRequest(queries[1], k=4, alpha_range=(0.3, 0.6), method=method)
        )
        assert_same_assignments(got.assignments, want.assignments)
        sharded.close()

    def test_k_larger_than_database(self, objects, config, queries):
        sharded = build_sharded(objects, config, 3, "hash")
        result = sharded.execute(AknnRequest(queries[0], k=len(objects) + 5, alpha=0.5))
        assert len(result) == len(objects)
        sharded.close()

    def test_invalid_arguments_rejected(self, objects, config, queries):
        sharded = build_sharded(objects, config, 2, "hash")
        with pytest.raises(InvalidQueryError):
            sharded.execute(AknnRequest(queries[0], k=0, alpha=0.5))
        with pytest.raises(InvalidQueryError):
            sharded.execute(AknnRequest(queries[0], k=3, alpha=0.5, method="nope"))
        sharded.close()


class TestLiveWorkloadParity:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_mixed_insert_delete_workload(
        self, objects, config, queries, placement, n_shards
    ):
        """Apply one interleaved insert/delete stream to both databases."""
        rng = np.random.default_rng(77)
        sharded = build_sharded(objects, config, n_shards, placement)
        mirror = FuzzyDatabase.build(list(objects), config=config)
        epoch_before = sharded.epoch

        alive = list(sharded.object_ids())
        for step in range(25):
            if step % 3 == 2:
                victim = alive.pop(int(rng.integers(0, len(alive))))
                sharded.delete(victim)
                mirror.delete(victim)
            else:
                obj = make_fuzzy_object(rng, center=rng.random(2) * 9.0)
                new_id = sharded.insert(obj)
                mirror_id = mirror.insert(obj.with_id(new_id))
                assert mirror_id == new_id
                alive.append(new_id)
        sharded.validate()
        assert sharded.epoch > epoch_before
        assert sorted(sharded.object_ids()) == sorted(mirror.object_ids())

        for query in queries[:2]:
            for method in ("basic", "lb_lp_ub"):
                got = sharded.execute(AknnRequest(query, k=6, alpha=0.5, method=method))
                want = mirror.execute(AknnRequest(query, k=6, alpha=0.5, method=method))
                assert set(got.object_ids) == set(want.object_ids)
            got_range = sharded.execute(RangeRequest(query, alpha=0.5, radius=1.4))
            want_range = mirror.execute(RangeRequest(query, alpha=0.5, radius=1.4))
            assert got_range.matches == want_range.matches
        got_rknn = sharded.execute(
            SweepRequest(queries[0], k=4, alpha_range=(0.35, 0.65))
        )
        want_rknn = mirror.execute(
            SweepRequest(queries[0], k=4, alpha_range=(0.35, 0.65))
        )
        assert_same_assignments(got_rknn.assignments, want_rknn.assignments)
        # Reverse AKNN stays exact after churn.
        got_reverse = sharded.execute(ReverseRequest(queries[0], k=3, alpha=0.5))
        want_reverse = oracle.reverse(stored_objects(mirror), queries[0], 3, 0.5)
        assert got_reverse.object_ids == [object_id for object_id, _ in want_reverse]
        sharded.close()
        mirror.close()

    def test_delete_unknown_raises(self, objects, config):
        sharded = build_sharded(objects, config, 2, "hash")
        with pytest.raises(ObjectNotFoundError):
            sharded.delete(99_999)
        sharded.close()

    def test_concurrent_inserts_into_one_shard(self, objects, config):
        """Ids are handed out and applied in one order, so concurrent inserts
        never reach a shard below its own id watermark."""
        sharded = build_sharded(objects, config, 1, "hash")
        rng = np.random.default_rng(5)
        pool = [make_fuzzy_object(rng, center=rng.random(2) * 9.0) for _ in range(64)]
        ids, errors = [], []

        def writer(chunk):
            try:
                for obj in chunk:
                    ids.append(sharded.insert(obj))
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(pool[i::8],)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert sorted(ids) == list(range(len(objects), len(objects) + len(pool)))
        sharded.validate()
        sharded.close()

    def test_duplicate_explicit_id_rejected(self, objects, config, rng):
        sharded = build_sharded(objects, config, 2, "hash")
        taken = sharded.object_ids()[0]
        from repro.exceptions import StorageError

        with pytest.raises(StorageError):
            sharded.insert(make_fuzzy_object(rng, object_id=taken))
        sharded.close()


class TestGeometryValidation:
    """Regressions for NaN / non-finite geometry routing (PR 3 satellite)."""

    def test_space_placement_rejects_non_finite_centres(self):
        policy = SpacePlacement.fit(np.arange(20.0).reshape(-1, 1), 4)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                policy.shard_for(7, [bad, 0.0])
        # Finite centres still route normally.
        assert 0 <= policy.shard_for(7, [4.0, 0.0]) < 4

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_insert_rejects_non_finite_geometry(self, objects, config, placement):
        """A non-finite support centre must be rejected before the owner map
        or id watermark are touched, for every placement policy."""
        sharded = build_sharded(objects, config, 3, placement)
        try:
            size_before = len(sharded)
            ids_before = sharded.object_ids()
            poisoned = make_fuzzy_object(np.random.default_rng(9), center=[1.0, 1.0])
            poisoned.points[0, 0] = np.nan  # bypasses construction validation
            with pytest.raises(InvalidFuzzyObjectError, match="non-finite"):
                sharded.insert(poisoned)
            assert len(sharded) == size_before
            assert sharded.object_ids() == ids_before
            sharded.validate()
            # The id watermark did not advance for the rejected insert.
            clean = make_fuzzy_object(np.random.default_rng(10), center=[1.0, 1.0])
            assert sharded.insert(clean) == max(ids_before) + 1
        finally:
            sharded.close()

    def test_unsharded_insert_rejects_non_finite_geometry(self, objects, config):
        """The same chokepoint guards the plain FuzzyDatabase insert path."""
        database = FuzzyDatabase.build(list(objects), config=config)
        try:
            size_before = len(database)
            poisoned = make_fuzzy_object(np.random.default_rng(9), center=[1.0, 1.0])
            poisoned.points[0, 0] = np.nan
            with pytest.raises(InvalidFuzzyObjectError, match="non-finite"):
                database.insert(poisoned)
            assert len(database) == size_before
            database.validate()
        finally:
            database.close()


class TestTelemetry:
    def test_fanout_counter_and_stats(self, objects, config, queries):
        sharded = build_sharded(objects, config, 3, "hash")
        result = sharded.execute(AknnRequest(queries[0], k=5, alpha=0.5))
        assert result.stats.extra["shard_fanouts"] == 3.0
        assert sharded.metrics.get("shard_fanouts") >= 3
        # A shared bucket is one fan-out over the three shards answering
        # every member: the engine counters and per-request results say so.
        fanouts_before = sharded.metrics.get("shard_fanouts")
        batch = sharded.execute_batch(
            [AknnRequest(query, k=5, alpha=0.5) for query in queries]
        )
        assert sharded.metrics.get("shard_fanouts") - fanouts_before == 3
        assert sharded.metrics.get("batch_queries") == len(queries)
        for one in batch:
            assert one.coverage.answered == (0, 1, 2)
            assert one.stats.aknn_calls == 1
        sharded.close()


class TestOneSetOfNumbers:
    """Each batched pass is written once, so its counters cannot drift apart:
    a single tree and a one-shard database report the same ``QueryStats``."""

    K, ALPHA = 2, 0.5

    @pytest.fixture(scope="class")
    def engines(self, config):
        small = build_dataset(
            kind="synthetic", n_objects=36, points_per_object=16, seed=5, space_size=6.0
        )
        single = FuzzyDatabase.build(list(small), config=config)
        sharded = [build_sharded(small, config, n, "hash") for n in (1, 2)]
        yield single, *sharded
        for engine in (single, *sharded):
            engine.close()

    @staticmethod
    def counted(result):
        stats = result.stats.as_dict()
        return {
            name: value
            for name, value in stats.items()
            if name not in ("elapsed_seconds", "throughput_qps")
        }

    def test_aknn_bucket(self, engines, queries):
        single, one_shard, two_shards = engines
        requests = [AknnRequest(q, k=self.K, alpha=self.ALPHA) for q in queries[:2]]
        before = [e.metrics.get("upper_bound_evaluations") for e in (single, one_shard)]
        want = [self.counted(r) for r in single.execute_batch(requests)]
        assert [self.counted(r) for r in one_shard.execute_batch(requests)] == want
        # two trees are not one: only the traversal's node and box counts differ
        shape = ("bucket_node_accesses", "bucket_lower_bound_evaluations")
        for got, stats in zip(two_shards.execute_batch(requests), want):
            got = self.counted(got)
            assert got[shape[0]] > stats[shape[0]]
            assert {n: v for n, v in got.items() if n not in shape} == {
                n: v for n, v in stats.items() if n not in shape
            }
            assert stats["bucket_object_accesses"] > 0
        # the bootstrap's nominations are upper-bound evaluations on both engines
        nominations = [
            e.metrics.get("upper_bound_evaluations") - b
            for e, b in zip((single, one_shard), before)
        ]
        assert nominations == [2 * (self.K + 4)] * 2

    @pytest.mark.parametrize("family", ["aknn_1", "aknn_3", "range", "sweep", "reverse"])
    def test_database_counters_move_alike(self, engines, queries, family):
        """One bucket moves ``db.metrics`` by the same amounts on both engines
        (bar the sharded fan-out count): cost counters count the work done,
        ``batch_queries`` / ``reverse_*`` once per bucket answered."""
        single, one_shard, _ = engines
        # not ALPHA: the reverse filter's k-th MaxDist table at (K, ALPHA)
        # stays cold for test_reverse_bucket
        k, alpha = self.K, 0.4
        requests = {
            "aknn_1": [AknnRequest(queries[0], k=k, alpha=alpha)],
            "aknn_3": [AknnRequest(q, k=k, alpha=alpha) for q in queries[:3]],
            "range": [
                RangeRequest(q, alpha=alpha, radius=r) for q, r in zip(queries, (1.0, 2.5))
            ],
            "sweep": [SweepRequest(queries[1], k=k, alpha_range=(0.3, 0.7))],
            "reverse": [ReverseRequest(q, k=k, alpha=alpha) for q in queries[1:3]],
        }[family]

        def moved(engine):
            before = engine.metrics.as_dict()
            engine.execute_batch(requests)
            after = engine.metrics.as_dict()
            delta = {name: after[name] - before.get(name, 0) for name in after}
            delta.pop("shard_fanouts", None)
            return {name: value for name, value in delta.items() if value}

        want = moved(single)
        assert want["plan_requests"] == len(requests)
        assert moved(one_shard) == want

    def test_reverse_bucket(self, engines, queries, monkeypatch):
        single, one_shard, two_shards = engines
        requests = [ReverseRequest(q, k=self.K, alpha=self.ALPHA) for q in queries[:2]]
        verification = []
        around = reverse_module.shared_traversal

        def logged(*args, **kwargs):
            hits = around(*args, **kwargs)
            counted = args[6]  # the traversal's own collector
            verification.append(counted.get(MetricsCollector.LOWER_BOUND_EVALUATIONS))
            return hits

        monkeypatch.setattr(reverse_module, "shared_traversal", logged)
        want = [self.counted(r) for r in single.execute_batch(requests)]
        (traversal,) = verification
        assert [self.counted(r) for r in one_shard.execute_batch(requests)] == want
        for stats in want:
            # the filter's Q.n + n^2 box tests plus the verification traversal
            assert stats["bucket_lower_bound_evaluations"] == 2 * 36 + 36 * 36 + traversal
            assert stats["batch_reverse_queries"] == 2.0
            assert stats["shard_fanouts"] == 1.0
            assert stats["reverse_candidates"] >= stats["candidates"]
            assert stats["reverse_candidates"] > 0
        for got, stats in zip(two_shards.execute_batch(requests), want):
            got = self.counted(got)
            assert got["shard_fanouts"] == 2.0
            for name in (
                "distance_evaluations", "bucket_distance_evaluations",
                "bucket_object_accesses", "bucket_upper_bound_evaluations",
                "candidates", "reverse_candidates",
            ):
                assert got[name] == stats[name], name
        # No write since: the k-th MaxDist table is read, not rebuilt, so
        # the filter pays only its Q.n thresholds.
        verification.clear()
        again = [self.counted(r) for r in single.execute_batch(requests)]
        (traversal,) = verification
        assert [self.counted(r) for r in one_shard.execute_batch(requests)] == again
        for stats in again:
            assert stats["bucket_lower_bound_evaluations"] == 2 * 36 + traversal

    def test_reverse_reads_the_sweeps_profile_memo(self):
        """A reverse bucket after a sweep of the same query instance is served
        from the sweep's distance profiles on both engines."""
        objects = generate_synthetic_dataset(
            SyntheticDatasetConfig(n_objects=80, points_per_object=12),
            rng=np.random.default_rng(3),
        )
        query = generate_query_object(
            np.random.default_rng(3), kind="synthetic", points_per_object=12
        )
        answers = []
        for engine in (
            FuzzyDatabase.build(list(objects)),
            ShardedDatabase.build(list(objects), n_shards=1),
        ):
            try:
                engine.execute(SweepRequest(query, k=3, alpha_range=(0.3, 0.7)))
                answers.append(engine.execute(ReverseRequest(query, k=3, alpha=0.5)))
            finally:
                engine.close()
        single, one_shard = answers
        assert one_shard.object_ids == single.object_ids
        assert self.counted(one_shard) == self.counted(single)

    def test_sweep(self, engines):
        """One sweep over a partition set: a set of one pays exactly what a
        single tree pays (no probes or merge of a lone answer), more parts
        make the same sub-queries and refinement steps."""
        single, one_shard, two_shards = engines
        # A query instance no other test used: the profile memo starts cold
        # on every engine.
        query = generate_query_object(
            np.random.default_rng(17), kind="synthetic", space_size=6.0,
            points_per_object=24,
        )
        for method in ("basic", "rss", "rss_icr"):
            request = SweepRequest(
                query, k=self.K, alpha_range=(0.3, 0.8), method=method
            )
            want = single.execute(request)
            got = one_shard.execute(request)
            assert got.assignments == want.assignments, method
            assert self.counted(got) == self.counted(want), method
            spread = two_shards.execute(request)
            assert spread.assignments == want.assignments, method
            for name in ("aknn_calls", "range_calls", "refinement_steps"):
                assert getattr(spread.stats, name) == getattr(want.stats, name), (
                    method, name,
                )

    def test_range(self, engines, queries):
        """One bucket of mixed radii: one descent and one probe pass per part."""
        single, one_shard, two_shards = engines
        requests = [
            RangeRequest(query, alpha=self.ALPHA, radius=radius)
            for query, radius in zip(queries, (2.0, 0.5, 3.0, 1.0))
        ]
        want = single.execute_batch(requests)
        assert all(result.matches for result in want[::2])
        got = one_shard.execute_batch(requests)
        assert [r.matches for r in got] == [r.matches for r in want]
        assert [self.counted(r) for r in got] == [self.counted(r) for r in want]
        spread = two_shards.execute_batch(requests)
        assert [r.matches for r in spread] == [r.matches for r in want]
        # whether an object is probed depends on its own bound, not the tree
        for got_one, want_one in zip(spread, want):
            for name in ("object_accesses", "distance_evaluations", "range_calls"):
                assert getattr(got_one.stats, name) == getattr(want_one.stats, name), name
            for name in ("bucket_object_accesses", "bucket_distance_evaluations"):
                assert got_one.stats.extra[name] == want_one.stats.extra[name], name
            assert got_one.stats.extra["shard_fanouts"] == 2.0


class TestOneThreadPerQuery:
    """A query runs on the thread that asked for it: the only thread the
    library starts is the service's flusher."""

    @staticmethod
    def mixed_batch(queries):
        return [
            AknnRequest(queries[0], k=4, alpha=0.5),
            AknnRequest(queries[1], k=4, alpha=0.5),
            RangeRequest(queries[2], alpha=0.5, radius=2.5),
            SweepRequest(queries[3], k=3, alpha_range=(0.4, 0.6)),
            ReverseRequest(queries[0], k=3, alpha=0.5),
        ]

    @pytest.mark.parametrize("n_shards", (2, 4))
    def test_execute_batch_starts_no_thread(self, objects, config, queries, n_shards):
        sharded = build_sharded(objects, config, n_shards, "hash")
        before = set(threading.enumerate())
        try:
            results = sharded.execute_batch(self.mixed_batch(queries))
            assert all(result.coverage.complete for result in results)
            assert set(threading.enumerate()) <= before
        finally:
            sharded.close()

    def test_service_round_trip_adds_only_the_flusher(self, objects, config, queries):
        sharded = build_sharded(objects, config, 4, "hash")
        before = set(threading.enumerate())
        try:
            with QueryService(sharded, window_ms=1.0) as service:
                futures = [
                    service.submit_request(request)
                    for request in self.mixed_batch(queries)
                ]
                for future in futures:
                    assert future.result(timeout=30.0).coverage.complete
                gained = [t.name for t in set(threading.enumerate()) - before]
            assert gained == ["query-service-flusher"]
        finally:
            sharded.close()
