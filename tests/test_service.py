"""Tests for the coalescing query service.

Covers the coalescer's grouping and flush triggers, admission control,
latency telemetry, live updates through the service, and correctness under
concurrent client submissions.
"""

import threading
import time

import numpy as np
import pytest

from repro import reference as oracle
from repro.config import RuntimeConfig
from repro.core.database import FuzzyDatabase
from repro.core.requests import AknnRequest, RangeRequest, ReverseRequest
from repro.datasets.builder import build_dataset
from repro.datasets.queries import generate_query_object
from repro.exceptions import ServiceOverloadedError, ServiceStoppedError
from repro.service import QueryService, ShardedDatabase

from tests.conftest import make_fuzzy_object


@pytest.fixture(scope="module")
def objects():
    return build_dataset(
        kind="synthetic", n_objects=70, points_per_object=20, seed=23, space_size=8.0
    )


@pytest.fixture(scope="module")
def reference(objects):
    database = FuzzyDatabase.build(
        list(objects), config=RuntimeConfig(rtree_max_entries=8)
    )
    yield database
    database.close()


@pytest.fixture
def sharded(objects):
    database = ShardedDatabase.build(
        list(objects),
        n_shards=2,
        placement="hash",
        config=RuntimeConfig(rtree_max_entries=8, cache_capacity=16),
    )
    yield database
    database.close()


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(808)
    return [
        generate_query_object(rng, kind="synthetic", space_size=8.0, points_per_object=20)
        for _ in range(8)
    ]


class TestCoalescing:
    def test_results_match_direct_queries(self, sharded, reference, queries):
        with QueryService(sharded, window_ms=20.0, max_batch=32) as service:
            futures = [
                service.submit_request(AknnRequest(q, k=5, alpha=0.5))
                for q in queries
            ]
            for query, future in zip(queries, futures):
                result = future.result(timeout=30)
                want = reference.execute(AknnRequest(query, k=5, alpha=0.5))
                assert set(result.object_ids) == set(want.object_ids)

    def test_compatible_requests_share_a_batch(self, sharded, queries):
        with QueryService(sharded, window_ms=200.0, max_batch=len(queries)) as service:
            futures = [
                service.submit_request(AknnRequest(q, k=4, alpha=0.5))
                for q in queries
            ]
            for future in futures:
                future.result(timeout=30)
            stats = service.stats()
            # The size trigger fires once the bucket reaches max_batch.
            assert stats.batches_flushed == 1
            assert stats.max_batch_size == len(queries)

    def test_distinct_keys_use_distinct_batches(self, sharded, queries):
        with QueryService(sharded, window_ms=50.0, max_batch=32) as service:
            f1 = service.submit_request(AknnRequest(queries[0], k=3, alpha=0.5))
            f2 = service.submit_request(AknnRequest(queries[1], k=5, alpha=0.5))
            f3 = service.submit_request(AknnRequest(queries[2], k=3, alpha=0.7))
            r1, r2, r3 = (f.result(timeout=30) for f in (f1, f2, f3))
            assert r1.k == 3 and r2.k == 5 and r3.k == 3
            assert r3.alpha == 0.7
            assert service.stats().batches_flushed == 3

    def test_deadline_flush_without_companions(self, sharded, queries):
        with QueryService(sharded, window_ms=5.0, max_batch=64) as service:
            result = service.submit_request(
                AknnRequest(queries[0], k=3, alpha=0.5)
            ).result(timeout=30)
            assert len(result) == 3

    def test_sync_wrapper(self, sharded, reference, queries):
        with QueryService(sharded, window_ms=1.0) as service:
            result = service.execute(
                AknnRequest(queries[0], k=4, alpha=0.5), timeout=30
            )
            want = reference.execute(AknnRequest(queries[0], k=4, alpha=0.5))
            assert set(result.object_ids) == set(want.object_ids)

    def test_works_over_plain_database(self, reference, queries):
        # The coalescer only needs aknn_batch, so an unsharded database works.
        with QueryService(reference, window_ms=5.0) as service:
            result = service.execute(
                AknnRequest(queries[0], k=4, alpha=0.5), timeout=30
            )
            want = reference.execute(AknnRequest(queries[0], k=4, alpha=0.5))
            assert set(result.object_ids) == set(want.object_ids)

    def test_reverse_submissions_coalesce_into_one_bucket(
        self, sharded, objects, queries
    ):
        """Reverse AKNN requests sharing (k, alpha) flush as one bucket and
        return exactly the brute-force per-query answers."""
        with QueryService(
            sharded, window_ms=200.0, max_batch=len(queries)
        ) as service:
            futures = [
                service.submit_request(ReverseRequest(q, k=3, alpha=0.5))
                for q in queries
            ]
            for query, future in zip(queries, futures):
                result = future.result(timeout=30)
                want = oracle.reverse(objects, query, 3, 0.5)
                assert result.object_ids == [object_id for object_id, _ in want]
            stats = service.stats()
            assert stats.batches_flushed == 1
            assert stats.max_batch_size == len(queries)

    def test_reverse_and_aknn_use_distinct_buckets(self, sharded, queries):
        with QueryService(sharded, window_ms=50.0, max_batch=32) as service:
            f_aknn = service.submit_request(AknnRequest(queries[0], k=3, alpha=0.5))
            f_reverse = service.submit_request(
                ReverseRequest(queries[1], k=3, alpha=0.5)
            )
            aknn_result = f_aknn.result(timeout=30)
            reverse_result = f_reverse.result(timeout=30)
            assert aknn_result.k == 3 and reverse_result.k == 3
            assert reverse_result.method == "batch"
            assert service.stats().batches_flushed == 2

    def test_reverse_sync_wrapper(self, sharded, reference, queries):
        with QueryService(sharded, window_ms=1.0) as service:
            result = service.execute(
                ReverseRequest(queries[0], k=2, alpha=0.5), timeout=30
            )
            want = reference.execute(ReverseRequest(queries[0], k=2, alpha=0.5))
            assert result.object_ids == want.object_ids


@pytest.fixture
def held_flush(monkeypatch):
    """Hold the flusher inside its first flush.

    Yields ``(entered, release, sizes)``: ``entered`` is set once the first
    ``_execute`` call is waiting, ``release`` lets it go, and ``sizes``
    records every flushed bucket's size.
    """
    entered, release = threading.Event(), threading.Event()
    sizes = []
    real_execute = QueryService._execute

    def held_execute(self, bucket):
        sizes.append(len(bucket.requests))
        if len(sizes) == 1:
            entered.set()
            release.wait(timeout=30)
        return real_execute(self, bucket)

    monkeypatch.setattr(QueryService, "_execute", held_execute)
    yield entered, release, sizes
    release.set()


def _wait_until(condition, timeout=10.0) -> bool:
    stop_at = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > stop_at:
            return False
        time.sleep(0.001)
    return True


class TestFlushRule:
    """Blocked callers flush as soon as the flusher is free; submit_request
    streams flush on size, window or deadline only."""

    def test_blocked_caller_never_waits_out_the_window(self, sharded, queries):
        with QueryService(sharded, window_ms=600_000.0) as service:
            request = AknnRequest(queries[0], k=3, alpha=0.5)
            assert len(service.execute(request, timeout=10)) == 3
            before = service.stats().batches_flushed
            results = service.execute_batch(
                [
                    AknnRequest(queries[1], k=3, alpha=0.5),
                    AknnRequest(queries[2], k=3, alpha=0.5),
                    RangeRequest(queries[3], alpha=0.5, radius=2.0),
                ],
                timeout=10,
            )
            assert len(results) == 3
            # One batch per bucket key: the two AKNN requests flush together.
            assert service.stats().batches_flushed == before + 2

    def test_blocked_callers_batch_while_the_flusher_is_busy(
        self, sharded, queries, held_flush
    ):
        entered, release, sizes = held_flush

        def client(query, k):
            service.execute(AknnRequest(query, k=k, alpha=0.5), timeout=30)

        service = QueryService(sharded, window_ms=600_000.0, max_batch=8).start()
        threads = [threading.Thread(target=client, args=(queries[0], 2))]
        try:
            threads[0].start()
            assert entered.wait(timeout=10)
            threads += [
                threading.Thread(target=client, args=(query, 3))
                for query in queries[1:4]
            ]
            for thread in threads[1:]:
                thread.start()
            assert _wait_until(lambda: service.pending == 3)
        finally:
            release.set()
            for thread in threads:
                thread.join(timeout=30)
            service.stop(drain=True)
        # The three callers that arrived during the held flush share the next.
        assert sizes == [1, 3]

    def test_streams_keep_the_window(self, sharded, queries):
        with QueryService(sharded, window_ms=600_000.0, max_batch=8) as service:
            for wave in range(3):
                futures = [
                    service.submit_request(AknnRequest(query, k=3, alpha=0.5))
                    for query in queries
                ]
                for future in futures:
                    future.result(timeout=30)
                stats = service.stats()
                assert stats.batches_flushed == wave + 1
                assert stats.max_batch_size == 8
            lone = service.submit_request(AknnRequest(queries[0], k=3, alpha=0.5))
            time.sleep(0.05)
            assert not lone.done()
            service.stop(drain=True)
            assert len(lone.result(timeout=0)) == 3

    def test_timed_out_execute_is_withdrawn(self, sharded, queries, held_flush):
        entered, release, _ = held_flush
        service = QueryService(sharded, window_ms=10_000.0, max_batch=1).start()
        try:
            blocker = service.submit_request(AknnRequest(queries[0], k=3, alpha=0.5))
            assert entered.wait(timeout=10)
            with pytest.raises(TimeoutError):
                service.execute(AknnRequest(queries[1], k=3, alpha=0.5), timeout=0.05)
            assert service.pending == 0
            assert service.stats().requests_shed == 1
            release.set()
            assert len(blocker.result(timeout=30)) == 3
        finally:
            release.set()
            service.stop(drain=True)
        assert service.stats().requests_completed == 1


class TestAdmissionControl:
    def test_overload_sheds_requests(self, sharded, queries):
        service = QueryService(
            sharded, window_ms=10_000.0, max_batch=1024, queue_depth=3
        )
        service.start()
        try:
            futures = [
                service.submit_request(AknnRequest(queries[i], k=3, alpha=0.5))
                for i in range(3)
            ]
            with pytest.raises(ServiceOverloadedError):
                service.submit_request(AknnRequest(queries[3], k=3, alpha=0.5))
            stats = service.stats()
            assert stats.requests_shed == 1
            assert stats.counters.get("shed_requests") == 1
        finally:
            service.stop(drain=True)
        for future in futures:
            assert future.result(timeout=30) is not None

    def test_submit_after_stop_raises(self, sharded, queries):
        service = QueryService(sharded)
        service.start()
        service.stop()
        with pytest.raises(ServiceStoppedError):
            service.submit_request(AknnRequest(queries[0], k=3, alpha=0.5))

    def test_stop_without_drain_fails_pending(self, sharded, queries):
        service = QueryService(sharded, window_ms=10_000.0, max_batch=1024)
        service.start()
        future = service.submit_request(AknnRequest(queries[0], k=3, alpha=0.5))
        service.stop(drain=False)
        with pytest.raises(ServiceStoppedError):
            future.result(timeout=5)


class TestTelemetry:
    def test_latency_percentiles_populated(self, sharded, queries):
        with QueryService(sharded, window_ms=2.0) as service:
            for query in queries:
                service.execute(AknnRequest(query, k=3, alpha=0.5), timeout=30)
            stats = service.stats()
        assert stats.requests_completed == len(queries)
        assert stats.mean_latency_ms > 0.0
        assert stats.p99_latency_ms >= stats.p50_latency_ms > 0.0
        assert stats.coalesced_queries == len(queries)
        payload = stats.as_dict()
        assert payload["coalesced_batches"] == stats.batches_flushed


class TestLiveUpdatesThroughService:
    def test_insert_and_delete_affect_results(self, sharded, queries, rng):
        with QueryService(sharded, window_ms=2.0) as service:
            baseline = service.execute(
                AknnRequest(queries[0], k=3, alpha=0.5), timeout=30
            )
            # Drop a tight object on the query's centre: it must enter the
            # top-3 (ties at distance zero may rank it below an overlapping
            # incumbent, so membership is asserted, not rank).
            center = queries[0].support_mbr().center
            planted = make_fuzzy_object(rng, center=center, spread=0.01)
            planted_id = service.insert(planted)
            found = service.execute(AknnRequest(queries[0], k=3, alpha=0.5), timeout=30)
            assert planted_id in found.object_ids
            service.delete(planted_id)
            after = service.execute(AknnRequest(queries[0], k=3, alpha=0.5), timeout=30)
            assert planted_id not in after.object_ids
            assert set(after.object_ids) == set(baseline.object_ids)
            stats = service.stats()
            assert stats.counters.get("live_inserts") == 1
            assert stats.counters.get("live_deletes") == 1


class TestConcurrentClients:
    def test_many_threads_submit_correct_results(self, sharded, reference, queries):
        expected = {
            id(query): set(
                reference.execute(AknnRequest(query, k=5, alpha=0.5)).object_ids
            )
            for query in queries
        }
        errors = []

        def client(index: int, service: QueryService) -> None:
            for i in range(6):
                query = queries[(index + i) % len(queries)]
                try:
                    result = service.execute(
                        AknnRequest(query, k=5, alpha=0.5), timeout=60
                    )
                    if set(result.object_ids) != expected[id(query)]:
                        errors.append((index, i, result.object_ids))
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append((index, i, repr(exc)))

        with QueryService(sharded, window_ms=2.0, max_batch=8) as service:
            threads = [
                threading.Thread(target=client, args=(index, service))
                for index in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats()
        assert errors == []
        assert stats.requests_completed == 36
        assert stats.mean_batch_size >= 1.0

    def test_queries_concurrent_with_mutations(self, sharded, queries, rng):
        """Live churn while clients query: every future resolves correctly."""
        errors = []
        stop_flag = threading.Event()

        def mutator(service: QueryService) -> None:
            while not stop_flag.is_set():
                obj = make_fuzzy_object(rng, center=rng.random(2) * 8.0)
                object_id = service.insert(obj)
                time.sleep(0.001)
                service.delete(object_id)

        def client(service: QueryService) -> None:
            for i in range(10):
                try:
                    result = service.execute(
                        AknnRequest(queries[i % len(queries)], k=4, alpha=0.5),
                        timeout=60,
                    )
                    if len(result) != 4:
                        errors.append(("short", len(result)))
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))

        with QueryService(sharded, window_ms=2.0) as service:
            mutator_thread = threading.Thread(target=mutator, args=(service,))
            clients = [
                threading.Thread(target=client, args=(service,)) for _ in range(3)
            ]
            mutator_thread.start()
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join()
            stop_flag.set()
            mutator_thread.join()
        assert errors == []
        sharded.validate()
