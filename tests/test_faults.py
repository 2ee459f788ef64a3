"""Chaos suite for the fault-tolerant serving layer.

Covers the failure-semantics contract end to end:

* the policy primitives (Deadline, RetryPolicy, CircuitBreaker);
* FaultSpec / FaultPlan parsing and trigger accounting;
* partial-result parity — under an injected permanent single-shard failure,
  every query kind returns exactly what a fresh database built from only the
  surviving shards' objects would return, with coverage naming the dead shard;
* the acceptance scenario — a 64-request mixed service batch over a dead
  shard yields 64 partial results, zero hung futures, an open breaker, and
  instant shedding afterwards; ``require_full`` flips the same workload to
  fail-closed with a retry-after hint;
* deadline propagation (expired before execution, expired in queue, expired
  mid-execution under a delay fault);
* the ``stop()`` audit — no submitted future may ever hang;
* delete-vs-query churn (races report ObjectNotFoundError, never KeyError).
"""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.core.database import FuzzyDatabase
from repro.core.requests import (
    AknnRequest,
    RangeRequest,
    ReverseRequest,
    SweepRequest,
)
from repro.datasets.builder import build_dataset
from repro.datasets.queries import generate_query_object
from repro.exceptions import (
    DeadlineExceededError,
    FaultInjectedError,
    InvalidQueryError,
    ObjectNotFoundError,
    ServiceStoppedError,
    ShardUnavailableError,
)
from repro.metrics.counters import MetricsCollector
from repro.service import (
    BreakerState,
    CircuitBreaker,
    Deadline,
    FaultPlan,
    FaultSpec,
    QueryService,
    RetryPolicy,
    ShardedDatabase,
)
from repro.service import query_service as query_service_module
from tests.conftest import assert_reverse_answer, assert_same_assignments, stored_objects

DEAD = 1  # the shard every permanent-failure scenario kills


@pytest.fixture(scope="module")
def objects():
    return build_dataset(
        kind="synthetic", n_objects=48, points_per_object=12, seed=77, space_size=8.0
    )


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(505)
    return [
        generate_query_object(rng, kind="synthetic", space_size=8.0, points_per_object=12)
        for _ in range(3)
    ]


def chaos_config(**overrides):
    """A config with fast retries so injected failures resolve in microseconds."""
    base = dict(
        rtree_max_entries=8,
        cache_capacity=32,
        shard_retry_attempts=2,
        shard_retry_base_ms=0.1,
        shard_retry_max_ms=0.5,
        breaker_failure_threshold=1000,  # parity tests exercise retry exhaustion
        breaker_reset_timeout_ms=60_000.0,
    )
    base.update(overrides)
    return RuntimeConfig(**base)


def build_dead_shard_pair(objects, config=None, plan="shard=%d,kind=raise" % DEAD):
    """A 3-shard database with one permanently dead shard, plus the reference
    database holding only the surviving shards' objects."""
    config = config or chaos_config()
    sharded = ShardedDatabase.build(
        list(objects), n_shards=3, placement="hash", config=config
    )
    survivors = [
        sharded.get_object(object_id)
        for shard in sharded._shards
        if shard.index != DEAD
        for object_id in shard.db.object_ids()
    ]
    reference = FuzzyDatabase.build(survivors, config=config)
    sharded.fault_plan = FaultPlan.parse(plan)
    return sharded, reference


def assert_partial_coverage(result):
    coverage = result.coverage
    assert coverage is not None
    assert not coverage.complete
    assert DEAD in coverage.failed
    assert DEAD not in coverage.answered
    assert coverage.total_shards == 3
    assert DEAD in dict(coverage.reasons)


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def now(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


# ---------------------------------------------------------------------------
# Policy primitives
# ---------------------------------------------------------------------------
class TestDeadline:
    def test_after_ms_and_remaining(self):
        deadline = Deadline.after_ms(50.0)
        assert not deadline.expired()
        assert 0.0 < deadline.remaining_ms() <= 50.0
        deadline.check("unit")  # does not raise while live

    def test_expired_check_raises(self):
        deadline = Deadline(time.monotonic() - 0.01)
        assert deadline.expired()
        assert deadline.remaining_ms() < 0.0
        with pytest.raises(DeadlineExceededError, match="unit deadline exceeded"):
            deadline.check("unit")


class TestRetryPolicy:
    def test_exponential_growth_with_cap(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_ms=10, max_delay_ms=35, multiplier=2, jitter=0.0
        )
        delays = [policy.delay_seconds(i) * 1000.0 for i in range(4)]
        assert delays == [10.0, 20.0, 35.0, 35.0]

    def test_jitter_scales_within_bounds(self):
        policy = RetryPolicy(base_delay_ms=100, max_delay_ms=100, jitter=0.5)
        assert policy.delay_seconds(0, rand=lambda: 0.0) * 1000.0 == 100.0
        assert policy.delay_seconds(0, rand=lambda: 1.0) * 1000.0 == 50.0

    def test_from_config_and_validation(self):
        policy = RetryPolicy.from_config(chaos_config(shard_retry_attempts=4))
        assert policy.max_attempts == 4
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, reset_timeout_ms=100, clock=clock.now
        )
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.state is BreakerState.CLOSED
        assert breaker.record_failure() is True  # this one opened it
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.shedding()
        assert 0.0 < breaker.retry_after_ms() <= 100.0

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() is False
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_ms=100, half_open_probes=1,
            clock=clock.now,
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(0.2)  # cool-off elapsed
        assert not breaker.shedding()
        assert breaker.allow()  # the probe slot
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow()  # only one probe admitted
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_released_probe_slot_can_be_taken_again(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_ms=100, clock=clock.now
        )
        breaker.release_probe()  # closed: nothing to give back
        assert breaker.allow()
        breaker.record_failure()
        clock.advance(0.2)
        assert breaker.allow() and not breaker.allow()
        breaker.release_probe()  # the admitted call was never issued
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow() and not breaker.allow()
        breaker.record_success()
        breaker.release_probe()  # an outcome was recorded: no-op
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_failure_reopens_for_full_cooloff(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_ms=100, clock=clock.now
        )
        breaker.record_failure()
        clock.advance(0.2)
        assert breaker.allow()
        assert breaker.record_failure() is True  # re-opened
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.retry_after_ms() == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            "shard=1,kind=raise; shard=0,op=aknn_batch,kind=delay,delay_ms=5,after=2,count=3"
        )
        assert len(plan.specs) == 2
        first, second = plan.specs
        assert (first.shard, first.kind, first.count) == (1, "raise", None)
        assert (second.op, second.after, second.count, second.delay_ms) == (
            "aknn_batch", 2, 3, 5.0,
        )

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidQueryError):
            FaultPlan.parse("")
        with pytest.raises(InvalidQueryError):
            FaultPlan.parse("shard1kindraise")
        with pytest.raises(InvalidQueryError):
            FaultPlan.parse("bogus_key=1")
        with pytest.raises(InvalidQueryError):
            FaultSpec(kind="explode")
        with pytest.raises(InvalidQueryError):
            FaultSpec(op="no_such_op")
        with pytest.raises(InvalidQueryError):
            FaultSpec(count=0)

    def test_after_and_count_window(self):
        plan = FaultPlan.parse("shard=0,kind=raise,after=1,count=2")
        plan.invoke(0, "aknn")  # call 0: skipped by `after`
        with pytest.raises(FaultInjectedError):
            plan.invoke(0, "aknn")  # call 1: armed
        with pytest.raises(FaultInjectedError):
            plan.invoke(0, "aknn")  # call 2: armed
        plan.invoke(0, "aknn")  # call 3: rule exhausted
        plan.invoke(1, "aknn")  # different shard never matched
        assert plan.total_fired() == 2

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(
            [FaultSpec(kind="delay", delay_ms=0.0, shard=0), FaultSpec(kind="raise")]
        )
        plan.invoke(0, "range")  # delay rule absorbs the call
        with pytest.raises(FaultInjectedError):
            plan.invoke(1, "range")  # falls through to the raise rule
        assert plan.fired == [1, 1]

    def test_random_plans_are_transient_and_seeded(self):
        rng = np.random.default_rng(9)
        plan = FaultPlan.random(rng, n_shards=3, n_rules=5)
        assert len(plan.specs) == 5
        for spec in plan.specs:
            assert spec.count is not None  # transient: retries eventually win
            assert spec.kind in ("raise", "delay")
            assert 0 <= spec.shard < 3
        again = FaultPlan.random(np.random.default_rng(9), n_shards=3, n_rules=5)
        assert [s.shard for s in again.specs] == [s.shard for s in plan.specs]


# ---------------------------------------------------------------------------
# Partial-result parity under a dead shard
# ---------------------------------------------------------------------------
class TestPartialParity:
    """Surviving shards' answers must equal a fresh query against a database
    holding only the surviving shards' objects."""

    @pytest.fixture(scope="class")
    def dead_pair(self, objects):
        sharded, reference = build_dead_shard_pair(objects)
        yield sharded, reference
        sharded.close()
        reference.close()

    def test_aknn_single(self, dead_pair, queries):
        sharded, reference = dead_pair
        for query in queries:
            got = sharded.execute(AknnRequest(query, k=5, alpha=0.5))
            want = reference.execute(AknnRequest(query, k=5, alpha=0.5))
            assert_partial_coverage(got)
            assert set(got.object_ids) == set(want.object_ids)

    def test_aknn_batch(self, dead_pair, queries):
        sharded, reference = dead_pair
        requests = [AknnRequest(q, k=4, alpha=0.6) for q in queries]
        got = sharded.execute_batch(requests)
        want = reference.execute_batch(requests)
        for got_one, want_one in zip(got, want):
            assert_partial_coverage(got_one)
            assert set(got_one.object_ids) == set(want_one.object_ids)

    def test_range(self, dead_pair, queries):
        sharded, reference = dead_pair
        request = RangeRequest(queries[0], alpha=0.5, radius=3.0)
        got = sharded.execute(request)
        want = reference.execute(request)
        assert_partial_coverage(got)
        assert sorted(got.matches) == pytest.approx(sorted(want.matches))

    def test_range_bucket(self, dead_pair, queries):
        """A bucket of mixed radii (and a duplicate) fans out once; every
        member is partial and equals the survivors-only database's answer."""
        sharded, reference = dead_pair
        requests = [
            RangeRequest(query, alpha=0.5, radius=radius)
            for query, radius in zip(queries, (1.0, 2.5, 4.0))
        ] + [RangeRequest(queries[0], alpha=0.5, radius=4.0)]
        got = sharded.execute_batch(requests)
        want = reference.execute_batch(requests)
        for got_one, want_one in zip(got, want):
            assert_partial_coverage(got_one)
            assert got_one.matches == want_one.matches
        assert any(result.matches for result in got)

    def test_a_range_bucket_that_loses_a_shard_mid_pass_reruns_on_the_survivors(
        self, objects, queries
    ):
        """Range meets the shards like every other family: a shard lost inside
        the pass (shard 0 has answered) makes the whole pass rerun on the
        survivors.  The answer is the survivors-only database's, the coverage
        names the lost shard, and the engine counts the rerun's fan-outs."""
        sharded, reference = build_dead_shard_pair(
            objects, plan=f"shard={DEAD},op=range,kind=raise"
        )
        try:
            requests = [
                RangeRequest(query, alpha=0.5, radius=radius)
                for query, radius in zip(queries, (1.0, 2.5, 4.0))
            ]
            before = sharded.metrics.get(MetricsCollector.SHARD_FANOUTS)
            got = sharded.execute_batch(requests)
            # the first pass meets all three shards, the rerun the two survivors
            assert sharded.metrics.get(MetricsCollector.SHARD_FANOUTS) - before == 3 + 2
            for got_one, want_one in zip(got, reference.execute_batch(requests)):
                assert_partial_coverage(got_one)
                assert got_one.coverage.answered == (0, 2)
                assert "FaultInjectedError" in dict(got_one.coverage.reasons)[DEAD]
                assert got_one.matches == want_one.matches
            assert any(result.matches for result in got)
        finally:
            sharded.close()
            reference.close()

    def test_sweep(self, dead_pair, queries):
        sharded, reference = dead_pair
        request = SweepRequest(queries[0], k=3, alpha_range=(0.45, 0.6))
        got = sharded.execute(request)
        want = reference.execute(request)
        assert_partial_coverage(got)
        assert_same_assignments(got.assignments, want.assignments)

    def test_reverse(self, dead_pair, queries):
        sharded, reference = dead_pair
        rng = np.random.default_rng(3)
        request = ReverseRequest(queries[1], k=3, alpha=0.5)
        got = sharded.execute(request, rng=rng)
        want = reference.execute(request, rng=np.random.default_rng(3))
        assert_partial_coverage(got)
        assert set(got.object_ids) == set(want.object_ids)
        survivors = stored_objects(reference)
        for answer in (got, want):
            assert_reverse_answer(answer, survivors, request.query, 3, 0.5)

    def test_a_store_that_cannot_be_read_degrades_every_coupled_family(
        self, objects, queries
    ):
        """No fault plan: the shard's store itself fails, also between fan-outs.

        The reverse pass fetches its candidates outside any fan-out; that
        read must blame its shard like the AKNN bootstrap's and the sweep's.
        """
        config = chaos_config(shard_retry_attempts=1)
        sharded = ShardedDatabase.build(
            list(objects), n_shards=2, placement="hash", config=config
        )
        reference = FuzzyDatabase.build(
            [
                sharded.get_object(object_id)
                for object_id in sharded._shards[0].db.object_ids()
            ],
            config=config,
        )

        def disk_gone(object_id):
            raise OSError("disk gone")

        sharded._shards[1].db.store.get = disk_gone
        try:
            aknn = [AknnRequest(q, k=4, alpha=0.6) for q in queries[:2]]
            sweep = SweepRequest(queries[0], k=3, alpha_range=(0.45, 0.6))
            reverse = ReverseRequest(queries[1], k=2, alpha=0.5)
            got = sharded.execute_batch(aknn + [sweep, reverse])
            want = reference.execute_batch(aknn + [sweep, reverse])
            for result in got:
                assert result.coverage.failed == (1,)
                assert result.coverage.answered == (0,)
            for got_one, want_one in zip(got[:2], want[:2]):
                assert got_one.object_ids == want_one.object_ids
            assert_same_assignments(got[2].assignments, want[2].assignments)
            assert got[3].object_ids == want[3].object_ids
            assert got[3].distances == pytest.approx(want[3].distances)
            assert "disk gone" in dict(got[3].coverage.reasons)[1]
            for request in aknn + [sweep, reverse]:
                with pytest.raises(ShardUnavailableError):
                    sharded.execute(dataclasses.replace(request, require_full=True))
        finally:
            sharded.close()
            reference.close()

    def test_retries_recover_transient_faults_completely(self, objects, queries):
        """A fault bounded below the retry budget never surfaces at all."""
        config = chaos_config(shard_retry_attempts=3)
        sharded = ShardedDatabase.build(
            list(objects), n_shards=3, placement="hash", config=config
        )
        try:
            sharded.fault_plan = FaultPlan.parse("shard=0,kind=raise,count=2")
            result = sharded.execute(AknnRequest(queries[0], k=5, alpha=0.5))
            assert result.coverage is not None and result.coverage.complete
            assert sharded.fault_plan.total_fired() == 2
            assert sharded.metrics.as_dict()[MetricsCollector.RETRIES] >= 2
        finally:
            sharded.close()


# ---------------------------------------------------------------------------
# The acceptance scenario: dead shard + mixed service batch
# ---------------------------------------------------------------------------
class TestFailureIsolation:
    @pytest.fixture(scope="class")
    def dead_service_pair(self, objects):
        config = chaos_config(
            shard_retry_attempts=2, breaker_failure_threshold=2,
        )
        sharded, reference = build_dead_shard_pair(objects, config=config)
        yield sharded, reference
        sharded.close()
        reference.close()

    def mixed_requests(self, queries, n=64):
        requests = []
        for i in range(n):
            query = queries[i % len(queries)]
            kind = i % 16
            if kind < 8:
                requests.append(AknnRequest(query, k=2 + i % 3, alpha=0.5))
            elif kind < 12:
                requests.append(RangeRequest(query, alpha=0.5, radius=2.0 + i % 2))
            elif kind < 15:
                requests.append(ReverseRequest(query, k=2, alpha=0.5))
            else:
                requests.append(SweepRequest(query, k=2, alpha_range=(0.45, 0.55)))
        return requests

    def test_mixed_batch_returns_64_partial_results(
        self, dead_service_pair, queries
    ):
        sharded, _ = dead_service_pair
        requests = self.mixed_requests(queries, n=64)
        with QueryService(sharded, window_ms=1.0, max_batch=32) as service:
            futures = [service.submit_request(r) for r in requests]
            results = [f.result(timeout=60.0) for f in futures]  # zero hung futures
        assert len(results) == 64
        for result in results:
            assert_partial_coverage(result)
        # The permanent failure tripped the breaker and was counted.
        assert sharded._shards[DEAD].breaker.state is BreakerState.OPEN
        counters = sharded.metrics.as_dict()
        assert counters[MetricsCollector.BREAKER_OPEN] >= 1
        assert counters[MetricsCollector.RETRIES] >= 1
        assert counters[MetricsCollector.PARTIAL_RESULTS] >= 64

    def test_open_breaker_sheds_without_touching_the_shard(
        self, dead_service_pair, queries
    ):
        sharded, reference = dead_service_pair
        assert sharded._shards[DEAD].breaker.state is BreakerState.OPEN
        fired_before = sharded.fault_plan.total_fired()
        shed_before = sharded.metrics.as_dict().get(MetricsCollector.BREAKER_SHED, 0)
        got = sharded.execute(AknnRequest(queries[0], k=5, alpha=0.5))
        # Shed at admission: the dead shard was never invoked, no retry burned.
        assert sharded.fault_plan.total_fired() == fired_before
        assert sharded.metrics.as_dict()[MetricsCollector.BREAKER_SHED] > shed_before
        assert dict(got.coverage.reasons)[DEAD] == "circuit breaker open"
        want = reference.execute(AknnRequest(queries[0], k=5, alpha=0.5))
        assert set(got.object_ids) == set(want.object_ids)

    def test_require_full_fails_closed_with_retry_after(
        self, dead_service_pair, queries
    ):
        sharded, _ = dead_service_pair
        with pytest.raises(ShardUnavailableError) as excinfo:
            sharded.execute(AknnRequest(queries[0], k=5, alpha=0.5, require_full=True))
        error = excinfo.value
        assert DEAD in error.shards
        assert error.retry_after_ms is not None and error.retry_after_ms > 0.0

    def test_require_full_through_the_service(self, dead_service_pair, queries):
        sharded, _ = dead_service_pair
        with QueryService(sharded, window_ms=1.0) as service:
            future = service.submit_request(
                RangeRequest(queries[0], alpha=0.5, radius=2.0, require_full=True)
            )
            with pytest.raises(ShardUnavailableError):
                future.result(timeout=30.0)

    def test_all_shards_dead_raises_even_when_partials_allowed(self, objects, queries):
        sharded = ShardedDatabase.build(
            list(objects), n_shards=2, placement="hash", config=chaos_config()
        )
        try:
            sharded.fault_plan = FaultPlan.parse("kind=raise")
            with pytest.raises(ShardUnavailableError) as excinfo:
                sharded.execute(AknnRequest(queries[0], k=3, alpha=0.5))
            assert excinfo.value.retry_after_ms is not None
        finally:
            sharded.close()


# ---------------------------------------------------------------------------
# Deadline propagation
# ---------------------------------------------------------------------------
class TestDeadlines:
    @pytest.fixture(scope="class")
    def sharded(self, objects):
        db = ShardedDatabase.build(
            list(objects), n_shards=2, placement="hash", config=chaos_config()
        )
        yield db
        db.close()

    def test_expired_before_execution(self, sharded, queries):
        with pytest.raises(DeadlineExceededError):
            sharded.execute(AknnRequest(queries[0], k=3, alpha=0.5, deadline_ms=1e-3))

    def test_deadline_ms_must_be_positive(self, queries):
        with pytest.raises(InvalidQueryError):
            AknnRequest(queries[0], k=3, alpha=0.5, deadline_ms=0.0)

    def test_delay_fault_blows_the_deadline(self, objects, queries):
        sharded = ShardedDatabase.build(
            list(objects), n_shards=2, placement="hash", config=chaos_config()
        )
        try:
            sharded.fault_plan = FaultPlan.parse("kind=delay,delay_ms=120")
            requests = [
                AknnRequest(q, k=3, alpha=0.5, deadline_ms=25.0) for q in queries[:2]
            ]
            with pytest.raises(DeadlineExceededError):
                sharded.execute_batch(requests)
            counters = sharded.metrics.as_dict()
            assert counters.get(MetricsCollector.DEADLINE_EXPIRED, 0) >= 0
        finally:
            sharded.close()

    def test_deadline_stops_the_fanout_at_the_shard_that_hit_it(
        self, objects, queries
    ):
        """A query runs on the thread that asked for it, one shard after the
        other: once shard 0's worker finds the bucket's deadline expired, the
        error propagates at once and shard 1 is never called."""
        sharded = ShardedDatabase.build(
            list(objects), n_shards=2, placement="hash", config=chaos_config()
        )
        try:
            plan = FaultPlan.parse(
                "shard=0,op=aknn_batch,kind=delay,delay_ms=120;"
                "shard=1,op=aknn_batch,kind=delay,delay_ms=0"
            )
            sharded.fault_plan = plan
            requests = [
                AknnRequest(q, k=3, alpha=0.5, deadline_ms=40.0) for q in queries[:2]
            ]
            with pytest.raises(DeadlineExceededError):
                sharded.execute_batch(requests)
            assert plan.fired == [1, 0]
        finally:
            sharded.close()

    def test_deadline_gives_back_the_probe_of_a_shard_it_never_reached(
        self, objects, queries
    ):
        """Shard 1 is half-open (its probe slot taken at admission) when shard
        0 blows the deadline, so shard 1's probe is never issued.  The slot
        must come back: the next query probes shard 1 and closes its breaker
        instead of answering from shard 0 forever."""
        sharded = ShardedDatabase.build(
            list(objects), n_shards=2, placement="hash",
            config=chaos_config(
                shard_retry_attempts=1,
                breaker_failure_threshold=1,
                breaker_reset_timeout_ms=50.0,
            ),
        )
        request = AknnRequest(queries[0], k=3, alpha=0.5)
        try:
            sharded.fault_plan = FaultPlan.parse("shard=1,kind=raise")
            assert sharded.execute(request).coverage.answered == (0,)
            breaker = sharded._shards[1].breaker
            assert breaker.state is BreakerState.OPEN
            time.sleep(0.08)  # cool-off elapsed: the next allow() is the probe

            sharded.fault_plan = FaultPlan.parse(
                "shard=0,op=aknn_batch,kind=delay,delay_ms=120"
            )
            with pytest.raises(DeadlineExceededError):
                sharded.execute_batch(
                    [
                        AknnRequest(q, k=3, alpha=0.5, deadline_ms=40.0)
                        for q in queries[:2]
                    ]
                )
            assert breaker.state is BreakerState.HALF_OPEN

            sharded.fault_plan = None
            assert sharded.execute(request).coverage.answered == (0, 1)
            assert breaker.state is BreakerState.CLOSED
        finally:
            sharded.close()

    def test_expired_in_queue_is_withdrawn(self, sharded, queries, monkeypatch):
        real_execute_plan = query_service_module.execute_plan

        def slow_execute_plan(engine, requests, **kwargs):
            time.sleep(0.15)  # pin the single flusher thread
            return real_execute_plan(engine, requests, **kwargs)

        monkeypatch.setattr(query_service_module, "execute_plan", slow_execute_plan)
        with QueryService(sharded, window_ms=1.0) as service:
            blocker = service.submit_request(AknnRequest(queries[0], k=3, alpha=0.5))
            time.sleep(0.02)  # let the flusher pick the blocker up
            doomed = service.submit_request(
                RangeRequest(queries[1], alpha=0.5, radius=2.0, deadline_ms=20.0)
            )
            blocker.result(timeout=30.0)
            with pytest.raises(DeadlineExceededError, match="waiting in queue"):
                doomed.result(timeout=30.0)
            counters = service.metrics.as_dict()
            assert counters[MetricsCollector.REQUESTS_WITHDRAWN_EXPIRED] >= 1
            assert counters[MetricsCollector.DEADLINE_EXPIRED] >= 1


# ---------------------------------------------------------------------------
# stop() audit: no future may hang forever
# ---------------------------------------------------------------------------
class TestStopAudit:
    @pytest.fixture(scope="class")
    def sharded(self, objects):
        db = ShardedDatabase.build(
            list(objects), n_shards=2, placement="hash", config=chaos_config()
        )
        yield db
        db.close()

    def test_stop_with_drain_resolves_every_future(self, sharded, queries):
        service = QueryService(sharded, window_ms=500.0).start()
        futures = [
            service.submit_request(AknnRequest(q, k=3, alpha=0.5)) for q in queries
        ]
        service.stop(drain=True)
        for future in futures:
            assert future.done()
            assert future.result(timeout=0).object_ids

    def test_stop_without_drain_fails_every_future(self, sharded, queries):
        service = QueryService(sharded, window_ms=500.0).start()
        futures = [
            service.submit_request(AknnRequest(q, k=3, alpha=0.5)) for q in queries
        ]
        service.stop(drain=False)
        for future in futures:
            assert future.done()
            with pytest.raises(ServiceStoppedError):
                future.result(timeout=0)

    def test_crashing_flush_fails_futures_instead_of_hanging(
        self, sharded, queries, monkeypatch
    ):
        monkeypatch.setattr(
            QueryService,
            "_execute",
            lambda self, bucket: (_ for _ in ()).throw(RuntimeError("flusher boom")),
        )
        service = QueryService(sharded, window_ms=1.0).start()
        try:
            future = service.submit_request(AknnRequest(queries[0], k=3, alpha=0.5))
            with pytest.raises(RuntimeError, match="flusher boom"):
                future.result(timeout=10.0)
        finally:
            service.stop(drain=False)

    def test_futures_under_faults_still_all_complete(self, objects, queries):
        sharded = ShardedDatabase.build(
            list(objects), n_shards=3, placement="hash", config=chaos_config()
        )
        try:
            sharded.fault_plan = FaultPlan.random(
                np.random.default_rng(11), n_shards=3, n_rules=6
            )
            with QueryService(sharded, window_ms=1.0) as service:
                futures = [
                    service.submit_request(AknnRequest(q, k=3, alpha=0.5))
                    for q in queries * 4
                ]
                for future in futures:
                    result = future.result(timeout=60.0)
                    assert result.coverage is None or result.coverage.answered
        finally:
            sharded.close()


# ---------------------------------------------------------------------------
# Delete-vs-query churn (the _owner_shard race regression)
# ---------------------------------------------------------------------------
class TestChurn:
    def test_double_delete_reports_not_found(self, objects):
        sharded = ShardedDatabase.build(
            list(objects)[:12], n_shards=2, placement="hash", config=chaos_config()
        )
        try:
            victim = sharded.object_ids()[0]
            sharded.delete(victim)
            with pytest.raises(ObjectNotFoundError):
                sharded.delete(victim)
            with pytest.raises(ObjectNotFoundError):
                sharded.get_object(victim)
        finally:
            sharded.close()

    def test_concurrent_deletes_never_leak_keyerror(self, objects, queries):
        sharded = ShardedDatabase.build(
            list(objects), n_shards=2, placement="hash", config=chaos_config()
        )
        errors = []
        stop = threading.Event()

        def query_loop():
            while not stop.is_set():
                try:
                    sharded.execute(AknnRequest(queries[0], k=3, alpha=0.5))
                    sharded.execute(ReverseRequest(queries[1], k=2, alpha=0.5))
                except ObjectNotFoundError:
                    pass  # acceptable: the object vanished mid-query
                except Exception as error:  # anything else is the regression
                    errors.append(error)
                    return

        threads = [threading.Thread(target=query_loop) for _ in range(3)]
        try:
            for thread in threads:
                thread.start()
            for object_id in sharded.object_ids()[:16]:
                sharded.delete(object_id)
                time.sleep(0.001)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            sharded.close()
        assert not errors, f"churn leaked unexpected errors: {errors!r}"

    def test_parked_writers_held_pass_and_isolated_queries_all_drain(
        self, objects, queries
    ):
        """The churn above, without the scheduling luck.

        A coupled pass is held open inside its first fan-out (an injected
        delay per shard while the pass holds both read locks), a delete parks
        behind it on each shard, then two isolated queries arrive and queue
        behind the parked writers (the lock is writer-preferring).  Every
        query takes its read locks in ascending shard index and nothing else
        waits while holding one, so the pass finishes, the writers run, the
        isolated queries follow — all five threads drain.
        """
        sharded = ShardedDatabase.build(
            list(objects), n_shards=2, placement="hash", config=chaos_config()
        )
        plan = FaultPlan.parse("op=reverse_filter,kind=delay,delay_ms=400,count=2")
        sharded.fault_plan = plan
        victims = [shard.db.object_ids()[0] for shard in sharded._shards]
        errors = []

        def spawn(fn, *args):
            def target():
                try:
                    fn(*args)
                except Exception as error:  # noqa: BLE001 - collected for assert
                    errors.append(error)

            thread = threading.Thread(target=target, daemon=True)
            thread.start()
            return thread

        def wait_until(condition, timeout=5.0):
            give_up = time.monotonic() + timeout
            while not condition() and time.monotonic() < give_up:
                time.sleep(0.002)
            return condition()

        threads = [spawn(sharded.execute, ReverseRequest(queries[1], k=2, alpha=0.5))]
        assert wait_until(lambda: plan.total_fired() == 2)
        threads += [spawn(sharded.delete, victim) for victim in victims]
        assert wait_until(
            lambda: all(shard.lock._writers_waiting for shard in sharded._shards)
        )
        threads.append(spawn(sharded.execute, AknnRequest(queries[0], k=3, alpha=0.5)))
        threads.append(
            spawn(sharded.execute, RangeRequest(queries[2], alpha=0.5, radius=2.0))
        )
        give_up = time.monotonic() + 20.0  # one hard bound for all five
        for thread in threads:
            thread.join(timeout=max(0.0, give_up - time.monotonic()))
        stuck = [thread for thread in threads if thread.is_alive()]
        if stuck:
            # Red, not hung: drop the coupled pass's read holds so the parked
            # writers — and with them everything else — drain (this database
            # is discarded).
            for shard in sharded._shards:
                with shard.lock._condition:
                    shard.lock._active_readers = 0
                    shard.lock._condition.notify_all()
        assert not stuck, f"{len(stuck)} of {len(threads)} threads deadlocked"
        assert not errors, f"unexpected errors: {errors!r}"
        assert sorted(set(victims) & set(sharded.object_ids())) == []
        sharded.close()

    @pytest.mark.parametrize("method", ["basic", "rss_icr"])
    def test_insert_publishes_its_owner_before_readers_are_let_back_in(
        self, objects, queries, method
    ):
        """A pass that finds an object in a tree sees its owner published.

        The writer is parked at its second ``_admin_lock`` entry — the owner
        publication.  That must still be inside the shard's write section:
        a sweep started now waits; released, it ranks the newcomer (the query
        is the newcomer itself) and reads it back from the shard that ranked it.
        """
        sharded = ShardedDatabase.build(
            list(objects), n_shards=2, placement="hash", config=chaos_config()
        )
        newcomer = queries[0].with_id(1000)
        parked, release = threading.Event(), threading.Event()

        class GatedLock:
            def __init__(self):
                self.lock = threading.Lock()
                self.writer_entries = 0

            def __enter__(self):
                if threading.current_thread().name == "writer":
                    self.writer_entries += 1
                    if self.writer_entries == 2:
                        parked.set()
                        assert release.wait(timeout=20.0)
                self.lock.acquire()

            def __exit__(self, *exc_info):
                self.lock.release()

        sharded._admin_lock = GatedLock()
        outcome = []

        def sweep():
            try:
                outcome.append(
                    sharded.execute(
                        SweepRequest(
                            newcomer, k=2, alpha_range=(0.45, 0.6), method=method
                        )
                    )
                )
            except Exception as error:  # noqa: BLE001 - asserted below
                outcome.append(error)

        writer = threading.Thread(
            target=sharded.insert, args=(newcomer,), name="writer", daemon=True
        )
        reader = threading.Thread(target=sweep, daemon=True)
        try:
            writer.start()
            assert parked.wait(timeout=20.0)
            reader.start()
            reader.join(timeout=0.3)
            assert reader.is_alive(), f"the sweep ran inside the window: {outcome!r}"
        finally:
            release.set()
            writer.join(timeout=20.0)
            reader.join(timeout=20.0)
        assert not writer.is_alive() and not reader.is_alive()
        (result,) = outcome
        assert 1000 in result.object_ids
        sharded.close()
