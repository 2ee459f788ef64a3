"""CI gate: the serving layer survives randomized fault injection.

Drives two chaos phases against a sharded :class:`QueryService` and asserts
the failure-semantics contract held:

1. **Transient chaos** — a seeded :meth:`FaultPlan.random` plan (bounded
   ``count`` per rule, so retries eventually win) under a mixed-type
   workload whose AKNN requests cycle through all four methods from a
   seeded start, so every method's bucket probe meets the faults.  Every
   submitted future must complete within its timeout (zero hung futures)
   and the retry counter must be non-zero — i.e. the injected
   faults actually exercised the retry path rather than being absorbed
   silently.  The same requests then run again as blocking ``execute`` calls
   from 4 threads under a fresh copy of the same plan, so the path that
   flushes a blocked caller's bucket as soon as the flusher is free meets
   the same faults: every call must return within the timeout, with the
   same coverage check.

2. **Dead shard** — a permanent ``raise`` rule on one shard with a small
   breaker threshold.  Every future must still complete, every answer must
   carry partial coverage naming the dead shard, every answer must equal
   :mod:`repro.reference`'s over the surviving shards' objects (an AKNN
   neighbour, coalesced or alone, by its bounds when unprobed and by its
   distance when probed; a sweep by its whole assignment, interval for
   interval, range ends included), every reverse filter must keep exactly the candidates a
   fresh survivors-only database keeps (its k-th MaxDist table is built over
   all three shards first, so a table that outlives the live set shows), the
   breaker must reach OPEN (non-zero ``breaker_open``), and
   once open the shard must stop being invoked at all (the fault plan's
   fired count freezes while ``breaker_shed`` keeps climbing).  The service
   coalesces AKNN requests into buckets, so every AKNN and sweep request of
   the workload also runs once on its own through ``database.execute``, on
   a twin database whose breaker stays closed: each one meets the dead shard,
   must rerun on the survivors, and must answer like the reference over
   them, checked the same way.

Run locally::

    PYTHONPATH=src python scripts/chaos_smoke.py --seed 7
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import reference  # noqa: E402
from repro.config import RuntimeConfig  # noqa: E402
from repro.core.database import FuzzyDatabase  # noqa: E402
from repro.core.requests import (  # noqa: E402
    AknnMethod,
    AknnRequest,
    RangeRequest,
    ReverseRequest,
    SweepMethod,
    SweepRequest,
)
from repro.datasets.builder import build_dataset  # noqa: E402
from repro.datasets.queries import generate_query_object  # noqa: E402
from repro.fuzzy.intervals import IntervalSet  # noqa: E402
from repro.metrics.counters import MetricsCollector  # noqa: E402
from repro.service import (  # noqa: E402
    BreakerState,
    FaultPlan,
    QueryService,
    ShardedDatabase,
)

FUTURE_TIMEOUT_S = 120.0  # "hung" means missing even this generous bound


def _check(condition: bool, label: str, failures: list) -> None:
    print(f"  {'ok  ' if condition else 'FAIL'} {label}")
    if not condition:
        failures.append(label)


def _mixed_requests(queries, n: int, seed=None):
    """The workload; with ``seed``, AKNN requests cycle through every method
    from a seeded start, four requests a method."""
    requests = []
    for i in range(n):
        query = queries[i % len(queries)]
        kind = i % 16
        if kind < 8:
            method = AknnMethod.LB_LP_UB
            if seed is not None:  # two methods per 16 requests, in turn
                turn = seed + 2 * (i // 16) + kind // 4
                method = list(AknnMethod)[turn % len(AknnMethod)]
            requests.append(AknnRequest(query, k=2 + i % 3, alpha=0.5, method=method))
        elif kind < 12:
            requests.append(RangeRequest(query, alpha=0.5, radius=2.0 + i % 2))
        elif kind < 15:
            requests.append(ReverseRequest(query, k=2, alpha=0.5))
        else:
            method = list(SweepMethod)[(i // 16) % len(SweepMethod)]
            requests.append(
                SweepRequest(query, k=2, alpha_range=(0.45, 0.55), method=method)
            )
    return requests


def _build(objects, **config_overrides) -> ShardedDatabase:
    config = RuntimeConfig(
        rtree_max_entries=8,
        cache_capacity=32,
        shard_retry_attempts=3,
        shard_retry_base_ms=0.5,
        shard_retry_max_ms=2.0,
        **config_overrides,
    )
    return ShardedDatabase.build(objects, n_shards=3, placement="hash", config=config)


def _run_workload(database, requests) -> list:
    """Submit everything through a service; return results, never hang."""
    with QueryService(database, window_ms=1.0, max_batch=32) as service:
        futures = [service.submit_request(request) for request in requests]
        return [future.result(timeout=FUTURE_TIMEOUT_S) for future in futures]


def _run_blocking(database, requests, n_threads: int = 4) -> list:
    """Answer ``requests`` as blocking ``execute`` calls from ``n_threads``
    threads; a call that raises or misses the timeout leaves ``None``."""
    results = [None] * len(requests)
    with QueryService(database, window_ms=1.0, max_batch=32) as service:

        def client(first: int) -> None:
            for index in range(first, len(requests), n_threads):
                try:
                    results[index] = service.execute(
                        requests[index], timeout=FUTURE_TIMEOUT_S
                    )
                except Exception as exc:  # noqa: BLE001 - reported as a miss
                    print(f"  blocking call {index} failed: {exc!r}")

        threads = [
            threading.Thread(target=client, args=(first,)) for first in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return results


def _answers_the_survivors(request, result, survivors) -> bool:
    """An answer equals :mod:`repro.reference`'s over ``survivors``.

    An AKNN, range or reverse answer by its id set, each probed member by
    its distance, each unprobed AKNN neighbour by bounds that contain
    ``d_alpha``, each bound-confirmed range match by ``d_alpha <= U <=
    radius`` and each bound-confirmed reverse member by ``d_alpha <= U``.  A sweep by its whole
    assignment, interval for interval, so an error at either end of its
    range shows.  Probed distances and interval ends are exact, so each is
    compared with ``==``.
    """
    if isinstance(request, AknnRequest):
        exact = dict(reference.aknn(survivors, request.query, len(survivors), request.alpha))
        want = reference.aknn(survivors, request.query, request.k, request.alpha)
        if sorted(result.object_ids) != sorted(i for i, _ in want):
            return False
        for neighbor in result.neighbors:
            d_alpha = exact[neighbor.object_id]
            if neighbor.probed:
                if neighbor.distance != d_alpha:
                    return False
            elif not neighbor.lower_bound <= d_alpha <= neighbor.upper_bound:
                return False
        return True
    if isinstance(request, SweepRequest):
        want = reference.sweep(survivors, request.query, request.k, request.alpha_range)
        return set(result.assignments) == set(want) and all(
            result.assignments[i] == IntervalSet.from_pairs(ranges)
            for i, ranges in want.items()
        )
    if isinstance(request, RangeRequest):
        exact = dict(reference.range_search(survivors, request.query, request.alpha, np.inf))
        if sorted(result.object_ids) != sorted(
            i for i, d in exact.items() if d <= request.radius
        ):
            return False
        for object_id, distance in result.matches:
            d_alpha = exact[object_id]
            if distance is None:
                if not d_alpha <= result.upper_bounds[object_id] <= request.radius:
                    return False
            elif distance != d_alpha:
                return False
        return True
    exact = dict(reference.reverse(survivors, request.query, request.k, request.alpha))
    if sorted(result.object_ids) != sorted(exact) or sorted(result.distances) != sorted(exact):
        return False
    for object_id, distance in result.distances.items():
        d_alpha = exact[object_id]
        if distance is None:
            if not d_alpha <= result.upper_bounds[object_id]:
                return False
        elif distance != d_alpha:
            return False
    return True


def phase_transient(objects, queries, seed: int, n_requests: int, failures: list):
    print(f"\n=== phase 1: transient chaos (seed {seed}) ===")
    database = _build(objects)
    try:
        plan = FaultPlan.random(
            np.random.default_rng(seed), n_shards=database.n_shards, n_rules=6
        )
        database.fault_plan = plan
        print(f"  plan: {plan!r}")
        results = _run_workload(database, _mixed_requests(queries, n_requests, seed))
        counters = database.metrics.as_dict()
        _check(len(results) == n_requests, "every future completed", failures)
        _check(
            all(r.coverage is None or r.coverage.answered for r in results),
            "every answer has at least one contributing shard",
            failures,
        )
        _check(plan.total_fired() > 0, "the fault plan actually fired", failures)
        _check(
            counters.get(MetricsCollector.RETRIES, 0) > 0,
            "retries counter is non-zero",
            failures,
        )
        plan = FaultPlan.random(
            np.random.default_rng(seed), n_shards=database.n_shards, n_rules=6
        )
        database.fault_plan = plan
        results = _run_blocking(database, _mixed_requests(queries, n_requests, seed))
        _check(
            all(r is not None for r in results),
            "every blocking call (4 threads) returned",
            failures,
        )
        _check(
            all(
                r is None or r.coverage is None or r.coverage.answered
                for r in results
            ),
            "every blocking answer has at least one contributing shard",
            failures,
        )
        _check(plan.total_fired() > 0, "the plan fired on the blocking calls", failures)
    finally:
        database.close()


def phase_dead_shard(objects, queries, n_requests: int, failures: list):
    print("\n=== phase 2: permanent dead shard ===")
    database = _build(
        objects,
        breaker_failure_threshold=2,
        breaker_reset_timeout_ms=60_000.0,
    )
    try:
        dead = 1
        survivors = [
            obj
            for shard in database._shards
            if shard.index != dead
            for obj in shard.db.store.iter_objects(count_accesses=False)
        ]
        requests = _mixed_requests(queries, n_requests)
        # Every reverse table the workload uses, built while all shards live.
        for request in requests:
            if isinstance(request, ReverseRequest):
                database.execute(request)
        plan = FaultPlan.parse(f"shard={dead},kind=raise")
        database.fault_plan = plan
        results = _run_workload(database, requests)
        counters = database.metrics.as_dict()
        _check(len(results) == n_requests, "every future completed", failures)
        _check(
            all(
                r.coverage is not None and dead in r.coverage.failed
                for r in results
            ),
            "every answer is partial and names the dead shard",
            failures,
        )
        _check(
            all(
                _answers_the_survivors(request, result, survivors)
                for request, result in zip(requests, results)
            ),
            "every answer equals the reference over the survivors",
            failures,
        )
        twin = FuzzyDatabase.build(survivors)
        _check(
            all(
                result.stats.extra["candidates"]
                == twin.execute(request).stats.extra["candidates"]
                for request, result in zip(requests, results)
                if isinstance(request, ReverseRequest)
            ),
            "every reverse filter keeps the candidates of a survivors-only database",
            failures,
        )
        twin.close()
        _check(
            database._shards[dead].breaker.state is BreakerState.OPEN,
            "the dead shard's breaker reached OPEN",
            failures,
        )
        _check(
            counters.get(MetricsCollector.BREAKER_OPEN, 0) > 0,
            "breaker_open counter is non-zero",
            failures,
        )
        _check(
            counters.get(MetricsCollector.PARTIAL_RESULTS, 0) >= n_requests,
            "every partial answer was counted",
            failures,
        )
        # Once open, the shard is shed at admission: no further invocations.
        fired_before = plan.total_fired()
        _run_workload(database, _mixed_requests(queries, 8))
        _check(
            plan.total_fired() == fired_before,
            "open breaker sheds without touching the shard",
            failures,
        )
    finally:
        database.close()

    # Singletons: one search over the live shards, rerun on the survivors.
    alone = [r for r in requests if isinstance(r, (AknnRequest, SweepRequest))]
    database = _build(objects, breaker_failure_threshold=len(alone) + 1)
    try:
        plan = FaultPlan.parse(f"shard={dead},kind=raise")
        database.fault_plan = plan
        results, met = [], 0
        for request in alone:
            fired_before = plan.total_fired()
            results.append(database.execute(request))
            met += plan.total_fired() > fired_before
        _check(met == len(alone), "every singleton met the dead shard", failures)
        _check(
            all(dead in result.coverage.failed for result in results),
            "every singleton answer is partial and names the dead shard",
            failures,
        )
        _check(
            all(
                _answers_the_survivors(request, result, survivors)
                for request, result in zip(alone, results)
            ),
            "every singleton AKNN and sweep answers like the reference over the survivors",
            failures,
        )
    finally:
        database.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n-requests", type=int, default=48)
    parser.add_argument("--n-objects", type=int, default=48)
    args = parser.parse_args(argv)

    objects = build_dataset(
        kind="synthetic",
        n_objects=args.n_objects,
        points_per_object=12,
        seed=args.seed,
        space_size=8.0,
    )
    rng = np.random.default_rng(args.seed + 1)
    queries = [
        generate_query_object(rng, kind="synthetic", space_size=8.0, points_per_object=12)
        for _ in range(4)
    ]

    failures: list = []
    phase_transient(objects, queries, args.seed, args.n_requests, failures)
    phase_dead_shard(objects, queries, args.n_requests, failures)

    if failures:
        print(f"\nchaos smoke FAILED: {failures}")
        return 1
    print("\nchaos smoke passed: zero hung futures, retry and breaker paths exercised")
    return 0


if __name__ == "__main__":
    sys.exit(main())
