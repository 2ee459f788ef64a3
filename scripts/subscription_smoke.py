"""CI gate: standing queries stay exact under churn through the service.

Drives a sharded :class:`QueryService` with a handful of AKNN + range
subscriptions while a seeded mutation stream (inserts and deletes, routed
through the service) churns the deployment, then asserts:

* **Delta parity** — folding each subscription's delta stream into an empty
  member map reproduces exactly the result of re-executing its request from
  scratch, equals the subscription's maintained members exactly (``==``, so
  a member delete keeps each survivor's delivered distance), and every
  stream is gap-free in ``seq``.
* **Screening** — the vectorised bound kernel dismissed at least one insert
  without paying an exact distance evaluation (SUB_SCREENED_OUT > 0), and a
  member delete triggered at least one targeted re-query (SUB_REQUERIES).
* **Shedding** — a depth-1 consumer is shed (stream closed, counter bumped,
  subscription torn down) instead of stalling mutations, and iterating its
  stream yields the delta it queued and then ends.

Run locally (CI runs seeds 7, 1, 2 and 3)::

    PYTHONPATH=src python scripts/subscription_smoke.py --seed 7
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import RuntimeConfig  # noqa: E402
from repro.core.requests import AknnRequest, RangeRequest  # noqa: E402
from repro.core.results import resolve_exact  # noqa: E402
from repro.datasets.builder import build_dataset  # noqa: E402
from repro.datasets.queries import generate_query_object  # noqa: E402
from repro.fuzzy.fuzzy_object import FuzzyObject  # noqa: E402
from repro.metrics.counters import MetricsCollector  # noqa: E402
from repro.service import QueryService, ShardedDatabase  # noqa: E402


def _check(condition: bool, label: str, failures: list) -> None:
    print(f"  {'ok  ' if condition else 'FAIL'} {label}")
    if not condition:
        failures.append(label)


def _fold(deltas):
    members, seqs = {}, []
    for delta in deltas:
        seqs.append(delta.seq)
        for object_id in delta.removed:
            members.pop(object_id, None)
        for object_id, distance in delta.added:
            members[object_id] = distance
    return members, seqs == list(range(len(seqs)))


def _reference(database, sub):
    result = database.execute(sub.request)
    return resolve_exact(result, sub.request.query, sub.alpha, database.get_object)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--mutations", type=int, default=60)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    failures: list = []
    config = RuntimeConfig(service_shards=3)
    objects = build_dataset(kind="synthetic", n_objects=45, points_per_object=24,
                            seed=args.seed, space_size=8.0)
    database = ShardedDatabase.build(objects, n_shards=3, config=config)
    service = QueryService(database).start()

    queries = [generate_query_object(rng, kind="synthetic", space_size=8.0,
                                     points_per_object=24) for _ in range(3)]
    deliveries = [
        service.subscribe(AknnRequest(queries[0], k=5, alpha=0.4)),
        service.subscribe(AknnRequest(queries[1], k=3, alpha=0.6)),
        service.subscribe(RangeRequest(queries[2], alpha=0.5, radius=3.0)),
    ]
    print(f"subscribed {service.subscriptions} standing queries")

    # Churn: mixed inserts/deletes through the service, including far-away
    # inserts that the vectorised screen should dismiss for every answer.
    live = list(database.object_ids())
    next_id = 1000
    for step in range(args.mutations):
        if step % 3 == 2 and len(live) > 10:
            service.delete(live.pop(int(rng.integers(0, len(live)))))
        elif step % 5 == 4:
            base = generate_query_object(rng, kind="synthetic", space_size=8.0,
                                         points_per_object=24)
            far = FuzzyObject(base.points + 500.0, base.memberships,
                              object_id=next_id)
            service.insert(far)
            live.append(next_id)
            next_id += 1
        else:
            obj = generate_query_object(rng, kind="synthetic", space_size=8.0,
                                        points_per_object=24)
            service.insert(obj.with_id(next_id))
            live.append(next_id)
            next_id += 1

    for index, delivery in enumerate(deliveries):
        members, gap_free = _fold(delivery.drain())
        _check(gap_free, f"subscription {index}: delta stream is gap-free", failures)
        _check(members == delivery.subscription.members,
               f"subscription {index}: maintained members == delta fold (exact)",
               failures)
        reference = _reference(database, delivery.subscription)
        same = sorted(members) == sorted(reference) and all(
            abs(members[oid] - reference[oid]) < 1e-9 for oid in reference
        )
        _check(same, f"subscription {index}: delta fold == re-execution "
                     f"({len(reference)} members)", failures)

    counters = service.metrics.as_dict()
    _check(counters.get(MetricsCollector.SUB_DELTAS, 0) > 0,
           f"deltas pushed ({counters.get(MetricsCollector.SUB_DELTAS, 0)})",
           failures)
    _check(counters.get(MetricsCollector.SUB_SCREENED_OUT, 0) > 0,
           f"inserts screened by the bound kernel "
           f"({counters.get(MetricsCollector.SUB_SCREENED_OUT, 0)})", failures)
    _check(counters.get(MetricsCollector.SUB_REQUERIES, 0) > 0,
           f"member deletes re-queried "
           f"({counters.get(MetricsCollector.SUB_REQUERIES, 0)})", failures)

    # Slow consumer: a depth-1 queue must shed, not stall.
    slow = service.subscribe(AknnRequest(queries[0], k=5, alpha=0.4), depth=1)
    for _ in range(20):
        if slow.shed:
            break
        obj = generate_query_object(rng, kind="synthetic", space_size=8.0,
                                    points_per_object=24)
        service.insert(obj.with_id(next_id))
        next_id += 1
    _check(slow.shed and slow.closed, "slow consumer shed and closed", failures)
    _check(service.metrics.get(MetricsCollector.SUBSCRIBERS_SHED) >= 1,
           "shed counter bumped", failures)
    _check(service.subscriptions == 3, "shed subscription torn down", failures)
    read: list = []
    reader = threading.Thread(target=lambda: read.extend(slow), daemon=True)
    reader.start()
    reader.join(timeout=5.0)
    _check(not reader.is_alive(), "shed stream iteration ends", failures)
    _check(len(read) == 1, f"shed stream yields its queued delta ({len(read)})",
           failures)

    service.stop()
    database.close()

    if failures:
        print(f"\nsubscription smoke FAILED ({len(failures)} checks):")
        for label in failures:
            print(f"  - {label}")
        return 1
    print("\nsubscription smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
