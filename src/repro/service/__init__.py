"""The sharded concurrent query service.

This package layers a serving architecture on top of the query engine:

* :mod:`repro.service.placement` — hash and space shard-placement policies;
* :mod:`repro.service.sharded` — :class:`ShardedDatabase`, partitioned
  indexes with shard fan-out, global top-k merging and live updates;
* :mod:`repro.service.query_service` — :class:`QueryService`, a coalescing,
  admission-controlled front end reporting p50/p99 latency;
* :mod:`repro.service.concurrency` — the readers/writer lock and epoch
  counter the shards synchronise on;
* :mod:`repro.service.policy` — deadlines, retry policies and per-shard
  circuit breakers (the failure-semantics building blocks);
* :mod:`repro.service.faults` — the injectable fault plans behind the chaos
  suite and ``serve --fault-plan``;
* :mod:`repro.service.subscriptions` — :class:`SubscriptionEngine`, standing
  AKNN/range queries maintained incrementally and pushed as result deltas.

A shed request raises :class:`~repro.exceptions.ServiceOverloadedError`
carrying ``retry_after_ms``; backing off is the caller's business.

Typical usage::

    from repro import AknnRequest
    from repro.service import ShardedDatabase, QueryService

    db = ShardedDatabase.build(objects, n_shards=4, placement="hash")
    with QueryService(db, window_ms=2.0, max_batch=64) as service:
        future = service.submit_request(AknnRequest(query, k=20, alpha=0.5))
        result = future.result()
"""

from repro.service.concurrency import EpochCounter, ReadWriteLock
from repro.service.faults import FAULT_OPERATIONS, FaultPlan, FaultSpec
from repro.service.placement import (
    PLACEMENT_POLICIES,
    HashPlacement,
    SpacePlacement,
    make_placement,
)
from repro.service.policy import (
    BreakerState,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
)
from repro.service.query_service import QueryService, ServiceStats
from repro.service.sharded import ShardedDatabase
from repro.service.subscriptions import (
    DeliverySubscription,
    ResultDelta,
    Subscription,
    SubscriptionEngine,
)

__all__ = [
    "ShardedDatabase",
    "QueryService",
    "ServiceStats",
    "SubscriptionEngine",
    "Subscription",
    "DeliverySubscription",
    "ResultDelta",
    "HashPlacement",
    "SpacePlacement",
    "make_placement",
    "PLACEMENT_POLICIES",
    "ReadWriteLock",
    "EpochCounter",
    "Deadline",
    "RetryPolicy",
    "CircuitBreaker",
    "BreakerState",
    "FaultPlan",
    "FaultSpec",
    "FAULT_OPERATIONS",
]
