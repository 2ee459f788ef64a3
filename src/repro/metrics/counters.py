"""Named counters shared by the query processors.

The evaluation of the paper reports two cost dimensions: the number of object
accesses (probes of the object store) and wall-clock running time.  The
searchers additionally track node accesses and the number of alpha-distance /
bound evaluations, which makes the effect of each optimisation visible in
tests and ablation benchmarks.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Dict, Iterator


class MetricsCollector:
    """A tiny bag of named integer counters."""

    # Counters the query processors use; free-form names are also accepted.
    # The cost counters (node accesses, distance and bound evaluations)
    # count work done, so a pass rerun on a sharded database's
    # survivors pays again; on a database's own ``metrics`` the AKNN bucket
    # bootstrap's nominations are its upper-bound evaluations.
    NODE_ACCESSES = "node_accesses"
    DISTANCE_EVALUATIONS = "distance_evaluations"
    LOWER_BOUND_EVALUATIONS = "lower_bound_evaluations"
    UPPER_BOUND_EVALUATIONS = "upper_bound_evaluations"
    # Batch accounting; batch_queries counts the queries of every AKNN
    # bucket of many once per bucket answered.
    BATCH_QUERIES = "batch_queries"
    NODES_PRUNED = "nodes_pruned"
    # Sharded query-service accounting: per-shard sub-queries issued by the
    # fan-out layer, coalescer flushes and the requests they carried, requests
    # shed by admission control, and live index mutations.
    SHARD_FANOUTS = "shard_fanouts"
    COALESCED_BATCHES = "coalesced_batches"
    COALESCED_QUERIES = "coalesced_queries"
    # Reverse-AKNN engine accounting: queries answered through the vectorized
    # batch path and the candidates that survived its all-pairs filter, both
    # once per bucket answered.
    REVERSE_QUERIES = "reverse_queries"
    REVERSE_CANDIDATES = "reverse_candidates"
    # Unified request-planner accounting (core/requests.py): per-(type,
    # bucket_key) sub-batches formed by execute_batch and the requests they
    # carried.  plan_requests > plan_groups is the observable evidence that
    # requests sharing a bucket key were answered by one shared sub-batch.
    PLAN_GROUPS = "plan_groups"
    PLAN_REQUESTS = "plan_requests"
    SHED_REQUESTS = "shed_requests"
    LIVE_INSERTS = "live_inserts"
    LIVE_DELETES = "live_deletes"
    # Fault-tolerance accounting (service/policy.py, service/faults.py):
    # per-shard read retries, breaker trips, shards an open breaker shed
    # (breaker_shed counts *shards*: one per shed shard per admission, and
    # one per shedding shard when a fail-closed bucket is fast-failed —
    # never requests), queries answered with partial coverage, requests that
    # expired mid-execution, and requests withdrawn from the coalescer queue
    # because their deadline passed before their bucket flushed.
    RETRIES = "retries"
    BREAKER_OPEN = "breaker_open"
    BREAKER_SHED = "breaker_shed"
    PARTIAL_RESULTS = "partial_results"
    DEADLINE_EXPIRED = "deadline_expired"
    REQUESTS_WITHDRAWN_EXPIRED = "requests_withdrawn_expired"
    # Durability accounting (storage/wal.py, storage/snapshot.py,
    # index/bulk.py): WAL records appended / replayed on recovery, corrupt
    # tails truncated, snapshots published, STR bulk loads performed (cold
    # opens and recoveries must take this path — tests assert it), full
    # crash recoveries completed, and deferred-compaction rebuilds.
    WAL_APPENDS = "wal_appends"
    WAL_REPLAYED = "wal_replayed"
    WAL_TRUNCATIONS = "wal_truncations"
    WAL_TORN_TAILS = "wal_torn_tails"
    SNAPSHOTS = "snapshots"
    BULK_LOADS = "bulk_loads"
    RECOVERIES = "recoveries"
    COMPACTIONS = "compactions"
    LAZY_DELETES = "lazy_deletes"
    # Standing-query accounting (service/subscriptions.py): registered
    # subscriptions, deltas pushed, inserts screened out by the vectorized
    # bound check (no exact distance paid), exact evaluations paid on
    # surviving inserts, targeted re-queries triggered by member deletes,
    # and subscribers shed for falling behind their delivery queue.
    SUBSCRIPTIONS = "subscriptions"
    SUB_DELTAS = "sub_deltas"
    SUB_SCREENED_OUT = "sub_screened_out"
    SUB_EVALUATIONS = "sub_evaluations"
    SUB_REQUERIES = "sub_requeries"
    SUBSCRIBERS_SHED = "subscribers_shed"

    def __init__(self) -> None:
        self._counts: Dict[str, int] = defaultdict(int)

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        self._counts[name] += amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self._counts.get(name, 0)

    def reset(self) -> None:
        """Zero every counter."""
        self._counts.clear()

    def as_dict(self) -> Dict[str, int]:
        """Copy of all counters."""
        return dict(self._counts)

    def merge(self, other: "MetricsCollector") -> None:
        """Add every counter of ``other`` into this collector."""
        for name, value in other._counts.items():
            self._counts[name] += value

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
        return f"MetricsCollector({parts})"


class SharedMetricsCollector(MetricsCollector):
    """A collector safe to increment from concurrent threads.

    The per-query collectors stay lock-free (they are single-threaded and
    hot); the service layer's long-lived collectors — bumped from whichever
    thread submits a query or applies a live update — use this variant so
    concurrent read-modify-write increments cannot drop counts.
    """

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] += amount

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def merge(self, other: "MetricsCollector") -> None:
        with self._lock:
            for name, value in other._counts.items():
                self._counts[name] += value
