"""Library-wide tunables.

The values here correspond either to constants the paper fixes in its
experimental setup (Section 6.1, Table 2) or to implementation knobs that the
paper leaves unspecified (for example the number of sampled query points used
by the improved upper bound of Lemma 1).
"""

from __future__ import annotations

from dataclasses import dataclass


# Default number of points sampled from the query alpha-cut when computing the
# improved upper bound (Lemma 1).  The paper only requires n << |Q_alpha|.
DEFAULT_UPPER_BOUND_SAMPLES = 8

# Maximum number of leaf entries / child entries per R-tree node, and the
# quadratic split's minimum fill factor.
DEFAULT_RTREE_MAX_ENTRIES = 32
DEFAULT_RTREE_MIN_FILL = 0.4

# Both constants are set from the table of
# benchmarks/bench_ablation_closest_pair.py (brute_force / kdtree / public arms).
#
# Size of the smaller point set from which the closest-pair kernel switches
# from the brute-force path to the KD-tree path.  It is applied to the sets
# that survive the prune below, so the tree mostly sees overlapping cuts the
# prune cannot shrink: there it is 1.6x faster than brute force at 350 x 350.
# Between the kernels themselves brute force is 1.25x faster at 160 x 160 and
# the tree 1.1x faster at 200 x 200, 1.3x at 255 x 255.  The rule is on the
# smaller set because the rectangular rows agree with it: brute force is 1.4x
# faster at 30 x 800, the tree 2.8x faster at 255 x 800.
KDTREE_CROSSOVER_POINTS = 192

# Size of the smaller point set from which the closest pair is first pruned to
# the points that can take part (a bound from one real pair, then a box-gap
# test on each side).  The prune costs a fixed ~35 us of NumPy calls: at
# 128 x 128 the public path is 1.2x slower than brute force, at 160 x 160 1.3x
# faster, and on sets a gap apart 3.5x faster than the tree at 350 x 350.  On
# overlapping sets it prunes nothing and is 1.3x slower than the tree alone.
PRUNE_MIN_POINTS = 160

# Number of per-threshold Equation-2 reconstructions each leaf node's SoA view
# memoises.  Repeated queries at the same alpha (and every query of a batch)
# then share one reconstruction per node.
DEFAULT_NODE_ALPHA_CACHE_CAPACITY = 8

# Number of materialised alpha-cuts each fuzzy object keeps in its LRU cache.
DEFAULT_ALPHA_CUT_CACHE_CAPACITY = 8

# Defaults of the sharded query service (see repro.service).  The shard count
# is at least 1 (one shard: no partitioning); the placement is
# ShardedDatabase.build's, and a recovery's when the manifest names none; the
# coalescer window is the longest a submit_request bucket waits for
# companions (a blocked caller's bucket flushes as soon as the flusher is
# free); the batch size and queue depth are QueryService's.
DEFAULT_SERVICE_SHARDS = 4
DEFAULT_SHARD_PLACEMENT = "hash"
DEFAULT_COALESCE_WINDOW_MS = 2.0
DEFAULT_COALESCE_MAX_BATCH = 64
DEFAULT_SERVICE_QUEUE_DEPTH = 1024

# Fault-tolerance defaults of the serving layer (see repro.service.policy).
# Retries cover transient per-shard worker failures (all queries are
# idempotent reads); the circuit breaker declares a shard sick after
# ``DEFAULT_BREAKER_FAILURE_THRESHOLD`` consecutive exhausted fan-outs and
# sheds its portion of every query until the cool-off elapses.
DEFAULT_SHARD_RETRY_ATTEMPTS = 3
DEFAULT_SHARD_RETRY_BASE_MS = 5.0
DEFAULT_SHARD_RETRY_MAX_MS = 50.0
DEFAULT_BREAKER_FAILURE_THRESHOLD = 3
DEFAULT_BREAKER_RESET_TIMEOUT_MS = 1000.0

# Durability defaults (see repro.storage.wal / repro.storage.snapshot).
# ``wal_sync`` picks the durability/throughput trade of every WAL append:
# "none" leaves flushing to the OS, "flush" drains Python's userspace buffer
# (survives process crash, not power loss), "fsync" additionally forces the
# page cache to disk.  ``snapshot_every`` is the number of WAL appends after
# which the snapshot manager folds the log into a fresh snapshot and
# truncates it (0 disables automatic snapshots).
DEFAULT_WAL_SYNC = "flush"
DEFAULT_SNAPSHOT_EVERY = 0


@dataclass(frozen=True)
class PaperDefaults:
    """Default query / dataset parameters from Table 2 of the paper."""

    n_objects: int = 50_000
    points_per_object: int = 1_000
    k: int = 20
    alpha: float = 0.5
    range_length: float = 0.2
    space_size: float = 100.0
    object_radius: float = 0.5
    membership_sigma: float = 0.5


@dataclass
class RuntimeConfig:
    """Mutable runtime configuration shared by searchers.

    Attributes
    ----------
    upper_bound_samples:
        Number of query points sampled for the Lemma 1 upper bound.
    rtree_max_entries:
        Fan-out of R-tree nodes.
    cache_capacity:
        Number of fuzzy objects the object-store buffer pool keeps in memory.
        ``0`` disables caching so every probe touches the backing file.
    service_shards:
        Default shard count of :class:`~repro.service.ShardedDatabase`.
    shard_retry_attempts:
        Total attempts (initial call included) for a failed per-shard read
        before the shard is counted as failed for this query.  ``1``
        disables retries.
    shard_retry_base_ms / shard_retry_max_ms:
        Capped exponential backoff between attempts (see
        :class:`~repro.service.policy.RetryPolicy`).
    breaker_failure_threshold:
        Consecutive exhausted fan-outs that open a shard's circuit breaker.
    breaker_reset_timeout_ms:
        Cool-off before an open breaker admits half-open probes.
    wal_sync:
        WAL append durability: ``"none"`` (OS-buffered), ``"flush"``
        (userspace buffer drained per append) or ``"fsync"`` (page cache
        forced to disk per append).
    snapshot_every:
        WAL appends between automatic snapshots (``0`` disables them; the
        WAL then grows until an explicit snapshot/close).
    """

    upper_bound_samples: int = DEFAULT_UPPER_BOUND_SAMPLES
    rtree_max_entries: int = DEFAULT_RTREE_MAX_ENTRIES
    cache_capacity: int = 0
    service_shards: int = DEFAULT_SERVICE_SHARDS
    shard_retry_attempts: int = DEFAULT_SHARD_RETRY_ATTEMPTS
    shard_retry_base_ms: float = DEFAULT_SHARD_RETRY_BASE_MS
    shard_retry_max_ms: float = DEFAULT_SHARD_RETRY_MAX_MS
    breaker_failure_threshold: int = DEFAULT_BREAKER_FAILURE_THRESHOLD
    breaker_reset_timeout_ms: float = DEFAULT_BREAKER_RESET_TIMEOUT_MS
    wal_sync: str = DEFAULT_WAL_SYNC
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY

    def validate(self) -> "RuntimeConfig":
        """Check invariants and return ``self`` for chaining."""
        if self.upper_bound_samples < 1:
            raise ValueError("upper_bound_samples must be >= 1")
        if self.rtree_max_entries < 4:
            raise ValueError("rtree_max_entries must be >= 4")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be >= 0")
        if self.service_shards < 1:
            raise ValueError("service_shards must be >= 1")
        if self.shard_retry_attempts < 1:
            raise ValueError("shard_retry_attempts must be >= 1")
        if self.shard_retry_base_ms < 0.0 or self.shard_retry_max_ms < 0.0:
            raise ValueError("shard retry delays must be >= 0")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_reset_timeout_ms < 0.0:
            raise ValueError("breaker_reset_timeout_ms must be >= 0")
        if self.wal_sync not in ("none", "flush", "fsync"):
            raise ValueError(
                f"wal_sync must be 'none', 'flush' or 'fsync', got {self.wal_sync!r}"
            )
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0 (0 disables)")
        return self


DEFAULTS = PaperDefaults()
