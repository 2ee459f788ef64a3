"""A partitioned database with shard fan-out and global merging.

:class:`ShardedDatabase` splits a dataset across ``N`` independent
:class:`~repro.core.database.FuzzyDatabase` shards, each owning its own
object store, R-tree and SoA views.  Placement is pluggable
(:mod:`repro.service.placement`): hash placement balances shards uniformly,
space placement stripes the first spatial axis so nearby objects share a
shard.

Queries visit every shard in turn on the calling thread — shards partition
the index (per-partition pruning), isolate failures and own their durability;
they are not a parallelism device under one interpreter lock.  What lives in
this module is how a query meets the shards, not the queries themselves:

* **Fan-out and failure policy** — decided in one place: one combinator
  (``_coupled``: a pass over the live shards, rerun on the survivors when it
  loses one) and one bucket wrapper (``_answer_bucket``) carry admission
  through the breakers, read locking (calling thread only, see
  ``_read_locked``), retries, partial ``Coverage`` and the fail-closed
  contract.  A store read a pass makes *between* fan-outs goes through
  :class:`_ShardStore`, which blames the shard, so it degrades like any
  other shard failure.
* **Durability glue and topology** — per-shard WAL / snapshot directories,
  recovery, placement, the owner map, live updates.

The families are **not** here.  Each is written once in its own module, as
one pass over a *partition set* — parts exposing ``store`` / ``tree``, which
a :class:`_Shard` does — and a single tree is a set of one.  Every bucket
hook runs its family's pass through ``_coupled`` with ``_map_strict`` as its
fan-out: :func:`~repro.core.executor.aknn_bucket_pass`,
:func:`~repro.core.range_search.range_pass`,
:func:`~repro.core.rknn.sweep_pass` and
:func:`~repro.core.reverse_nn.reverse_bucket_pass`.  A partial answer is
the answer over the surviving shards, for every family.

Live updates (:meth:`insert` / :meth:`delete`) route through the placement
policy to the owning shard and take that shard's write lock, so in-flight
queries never observe a half-applied R-tree mutation; each mutation advances
the database epoch.  Object ids are globally unique and never recycled.

With :meth:`ShardedDatabase.enable_durability` each shard additionally logs
its mutations to its own WAL inside a per-shard subdirectory and snapshots
independently; :meth:`ShardedDatabase.recover` heals a crashed directory
shard by shard (snapshot + WAL tail replay + STR bulk load).  Registered
update listeners (``add_update_listener`` — the subscription engine) are
notified after each mutation commits and its shard lock is released.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import ExitStack, contextmanager
from functools import partial
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.config import RuntimeConfig
from repro.core.database import FuzzyDatabase
from repro.core.executor import RepresentativeIndex, aknn_bucket_pass
from repro.core.range_search import range_pass
from repro.core.requests import (
    AknnRequest,
    Engine,
    QueryRequest,
    RangeRequest,
    ReverseRequest,
    SweepRequest,
)
from repro.core.results import Coverage
from repro.core.reverse_nn import reverse_bucket_pass
from repro.core.rknn import sweep_pass
from repro.exceptions import (
    DeadlineExceededError,
    ObjectNotFoundError,
    ShardUnavailableError,
    StorageError,
)
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.fuzzy.summary import stack_by_shape
from repro.metrics.counters import MetricsCollector, SharedMetricsCollector
from repro.service.concurrency import EpochCounter, ReadWriteLock
from repro.service.faults import FaultPlan
from repro.service.placement import make_placement
from repro.service.policy import CircuitBreaker, RetryPolicy
from repro.storage.snapshot import Manifest, read_manifest, write_manifest

T = TypeVar("T")


class _Shard:
    """One partition: a FuzzyDatabase, its readers/writer lock, its breaker.

    ``store`` / ``tree`` are what the families' partition-set functions see
    of it.
    """

    __slots__ = ("index", "db", "lock", "breaker", "store")

    def __init__(self, index: int, db: FuzzyDatabase, breaker: CircuitBreaker):
        self.index = index
        self.db = db
        self.lock = ReadWriteLock()
        self.breaker = breaker
        self.store = _ShardStore(index, db.store)

    @property
    def tree(self):
        return self.db.tree


class _ShardStore:
    """A shard's object store as the families read it.

    Nothing blames a shard for a read made between fan-outs (an AKNN
    bucket's probe passes, a reverse bucket's candidates and neighbours, a
    singleton AKNN's or a sweep's probe), so
    a failing ``get`` is converted here into the :class:`_FanoutFailure` that
    makes :meth:`ShardedDatabase._coupled` rerun the pass on the survivors.
    A read inside the shard's own call (a range bucket's probes) fails that
    call, with the same reason.  ``in`` says whether the shard holds an
    object, which is where a pass's reader reads it.
    """

    __slots__ = ("_index", "_store")

    def __init__(self, index: int, store):
        self._index = index
        self._store = store

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._store

    def get(self, object_id: int) -> FuzzyObject:
        try:
            return self._store.get(object_id)
        except ObjectNotFoundError:
            raise
        except Exception as error:  # noqa: BLE001 - isolation boundary
            raise _FanoutFailure(
                {self._index: f"store read failed: {type(error).__name__}: {error}"}
            ) from error

    def object_ids(self) -> List[int]:
        return self._store.object_ids()

    @property
    def statistics(self):
        return self._store.statistics


class _ShardFailure(Exception):
    """Internal: one shard could not answer (retries exhausted / breaker open).

    Never escapes the sharded fan-out — it is converted into partial
    coverage or a :class:`~repro.exceptions.ShardUnavailableError`.
    """

    def __init__(self, shard_index: int, reason: str):
        super().__init__(f"shard {shard_index}: {reason}")
        self.shard_index = int(shard_index)
        self.reason = reason


class _FanoutFailure(Exception):
    """Internal: one fan-out pass lost shards (all failures of the pass).

    Raised by the strict (coupled) fan-out maps; the exclusion loop catches
    it, removes the lost shards from the live set, and reruns the pass so
    the surviving shards' answers stay exactly what a fresh query against
    only those shards would return.
    """

    def __init__(self, failures: Dict[int, str]):
        super().__init__(f"shards failed: {sorted(failures)}")
        self.failures = dict(failures)


class ShardedDatabase(Engine):
    """A collection of fuzzy objects partitioned across independent shards."""

    def __init__(
        self,
        shards: Sequence[FuzzyDatabase],
        placement,
        owners: Dict[int, int],
        config: Optional[RuntimeConfig] = None,
    ):
        if not shards:
            raise ValueError("a sharded database needs at least one shard")
        self.config = (config or RuntimeConfig()).validate()
        self.placement = placement
        self._shards = [
            _Shard(i, db, CircuitBreaker.from_config(self.config))
            for i, db in enumerate(shards)
        ]
        self._owners = dict(owners)
        # Failure policy: retries for transient per-shard read failures, one
        # breaker per shard (held by the _Shard), and an optional fault plan
        # installed by chaos tests / `serve --fault-plan`.  The plan hook is
        # a single `is None` check on the fan-out path — zero overhead when
        # disabled.
        self.retry_policy = RetryPolicy.from_config(self.config)
        self.fault_plan: Optional[FaultPlan] = None
        self._durable_dir: Optional[Path] = None
        self._update_listeners: List = []
        self._admin_lock = threading.Lock()
        self._insert_lock = threading.Lock()
        self._next_id = max(shard.db.store.id_watermark for shard in self._shards)
        self._epoch = EpochCounter()
        self.metrics = SharedMetricsCollector()
        # The AKNN buckets' KD-tree and bound table over the live shards'
        # leaves and the reverse filter's k-th MaxDist table over their boxes.
        self._rep_index = RepresentativeIndex()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        objects: Iterable[FuzzyObject],
        n_shards: Optional[int] = None,
        placement: Optional[str] = None,
        config: Optional[RuntimeConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "ShardedDatabase":
        """Partition ``objects`` and build one index per shard.

        Objects without an id receive globally-sequential ids; explicit ids
        must be unique across the whole database.  ``n_shards`` and
        ``placement`` default to the config's ``service_shards`` /
        ``shard_placement``.
        """
        config = (config or RuntimeConfig()).validate()
        n_shards = config.service_shards if n_shards is None else int(n_shards)
        policy_name = placement or config.shard_placement
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")

        # Two passes: ids first (explicit ids win, the rest fill the gaps),
        # then placement, which may need every centre to fit stripes.
        materialised: List[FuzzyObject] = []
        raw = list(objects)
        used = {int(o.object_id) for o in raw if o.object_id is not None}
        if len(used) != sum(1 for o in raw if o.object_id is not None):
            raise StorageError("explicit object ids must be unique")
        next_free = 0
        for obj in raw:
            if obj.object_id is None:
                while next_free in used:
                    next_free += 1
                used.add(next_free)
                obj = obj.with_id(next_free)
            materialised.append(obj)

        # Support-box centres from one stacked min / max per shape.
        centers = np.empty((len(materialised), materialised[0].dimensions if materialised else 1))
        for positions, points, _ in stack_by_shape(materialised):
            centers[positions] = (points.min(axis=1) + points.max(axis=1)) / 2.0
        policy = make_placement(policy_name, n_shards, centers)

        per_shard: List[List[FuzzyObject]] = [[] for _ in range(n_shards)]
        owners: Dict[int, int] = {}
        for obj, center in zip(materialised, centers):
            shard_index = policy.shard_for(int(obj.object_id), center)
            per_shard[shard_index].append(obj)
            owners[int(obj.object_id)] = shard_index

        shards = [
            FuzzyDatabase.build(shard_objects, config=config, rng=rng)
            for shard_objects in per_shard
        ]
        return cls(shards, policy, owners, config=config)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    @staticmethod
    def _shard_dir(directory: Path, index: int) -> Path:
        return directory / f"shard-{index:04d}"

    @property
    def durable(self) -> bool:
        """Whether every shard logs its mutations to a per-shard WAL."""
        return self._durable_dir is not None

    def _wal_fault_hook(self, shard_index: int) -> Callable[[], None]:
        """A WAL-append injection point wired to the *current* fault plan.

        The closure re-reads ``self.fault_plan`` on every call, so chaos
        tests can install or swap a plan after durability was enabled —
        exactly like the query fan-out hook.
        """

        def hook() -> None:
            plan = self.fault_plan
            if plan is not None:
                plan.invoke(shard_index, "wal_append")

        return hook

    def enable_durability(self, directory: os.PathLike | str) -> "ShardedDatabase":
        """Attach per-shard WAL + snapshot cycles rooted at ``directory``.

        Each shard gets its own subdirectory (``shard-0000/`` ...) holding a
        self-contained snapshot plus WAL, so shards fail — and recover —
        independently; a top-level manifest records the shard count and the
        placement policy for :meth:`recover`.  WAL appends run while the
        owning shard's write lock is held, so log order matches apply order
        per shard; cross-shard ordering is irrelevant because every object
        lives in exactly one shard and ids are never recycled.
        """
        if self._durable_dir is not None:
            raise StorageError("durability already enabled for this database")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for shard in self._shards:
            sub = self._shard_dir(directory, shard.index)
            sub.mkdir(parents=True, exist_ok=True)
            with shard.lock.write():
                shard.db.enable_durability(
                    sub, fault_hook=self._wal_fault_hook(shard.index)
                )
        placement = getattr(self.placement, "name", "hash")
        write_manifest(
            directory,
            Manifest(kind="sharded", n_shards=len(self._shards), extra={"placement": placement}),
        )
        self._durable_dir = directory
        return self

    @classmethod
    def recover(
        cls,
        path: os.PathLike | str,
        config: Optional[RuntimeConfig] = None,
        rng: Optional[np.random.Generator] = None,
        *,
        resume: bool = True,
    ) -> "ShardedDatabase":
        """Rebuild a sharded database from its durable directory after a crash.

        Every shard recovers independently (snapshot + WAL tail replay + one
        STR bulk load), so a crash that tore only some shards' logs heals
        exactly those shards; the owner map is rebuilt from actual shard
        membership and the id watermark from the recovered stores, so no
        recycled id can ever collide with a logged one.  The placement
        policy is rebuilt from the manifest (``space`` boundaries are refit
        to the recovered centres — that only affects where *future* inserts
        land, never query correctness, since queries fan out everywhere and
        deletes route via the owner map).  Without ``config`` every shard
        keeps the config its directory was written with.
        """
        directory = Path(path)
        manifest = read_manifest(directory)
        if manifest.kind != "sharded":
            raise StorageError(
                f"manifest at {directory} describes a {manifest.kind!r} database; "
                f"use FuzzyDatabase.recover() for single-node directories"
            )
        shard_dbs = [
            FuzzyDatabase.recover(
                cls._shard_dir(directory, index), config=config, rng=rng,
                resume=resume,
            )
            for index in range(int(manifest.n_shards))
        ]
        # the given config, or the one the shards were written with
        config = shard_dbs[0].config
        owners: Dict[int, int] = {}
        centers: List[np.ndarray] = []
        for index, db in enumerate(shard_dbs):
            for object_id, summary in db.summaries.items():
                owners[int(object_id)] = index
                centers.append(summary.support_mbr.center)
        policy = make_placement(
            str(manifest.extra.get("placement", config.shard_placement)),
            int(manifest.n_shards),
            np.asarray(centers, dtype=float) if centers else None,
        )
        instance = cls(shard_dbs, policy, owners, config=config)
        instance._durable_dir = directory
        for index, db in enumerate(shard_dbs):
            # Fold the per-shard recovery counters (WAL_REPLAYED, RECOVERIES,
            # BULK_LOADS, ...) into the global collector, then arm the WAL
            # fault hooks now that `instance` exists to route through.
            instance.metrics.merge(db.metrics)
            if resume and db.wal is not None:
                db.wal.fault_hook = instance._wal_fault_hook(index)
        return instance

    # ------------------------------------------------------------------
    # Shard plumbing
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def epoch(self) -> int:
        """Number of live mutations applied since construction."""
        return self._epoch.value

    def shard_sizes(self) -> List[int]:
        """Object count per shard (placement-balance diagnostics)."""
        return [len(shard.db) for shard in self._shards]

    def _map_pool(self, shards: Sequence[_Shard], fn: Callable[[_Shard], T]) -> List[T]:
        """Apply ``fn`` to each of ``shards`` in turn, on the calling thread."""
        self.metrics.increment(MetricsCollector.SHARD_FANOUTS, len(shards))
        return [fn(shard) for shard in shards]

    def _owner_shard(self, object_id: int) -> _Shard:
        with self._admin_lock:
            shard_index = self._owners.get(int(object_id))
        if shard_index is None:
            raise ObjectNotFoundError(f"object {object_id} is not in the database")
        return self._shards[shard_index]

    # ------------------------------------------------------------------
    # Failure-policy plumbing
    # ------------------------------------------------------------------
    @contextmanager
    def _admit_shards(self) -> Iterator[Tuple[List[_Shard], Dict[int, str]]]:
        """Split the shards into a live set and a breaker-shed set, for one query.

        ``allow()`` is called exactly once per shard per query — it consumes
        half-open probe slots, so neither retry loops nor rerun passes may
        call it again for the same query.  On exit every admitted shard's
        slot is given back: a query that ends before reaching a shard (a
        deadline hit on an earlier one) records no outcome for it, and a
        half-open breaker whose only slot stayed taken would shed that shard
        forever.
        """
        live: List[_Shard] = []
        failed: Dict[int, str] = {}
        for shard in self._shards:
            if shard.breaker.allow():
                live.append(shard)
            else:
                failed[shard.index] = "circuit breaker open"
        if failed:
            self.metrics.increment(MetricsCollector.BREAKER_SHED, len(failed))
        try:
            yield live, failed
        finally:
            for shard in live:
                shard.breaker.release_probe()

    def _invoke_shard(
        self,
        shard: _Shard,
        op: str,
        fn: Callable[[_Shard], T],
        deadline=None,
    ) -> T:
        """One shard call with fault injection, retries and breaker accounting.

        Every query in this system is an idempotent read, so transient worker
        failures retry with capped exponential backoff (full jitter).  The
        breaker records one failure per *exhausted* invocation, not one per
        attempt.  Deadline expiry aborts without blaming the shard.
        """
        policy = self.retry_policy
        attempt = 0
        while True:
            try:
                if self.fault_plan is not None:
                    self.fault_plan.invoke(shard.index, op)
                result = fn(shard)
            except DeadlineExceededError:
                raise
            except Exception as error:  # noqa: BLE001 - isolation boundary
                attempt += 1
                expired = deadline is not None and deadline.expired()
                if attempt < policy.max_attempts and not expired:
                    self.metrics.increment(MetricsCollector.RETRIES)
                    delay = policy.delay_seconds(attempt - 1)
                    if deadline is not None:
                        delay = min(delay, max(deadline.remaining_ms(), 0.0) / 1000.0)
                    if delay > 0.0:
                        time.sleep(delay)
                    continue
                if shard.breaker.record_failure():
                    self.metrics.increment(MetricsCollector.BREAKER_OPEN)
                if expired:
                    raise DeadlineExceededError(
                        f"deadline expired during shard {shard.index} {op}"
                    ) from error
                if isinstance(error, _FanoutFailure):  # its own _ShardStore's read
                    reason = error.failures[shard.index]
                else:
                    reason = f"{type(error).__name__}: {error}"
                raise _ShardFailure(shard.index, reason) from error
            else:
                shard.breaker.record_success()
                return result

    def _read_locked(self, shards: Sequence[_Shard]) -> ExitStack:
        """Hold the given shards' read locks: ``with self._read_locked(live):``.

        The one place a query takes shard locks (the single-object point read
        in :meth:`get_object` aside): on the calling thread, in ascending
        shard index — ``_admit_shards`` yields that order and survivor sets
        keep it — so two queries can never hold-and-wait on each other, and
        held for the whole fan-out or coupled pass, which makes it a single
        snapshot of every covered shard.
        """
        stack = ExitStack()
        try:
            for shard in shards:
                stack.enter_context(shard.lock.read())
        except BaseException:
            stack.close()
            raise
        return stack

    def _map_strict(
        self,
        shards: Sequence[_Shard],
        op: str,
        fn: Callable[[_Shard], T],
        deadline=None,
    ) -> List[T]:
        """One fan-out under the caller's read locks: every shard's value, or
        a :class:`_FanoutFailure` naming every shard lost in it (for
        :meth:`_coupled`'s survivor loop).  A lost shard does not stop the
        rest of the fan-out; a deadline hit on any shard propagates at once."""
        if deadline is not None:
            deadline.check(f"{op} fan-out")
        values: List[T] = []
        lost: Dict[int, str] = {}

        def attempt(shard: _Shard) -> None:
            try:
                values.append(self._invoke_shard(shard, op, fn, deadline=deadline))
            except _ShardFailure as error:
                lost[shard.index] = error.reason

        self._map_pool(shards, attempt)
        if lost:
            raise _FanoutFailure(lost)
        return values

    @staticmethod
    def _drop_lost(
        live: List[_Shard], failure: _FanoutFailure, failed: Dict[int, str]
    ) -> List[_Shard]:
        """Shrink ``live`` by the shards a pass lost; guards non-progress.

        A :class:`_FanoutFailure` naming no live shard would rerun the same
        pass forever, so it escalates to total unavailability instead.
        """
        failed.update(failure.failures)
        lost = set(failure.failures)
        remaining = [shard for shard in live if shard.index not in lost]
        if len(remaining) == len(live):
            return []
        return remaining

    def _coverage(
        self, answered: Sequence[_Shard], failed: Dict[int, str]
    ) -> Coverage:
        """Describe which shards produced this answer, at which epochs."""
        return Coverage(
            total_shards=len(self._shards),
            answered=tuple(shard.index for shard in answered),
            failed=tuple(sorted(failed)),
            reasons=tuple(sorted(failed.items())),
            epochs=tuple(
                (shard.index, shard.db.tree.mutations) for shard in answered
            ),
            epoch=self.epoch,
        )

    def _unavailable(self, failed: Dict[int, str]) -> ShardUnavailableError:
        # The longest remaining breaker cool-off, else one retry base delay.
        retry_after = max(shard.breaker.retry_after_ms() for shard in self._shards)
        if retry_after <= 0.0:
            retry_after = self.config.shard_retry_base_ms
        return ShardUnavailableError(
            f"shards {sorted(failed)} unavailable",
            retry_after_ms=retry_after,
            shards=sorted(failed),
            reasons=failed,
        )

    def _shed_fail_closed(self, bucket: Sequence[QueryRequest]):
        """Fast-fail a fail-closed bucket while breakers are still open.

        Uses the non-mutating ``shedding()`` check, so the bucket is shed in
        well under a millisecond without touching a shard or consuming
        half-open probe slots.  Returns ``None`` when any member
        tolerates a partial answer (the bucket then runs normally and
        per-request finalization sorts the slots out).
        """
        if not all(request.require_full for request in bucket):
            return None
        shedding = {
            shard.index: "circuit breaker open"
            for shard in self._shards
            if shard.breaker.shedding()
        }
        if not shedding:
            return None
        self.metrics.increment(MetricsCollector.BREAKER_SHED, len(shedding))
        return [self._unavailable(shedding)] * len(bucket)

    def _finalize_slot(self, request: QueryRequest, result):
        """Apply the request's partial-tolerance contract to one result slot."""
        coverage = getattr(result, "coverage", None)
        if coverage is None or coverage.complete:
            return result
        if request.require_full:
            return self._unavailable(dict(coverage.reasons))
        self.metrics.increment(MetricsCollector.PARTIAL_RESULTS)
        return result

    # ------------------------------------------------------------------
    # How a query meets N shards: one combinator and one bucket wrapper
    # ------------------------------------------------------------------
    def _coupled(
        self,
        run_pass: Callable[[List[_Shard], Callable[[str, Callable], List]], List],
        deadline=None,
    ) -> List:
        """A family's pass over the live shards; rerun on the survivors.

        ``run_pass(live, fan_out)`` answers against exactly the shards in
        ``live``, whose ``fan_out(op, fn)`` is the strict map
        (:meth:`_map_strict`), under their read locks for the whole pass —
        globally bootstrapped radii, a global box set or a sweep's chained
        sub-queries are only valid against the one snapshot they were
        derived from.  A shard lost mid-pass cannot simply be dropped from
        the answer (a dead shard's nominee may have set a radius that
        over-prunes a survivor), so the whole pass reruns against the
        survivors: the partial answer is exactly what a fresh query against
        only those shards would return, with coverage naming the lost ones.
        A range pass, whose shards answer independently, reruns too, and
        reads the survivors' objects again.
        """
        with self._admit_shards() as (live, failed):
            while live:
                try:
                    with self._read_locked(live):
                        results = run_pass(
                            live, partial(self._map_strict, live, deadline=deadline)
                        )
                        coverage = self._coverage(live, failed)
                except _FanoutFailure as failure:
                    live = self._drop_lost(live, failure, failed)
                    continue
                for result in results:
                    result.coverage = coverage
                return results
        raise self._unavailable(failed)

    def _answer_bucket(
        self,
        bucket: Sequence[QueryRequest],
        units: Sequence[Sequence[QueryRequest]],
        run_pass: Callable[..., List],
        deadline=None,
    ) -> List:
        """The failure contract every bucket hook shares.

        ``units`` splits the bucket into the request groups one pass answers
        (the whole bucket for a shared pass, one request each for the
        sweep), and ``run_pass(unit, live, fan_out)`` is that pass, run
        through :meth:`_coupled`.  Sheds a fail-closed bucket while breakers
        are open, turns total shard loss into per-slot errors, and finalizes
        every slot against its request's partial-tolerance contract (count a
        partial / swap in a ShardUnavailableError for ``require_full``).
        """
        shed = self._shed_fail_closed(bucket)
        if shed is not None:
            return shed
        results: List = []
        for unit in units:
            try:
                results.extend(self._coupled(partial(run_pass, unit), deadline))
            except ShardUnavailableError as error:
                results.extend([error] * len(unit))
        return [self._finalize_slot(r, result) for r, result in zip(bucket, results)]

    # Bucket hooks (see repro.core.requests): each runs its family's pass
    # over the live shards through _answer_bucket.
    def _execute_aknn_bucket(
        self,
        bucket: Sequence[AknnRequest],
        rng: Optional[np.random.Generator],
        deadline=None,
    ) -> List:
        first = bucket[0]
        return self._answer_bucket(
            bucket, [bucket],
            lambda unit, live, fan_out: aknn_bucket_pass(
                self._rep_index, live, fan_out, [request.query for request in unit],
                first.k, first.alpha, first.method.value, self.config, self.metrics,
                rng=rng, deadline=deadline,
            ),
            deadline,
        )

    def _execute_range_bucket(
        self,
        bucket: Sequence[RangeRequest],
        rng: Optional[np.random.Generator],
        deadline=None,
    ) -> List:
        return self._answer_bucket(
            bucket, [bucket],
            lambda unit, live, fan_out: range_pass(
                live, fan_out, [request.query for request in unit], unit[0].alpha,
                [request.radius for request in unit], self.config, rng,
                deadline=deadline,
            ),
            deadline,
        )

    def _execute_sweep_bucket(
        self,
        bucket: Sequence[SweepRequest],
        rng: Optional[np.random.Generator],
        deadline=None,
    ) -> List:
        return self._answer_bucket(
            bucket, [[request] for request in bucket],
            lambda unit, live, fan_out: [
                sweep_pass(
                    self._rep_index, live, fan_out, self.config,
                    unit[0].query, unit[0].k, unit[0].alpha_range,
                    method=unit[0].method.value, aknn_method=unit[0].aknn_method.value,
                    rng=rng, deadline=deadline,
                )
            ],
            deadline,
        )

    def _execute_reverse_bucket(
        self,
        bucket: Sequence[ReverseRequest],
        rng: Optional[np.random.Generator],
        deadline=None,
    ) -> List:
        first = bucket[0]
        return self._answer_bucket(
            bucket, [bucket],
            lambda unit, live, fan_out: reverse_bucket_pass(
                self._rep_index, live, fan_out, [request.query for request in unit],
                first.k, first.alpha, self.config, self.metrics, rng=rng,
                deadline=deadline,
            ),
            deadline,
        )

    # ------------------------------------------------------------------
    # Live updates
    # ------------------------------------------------------------------
    def insert(
        self,
        obj: FuzzyObject,
        rng: Optional[np.random.Generator] = None,
    ) -> int:
        """Add one object to the running database; returns its id.

        The owning shard is chosen by the placement policy; the insert holds
        that shard's write lock, so concurrent queries see either the old or
        the new index state, never a partial mutation.  The object's geometry
        is validated first — a non-finite support centre would otherwise be
        mis-routed (or poison distance evaluations) after the owner map and
        id watermark were already touched.  An explicit id below the id
        watermark (stored now, or deleted) is rejected with
        :class:`~repro.exceptions.StorageError`.
        """
        center = obj.require_finite().support_mbr().center
        # Ids are handed out and applied in one order, so each shard sees its
        # ids ascending (a shard, too, rejects an id below its watermark).
        with self._insert_lock:
            with self._admin_lock:
                if obj.object_id is None:
                    object_id = self._next_id
                    obj = obj.with_id(object_id)
                else:
                    object_id = int(obj.object_id)
                    if object_id < self._next_id:
                        raise StorageError(
                            f"object id {object_id} is below the id watermark "
                            f"{self._next_id}: ids are never recycled"
                        )
                self._next_id = object_id + 1
            shard_index = self.placement.shard_for(object_id, center)
            shard = self._shards[shard_index]
            with shard.lock.write():
                shard.db.insert(obj, rng=rng)
                # Published before readers are let back in: a caller that saw
                # the object in an answer can always get_object / delete it
                # (lock order: insert, shard write, then admin; nothing takes
                # them the other way round).
                with self._admin_lock:
                    self._owners[object_id] = shard_index
                    self.metrics.increment(MetricsCollector.LIVE_INSERTS)
        self._epoch.advance()
        self._notify_insert(obj)
        return object_id

    def delete(self, object_id: int) -> None:
        """Remove one object from the running database."""
        object_id = int(object_id)
        shard = self._owner_shard(object_id)
        with shard.lock.write():
            shard.db.delete(object_id)
        with self._admin_lock:
            self._owners.pop(object_id, None)
            self.metrics.increment(MetricsCollector.LIVE_DELETES)
        self._epoch.advance()
        self._notify_delete(object_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(shard.db) for shard in self._shards)

    def object_ids(self) -> List[int]:
        """Ids of every stored object, across all shards."""
        with self._admin_lock:
            return sorted(self._owners)

    def get_object(self, object_id: int) -> FuzzyObject:
        """Probe one object from its owning shard's store."""
        shard = self._owner_shard(object_id)
        with shard.lock.read():
            return shard.db.get_object(object_id)

    def reset_statistics(self) -> None:
        """Zero every shard store's access counters."""
        for shard in self._shards:
            shard.db.reset_statistics()

    @property
    def object_accesses(self) -> int:
        """Total object accesses across shards since the last reset."""
        return sum(shard.db.object_accesses for shard in self._shards)

    def validate(self) -> None:
        """Check per-shard index invariants and owner-map consistency."""
        for shard in self._shards:
            shard.db.validate()
        indexed = {
            object_id for shard in self._shards for object_id in shard.db.object_ids()
        }
        with self._admin_lock:
            owned = set(self._owners)
        if indexed != owned:
            raise StorageError(
                f"owner map drifted: {len(owned)} owned vs {len(indexed)} indexed"
            )

    def close(self) -> None:
        """Close every shard store."""
        for shard in self._shards:
            shard.db.close()
