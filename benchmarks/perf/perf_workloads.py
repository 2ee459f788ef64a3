"""The four workloads: inputs from a seed, set-up, fixed blocks of work, checks.

Every workload does a *fixed amount of work* for a given ``--seconds`` (the
op counts below are sized so that work takes about that long on a 2-core
box), split into at least 20 equal blocks; it never runs "until the time is
up", so every count repeats exactly for a seed.  One driver thread generates
all load; the program adds its coalescer flusher and two fan-out threads.

The datasets, query pools and the objects a run inserts are a *fixture*
(drawn from ``FIXTURE_SEED``); ``--seed`` draws the schedule — which query
goes into which wave, block and batch, in which order objects are inserted
and deleted.  Every seed therefore does the same multiset of work in a
different interleaving, which is what lets the paper's access count carry a
bound of half a percent across seeds.
"""

from __future__ import annotations

import contextlib
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import RuntimeConfig
from repro.core.database import FuzzyDatabase
from repro.core.requests import AknnRequest, RangeRequest, ReverseRequest, SweepRequest
from repro.datasets.synthetic import (
    SyntheticDatasetConfig,
    generate_synthetic_dataset,
    generate_synthetic_object,
)
from repro.exceptions import ReproError, ServiceOverloadedError
from repro.service.query_service import QueryService
from repro.service.sharded import ShardedDatabase

from perf_harness import BlockTimes, Oracle, percentile, run_open_loop

FIXTURE_SEED = 20100606
SHARDS = 2
SLO_MS = 50.0
MIN_BLOCKS = 20
CHECKED_ANSWERS = 32


OPEN_LOOP_METRICS = (
    "service.query_service.queue_wait_ms_p50",
    "service.query_service.batch_size_mean",
    "service.query_service.slo_miss_frac",
    "service.query_service.shed_frac",
    "harness.generator_late_ms_p99",
)


def scaled(base: int, seconds: float) -> int:
    """``base`` units of work per 10 s of ``--seconds``."""
    return max(1, round(base * seconds / 10.0))


def make_objects(rng: np.random.Generator, n: int, points: int) -> list:
    return generate_synthetic_dataset(
        SyntheticDatasetConfig(n_objects=n, points_per_object=points), rng=rng
    )


def make_queries(rng: np.random.Generator, n: int, points: int) -> list:
    return [
        generate_synthetic_object(rng.random(2) * 100.0, rng, points_per_object=points)
        for _ in range(n)
    ]


def dealt(rng: np.random.Generator, population: int, hands: int, size: int) -> List[np.ndarray]:
    """``hands`` hands of ``size`` indices dealt from reshuffled decks of
    ``population``: every index is used equally often (to within one)."""
    cards: List[int] = []
    while len(cards) < hands * size:
        cards.extend(rng.permutation(population).tolist())
    return [np.asarray(cards[i * size : (i + 1) * size]) for i in range(hands)]


def shard_dbs(db) -> List[FuzzyDatabase]:
    """The plain databases under an engine (the engine itself if unsharded)."""
    if isinstance(db, ShardedDatabase):
        return [shard.db for shard in db._shards]
    return [db]


class Workload:
    """Base class: subclasses fill in the five steps the runner drives."""

    name = ""
    # What one latency sample is, for the printed sample count.
    sample_unit = "op"
    # Whether the phase after the blocks is traced with request spans.
    request_spans_after_blocks = False

    def __init__(self, seed: int, seconds: float, quick: bool, workdir: Path) -> None:
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.quick = bool(quick)
        self.workdir = Path(workdir)
        self.tracer = None
        self.db = None
        self.service: Optional[QueryService] = None
        self.latencies_ms: List[float] = []
        # Single-op views (only durable_churn has writes and service reads).
        self.insert_ms: List[float] = []
        self.delete_ms: List[float] = []
        self.read_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.oracle: Optional[Oracle] = None
        self.blocks: Sequence = ()
        self.ops_per_block = 0
        self.n_objects = 0
        self.extras: Dict[str, float] = {}
        # Per-block op counts by kind (writes, range_ops, ...) for per-op ratios.
        self.block_facts: Dict[str, float] = {}
        self.blocks_run = 0

    # -- steps ---------------------------------------------------------
    def generate(self) -> None:
        """Make every input from the seed (not part of set-up time)."""
        raise NotImplementedError

    def setup(self, attempt: int) -> None:
        """Generated objects -> engine ready and warmed."""
        raise NotImplementedError

    def teardown(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None
        if self.db is not None:
            self.db.close()
            self.db = None

    def settle(self) -> None:
        """Untimed work after set-up that brings the box to the state the
        measured blocks will keep it in."""

    def run_block(self, index: int) -> None:
        raise NotImplementedError

    def after_blocks(self, traced: bool, times: BlockTimes) -> None:
        """Phases that follow the closed loop (open loop, recovery)."""

    def check(self) -> None:
        """Compare sampled answers with the oracle; append to ``problems``."""
        raise NotImplementedError

    def layer_extras(self, open_report) -> Dict[str, float]:
        """Per-layer metrics of phase ``open``; zero where there is none."""
        return dict.fromkeys(OPEN_LOOP_METRICS, 0.0)

    # -- helpers -------------------------------------------------------
    def fixture_rng(self, tag: int) -> np.random.Generator:
        return np.random.default_rng([FIXTURE_SEED, tag])

    def schedule_rng(self, tag: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, tag])

    def span(self, name: str, ident=None, handoff: bool = False):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, ident, handoff)

    def n_blocks(self, base: int) -> int:
        if self.quick:
            return 4
        return max(MIN_BLOCKS, scaled(base, self.seconds))

    def fresh_dir(self, label: str) -> Path:
        path = self.workdir / label
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def problem(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def raw_counters(self) -> Dict[str, float]:
        """The program's own counters, summed over shards (cumulative)."""
        from repro.fuzzy.fuzzy_object import CUT_CACHE_STATS

        out: Dict[str, float] = {}
        if self.db is None:
            return out
        for name, value in self.db.metrics.as_dict().items():
            out[f"engine.{name}"] = value
        for shard in shard_dbs(self.db):
            if shard is not self.db:
                for name, value in shard.metrics.as_dict().items():
                    out[f"shard.{name}"] = out.get(f"shard.{name}", 0) + value
            stats = shard.store.statistics
            for name in ("object_accesses", "physical_reads", "bytes_read", "cache_hits"):
                out[f"store.{name}"] = out.get(f"store.{name}", 0) + getattr(stats, name)
        out["cut.hits"] = CUT_CACHE_STATS["hits"]
        out["cut.misses"] = CUT_CACHE_STATS["misses"]
        if self.service is not None:
            for name, value in self.service.metrics.as_dict().items():
                out[f"service.{name}"] = value
        return out

    def tree_shape(self) -> Dict[str, float]:
        trees = [shard.tree for shard in shard_dbs(self.db)]
        return {
            "height": max(tree.height for tree in trees),
            "node_count": sum(tree.node_count() for tree in trees),
        }


# ----------------------------------------------------------------------
# serve_aknn: QueryService -> ShardedDatabase -> planner -> batch executor
# ----------------------------------------------------------------------
class ServeAknn(Workload):
    """The read path of the roadmap: coalescer, fan-out and shared traversal
    dominate; the working set fits the buffer pool, so store and exact
    distance are negligible."""

    name = "serve_aknn"
    sample_unit = "open-loop request"
    request_spans_after_blocks = True
    KEYS = ((20, 0.5), (5, 0.8))  # requested 3:1
    WAVES = (0, 0, 0, 1)
    OPEN_RATE = 60.0
    OPEN_SEGMENTS = 6

    def generate(self) -> None:
        fixture, rng = self.fixture_rng(11), self.schedule_rng(11)
        quick = self.quick
        self.n_objects = 240 if quick else 4000
        self.points = 16 if quick else 40
        self.max_batch = 16 if quick else 64
        pool = 96 if quick else 1024
        self.objects = make_objects(fixture, self.n_objects, self.points)
        self.queries = make_queries(fixture, pool, self.points)
        self.requests = [
            [AknnRequest(q, k=k, alpha=alpha) for q in self.queries]
            for k, alpha in self.KEYS
        ]
        # Phase sat: waves of exactly max_batch requests of one bucket key, so
        # every flush is size-triggered and batch composition repeats.
        n_blocks = self.n_blocks(36)
        # The fixture says which queries share a wave (what the executor
        # dedupes depends on it); the seed orders the waves and their members.
        waves = {}
        for key in (0, 1):
            dealt_waves = dealt(
                fixture, pool, n_blocks * self.WAVES.count(key), self.max_batch
            )
            waves[key] = [
                rng.permutation(dealt_waves[i]) for i in rng.permutation(len(dealt_waves))
            ]
        self.blocks = [
            [(key, waves[key].pop()) for key in self.WAVES] for _ in range(n_blocks)
        ]
        self.ops_per_block = len(self.WAVES) * self.max_batch
        # Phase open: a fixed-rate schedule, keys 3:1, whatever the service does.
        per_segment = 10 if quick else scaled(int(self.OPEN_RATE * 0.9), self.seconds)
        n_open = per_segment * self.OPEN_SEGMENTS
        self.open_offsets = np.arange(per_segment) / self.OPEN_RATE
        self.open_keys = np.asarray(self.WAVES)[np.arange(n_open) % len(self.WAVES)]
        self.open_queries = np.concatenate(dealt(rng, pool, n_open, 1))
        # One request object per scheduled request: its id() is the request id
        # that joins a submit span to the flush that carried it.
        self.open_requests = [
            AknnRequest(self.queries[q], k=self.KEYS[key][0], alpha=self.KEYS[key][1])
            for key, q in zip(self.open_keys, self.open_queries)
        ]
        self.oracle = Oracle(self.objects)
        self.sat_samples: list = []
        self.open_results: list = []
        self.open_service = None

    def setup(self, attempt: int) -> None:
        config = RuntimeConfig(cache_capacity=4096, service_shards=SHARDS)
        self.db = ShardedDatabase.build(self.objects, n_shards=SHARDS, config=config)
        # Phase sat must flush by size only: a window that cannot expire
        # during a wave keeps a descheduled driver from splitting a batch.
        self.service = QueryService(
            self.db, window_ms=600_000.0, max_batch=self.max_batch
        ).start()
        self.open_service = QueryService(self.db).start()
        for key in (0, 1):
            self._wave(key, range(self.max_batch))
        for request in self.requests[0][:8]:
            self.open_service.execute(request)
        self.warm_flushes = self.service.stats().batches_flushed

    def teardown(self) -> None:
        if self.open_service is not None:
            self.open_service.stop()
            self.open_service = None
        super().teardown()

    def settle(self) -> None:
        # Set-up is single-threaded; the waves keep both cores busy, and the
        # box slows down a few seconds into that.  Measure the steady state.
        for _ in range(2 if self.quick else 12):
            for key in self.WAVES:
                self._wave(key, range(self.max_batch))
        self.warm_flushes = self.service.stats().batches_flushed

    def _wave(self, key: int, indices) -> list:
        requests = self.requests[key]
        with self.span("service.query_service:await", handoff=True):
            futures = [
                self.service.submit_request(requests[int(i)]) for i in indices
            ]
            return [future.result() for future in futures]

    def run_block(self, index: int) -> None:
        for wave, (key, indices) in enumerate(self.blocks[index]):
            self.attempted += len(indices)
            try:
                results = self._wave(key, indices)
            except ReproError as error:
                self.failed += len(indices)
                self.problems.append(f"sat wave failed: {error!r}")
                continue
            if wave == 0 and len(self.sat_samples) < CHECKED_ANSWERS:
                for i, result in list(zip(indices, results))[:4]:
                    self.sat_samples.append((key, int(i), result.object_ids))

    def after_blocks(self, traced: bool, times: BlockTimes) -> None:
        """Phase open, in segments so each is timed beside a speed probe."""
        requests = self.open_requests
        segments = self.OPEN_SEGMENTS // 2 if traced else self.OPEN_SEGMENTS
        per_segment = len(self.open_offsets)
        if self.tracer is not None:
            for i, request in enumerate(requests):
                self.tracer.request_ids[id(request)] = i
        self.open_before = self.open_service.stats()
        self.open_results = []

        def segment(first: int) -> None:
            result = run_open_loop(
                lambda i: self.open_service.submit_request(requests[first + i]),
                self.open_offsets,
            )
            self.open_results.append(result)
            self.attempted += per_segment
            self.failed += result.failed
            self.latencies_ms.extend(result.latency_ms(SLO_MS))

        for index in range(segments):
            times.run(lambda: segment(index * per_segment), self.latencies_ms)

    def check(self) -> None:
        stats = self.service.stats()
        waves = stats.batches_flushed - self.warm_flushes
        expected = sum(len(block) for block in self.blocks[: self.blocks_run])
        if waves != expected or stats.max_batch_size != self.max_batch:
            self.problem(
                f"phase sat flushed {waves} batches (max {stats.max_batch_size}), "
                f"expected {expected} of exactly {self.max_batch}"
            )
        for key, index, ids in self.sat_samples:
            k, alpha = self.KEYS[key]
            if not self.oracle.check_knn(ids, self.queries[index], k, alpha):
                self.problem(f"sat answer for query {index} key {key} is wrong")
        answers = [r for segment in self.open_results for r in segment.results]
        for i in range(0, len(answers), max(1, len(answers) // 16)):
            if answers[i] is None:
                continue
            k, alpha = self.KEYS[self.open_keys[i]]
            query = self.queries[self.open_queries[i]]
            if not self.oracle.check_knn(answers[i].object_ids, query, k, alpha):
                self.problem(f"open-loop answer {i} is wrong")


    def layer_extras(self, open_report) -> Dict[str, float]:
        from perf_layers import queue_wait_ms, ratio

        errors = [e for segment in self.open_results for e in segment.errors]
        late_ms = [ms for segment in self.open_results for ms in segment.late_ms]
        n = len(errors)
        before, after = self.open_before, self.open_service.stats()
        shed = sum(isinstance(e, ServiceOverloadedError) for e in errors)
        return {
            "service.query_service.queue_wait_ms_p50": percentile(
                queue_wait_ms(open_report), 50
            ),
            "service.query_service.batch_size_mean": ratio(
                after.coalesced_queries - before.coalesced_queries,
                after.batches_flushed - before.batches_flushed,
            ),
            "service.query_service.slo_miss_frac": ratio(
                sum(1 for ms in self.latencies_ms if ms >= SLO_MS), n
            ),
            "service.query_service.shed_frac": ratio(shed, n),
            "harness.generator_late_ms_p99": percentile(late_ms, 99),
        }


# ----------------------------------------------------------------------
# heavy_objects: the paper's regime, straight into one FuzzyDatabase
# ----------------------------------------------------------------------
class HeavyObjects(Workload):
    """Many points per object and a buffer pool an eighth of the data:
    physical read, decode, alpha-cut and closest-pair distance carry the
    time; service, sharding and the batch executor do nothing."""

    name = "heavy_objects"
    sample_unit = "query"
    COMBOS = tuple((k, alpha) for alpha in (0.3, 0.5, 0.7, 0.9) for k in (5, 20))

    def generate(self) -> None:
        fixture, rng = self.fixture_rng(22), self.schedule_rng(22)
        quick = self.quick
        self.n_objects = 48 if quick else 320
        self.points = 100 if quick else 800
        self.cache = self.n_objects // 8
        pool = 24 if quick else 320
        per_combo = 2 if quick else 32
        self.objects = make_objects(fixture, self.n_objects, self.points)
        self.queries = make_queries(fixture, pool, self.points)
        n_blocks = self.n_blocks(40)
        # Every block asks each (k, alpha) combination equally often, and
        # each combination works through the whole pool before repeating.
        hands = [dealt(rng, pool, n_blocks, per_combo) for _ in self.COMBOS]
        blocks = []
        for index in range(n_blocks):
            ops = [
                (combo, int(q))
                for combo in range(len(self.COMBOS))
                for q in hands[combo][index]
            ]
            blocks.append([ops[i] for i in rng.permutation(len(ops))])
        self.blocks = blocks
        self.ops_per_block = len(self.COMBOS) * per_combo
        self.requests: Dict[tuple, AknnRequest] = {}
        for block in blocks:
            for combo, q in block:
                if (combo, q) not in self.requests:
                    k, alpha = self.COMBOS[combo]
                    self.requests[(combo, q)] = AknnRequest(
                        self.queries[q], k=k, alpha=alpha
                    )
        self.oracle = Oracle(self.objects)
        self.samples: list = []

    def setup(self, attempt: int) -> None:
        config = RuntimeConfig(cache_capacity=self.cache)
        self.db = FuzzyDatabase.build(
            self.objects, path=self.fresh_dir(f"heavy-{attempt}"), config=config
        )
        for op in self.blocks[0][:16]:
            self.db.execute(self.requests[op])

    def run_block(self, index: int) -> None:
        db, requests, latencies = self.db, self.requests, self.latencies_ms
        clock = time.perf_counter
        for op in self.blocks[index]:
            self.attempted += 1
            start = clock()
            try:
                result = db.execute(requests[op])
            except ReproError as error:
                self.problem(f"query {op} failed: {error!r}")
                latencies.append(SLO_MS)
                continue
            latencies.append((clock() - start) * 1e3)
            if len(self.samples) < CHECKED_ANSWERS:
                self.samples.append((op, result.object_ids))

    def check(self) -> None:
        for (combo, q), ids in self.samples:
            k, alpha = self.COMBOS[combo]
            if not self.oracle.check_knn(ids, self.queries[q], k, alpha):
                self.problem(f"answer for query {q} combo {combo} is wrong")


# ----------------------------------------------------------------------
# family_batches: mixed-type batches straight into ShardedDatabase
# ----------------------------------------------------------------------
class FamilyBatches(Workload):
    """The only place the looped range / sweep buckets, the all-pairs
    reverse filter and planner grouping do the work.  Per-batch counts are
    constants chosen so range, sweep and reverse each hold 25-40 % of batch
    time at this size."""

    name = "family_batches"
    sample_unit = "batch"
    RANGE_RADII = (1.5, 4.0)
    AKNN_KS = (5, 20)
    ALPHA = 0.5
    SWEEP = (8, (0.45, 0.55))
    REVERSE_K = 4

    def generate(self) -> None:
        fixture, rng = self.fixture_rng(33), self.schedule_rng(33)
        quick = self.quick
        self.n_objects = 160 if quick else 500
        self.points = 16 if quick else 30
        self.mix = (4, 1, 1, 2) if quick else (30, 1, 1, 2)
        per_block = 1 if quick else 12
        self.objects = make_objects(fixture, self.n_objects, self.points)
        n_range, n_sweep, n_reverse, n_aknn = self.mix
        n_blocks = self.n_blocks(20)
        batches = []
        for _ in range(n_blocks * per_block):
            # Every request gets its own query object, so no batch is
            # answered from another's distance-profile memo.
            queries = make_queries(fixture, sum(self.mix), self.points)
            batch = []
            for i in range(n_range):
                radius = self.RANGE_RADII[i % 2]
                batch.append(RangeRequest(queries.pop(), alpha=self.ALPHA, radius=radius))
            for _ in range(n_sweep):
                k, alpha_range = self.SWEEP
                batch.append(SweepRequest(queries.pop(), k=k, alpha_range=alpha_range))
            for _ in range(n_reverse):
                batch.append(
                    ReverseRequest(queries.pop(), k=self.REVERSE_K, alpha=self.ALPHA)
                )
            for i in range(n_aknn):
                batch.append(
                    AknnRequest(queries.pop(), k=self.AKNN_KS[i % 2], alpha=self.ALPHA)
                )
            batches.append(batch)
        # The seed orders the batches and the requests inside each.
        order = rng.permutation(len(batches))
        shuffled = [
            [batches[b][i] for i in rng.permutation(len(batches[b]))] for b in order
        ]
        self.blocks = [
            shuffled[i * per_block : (i + 1) * per_block] for i in range(n_blocks)
        ]
        self.ops_per_block = per_block * sum(self.mix)
        self.block_facts = {
            "range_ops": per_block * n_range,
            "sweep_ops": per_block * n_sweep,
            "reverse_ops": per_block * n_reverse,
        }
        self.oracle = Oracle(self.objects)
        self.samples: Dict[str, list] = {"range": [], "sweep": [], "reverse": [], "aknn": []}

    def setup(self, attempt: int) -> None:
        config = RuntimeConfig(cache_capacity=4096, service_shards=SHARDS)
        self.db = ShardedDatabase.build(self.objects, n_shards=SHARDS, config=config)
        self.db.execute_batch(self.blocks[0][0])

    def run_block(self, index: int) -> None:
        clock = time.perf_counter
        for batch in self.blocks[index]:
            self.attempted += len(batch)
            start = clock()
            try:
                with self.span("harness:batch"):
                    results = self.db.execute_batch(batch)
            except ReproError as error:
                self.failed += len(batch)
                self.problems.append(f"batch failed: {error!r}")
                self.latencies_ms.append(SLO_MS)
                continue
            self.latencies_ms.append((clock() - start) * 1e3)
            for request, result in zip(batch, results):
                family = type(request).__name__[: -len("Request")].lower()
                if len(self.samples[family]) < CHECKED_ANSWERS // 4:
                    self.samples[family].append((request, result))

    def check(self) -> None:
        oracle = self.oracle
        for request, result in self.samples["aknn"]:
            if not oracle.check_knn(result.object_ids, request.query, request.k, request.alpha):
                self.problem("aknn answer in a mixed batch is wrong")
        for request, result in self.samples["range"]:
            if not oracle.check_range(
                result.object_ids, request.query, request.alpha, request.radius
            ):
                self.problem("range answer in a mixed batch is wrong")
        for request, result in self.samples["reverse"]:
            if not oracle.check_reverse(
                result.object_ids, request.query, request.k, request.alpha
            ):
                self.problem("reverse answer in a mixed batch is wrong")
        for request, result in self.samples["sweep"]:
            # A sweep answer says, per object, at which thresholds it is
            # among the k nearest; sample thresholds strictly inside a step.
            low, high = request.alpha_range
            for alpha in (low + 0.013, (low + high) / 2 + 0.0007, high - 0.011):
                if not oracle.check_knn(
                    result.qualifying_at(alpha), request.query, request.k, alpha
                ):
                    self.problem(f"sweep answer at alpha={alpha} is wrong")


# ----------------------------------------------------------------------
# durable_churn: writes beside reads, WAL + snapshots + standing queries
# ----------------------------------------------------------------------
class DurableChurn(Workload):
    """WAL append, summary build, R-tree insert / lazy delete, SoA
    maintenance, listener fan-out, snapshots and compaction exist nowhere
    else; a read-side layout win that taxes maintenance shows up here.

    WAL sync policy is ``"flush"`` (stated and fixed).  A latency sample is a
    *write transaction*: five consecutive steps' insert and delete acks (a
    client moving five objects), reads excluded.
    """

    name = "durable_churn"
    sample_unit = "write transaction"
    TX_STEPS = 5
    K = 10
    ALPHA = 0.5
    RADIUS = 3.0

    def generate(self) -> None:
        fixture, rng = self.fixture_rng(44), self.schedule_rng(44)
        quick = self.quick
        self.points = 16 if quick else 40
        self.n_subs = 8 if quick else 64
        # Small blocks: the median block is then one without a snapshot or a
        # compaction in it, and the stalls show in lat_p90_ms instead.
        tx_per_block = 2 if quick else 5
        n_blocks = self.n_blocks(72)
        steps = n_blocks * tx_per_block * self.TX_STEPS
        self.steps = steps
        # Each step deletes one initial object, never an arrival.
        self.n_objects = max(200 if quick else 2000, steps + steps // 9)
        # >= 5 snapshot/truncate cycles per shard: a step logs two records
        # and the two shards share them about evenly.
        self.snapshot_every = max(8, steps // 5)
        self.objects = make_objects(fixture, self.n_objects, self.points)
        pool = make_queries(fixture, 64, self.points)
        sub_queries = make_queries(fixture, self.n_subs, self.points)
        arrivals = make_queries(fixture, steps, self.points)
        departures = fixture.permutation(self.n_objects)[:steps]
        # The fixture fixes the write trajectory (which object arrives and
        # which leaves at each step); the seed picks the query of each read.
        self.inserts = arrivals
        self.victims = departures.tolist()
        self.reads = [
            AknnRequest(pool[i], k=self.K, alpha=self.ALPHA)
            for i in np.concatenate(dealt(rng, len(pool), steps // 2 + 4, 1))
        ]
        self.sub_requests = [
            AknnRequest(q, k=self.K, alpha=self.ALPHA)
            if i % 2 == 0
            else RangeRequest(q, alpha=self.ALPHA, radius=self.RADIUS)
            for i, q in enumerate(sub_queries)
        ]
        steps_per_block = tx_per_block * self.TX_STEPS
        self.blocks = [
            range(b * steps_per_block, (b + 1) * steps_per_block)
            for b in range(n_blocks)
        ]
        # insert + delete every step, one read every second step
        self.ops_per_block = steps_per_block * 2 + steps_per_block // 2
        self.block_facts = {
            "writes": steps_per_block * 2,
            "inserts": steps_per_block,
            "deletes": steps_per_block,
        }
        self.oracle = Oracle(self.objects)
        self.read_samples: list = []
        self.recovered = None
        self.inserted: list = []

    def setup(self, attempt: int) -> None:
        config = RuntimeConfig(
            cache_capacity=4096,
            service_shards=SHARDS,
            wal_sync="flush",
            snapshot_every=self.snapshot_every,
        )
        self.directory = self.fresh_dir(f"churn-{attempt}")
        self.db = ShardedDatabase.build(self.objects, n_shards=SHARDS, config=config)
        self.db.enable_durability(self.directory)
        self.service = QueryService(self.db).start()
        self.deliveries = [self.service.subscribe(r) for r in self.sub_requests]
        self.folded: List[Dict[int, float]] = [dict() for _ in self.deliveries]
        self._drain()
        self.live = set(self.db.object_ids())
        for request in self.reads[:4]:
            self.service.execute(request)
        self._tx_ms = 0.0

    def _drain(self) -> None:
        for state, delivery in zip(self.folded, self.deliveries):
            for delta in delivery.drain():
                for object_id in delta.removed:
                    state.pop(object_id, None)
                for object_id, distance in delta.added:
                    state[object_id] = distance

    def run_block(self, index: int) -> None:
        service, live, clock = self.service, self.live, time.perf_counter
        for step in self.blocks[index]:
            obj = self.inserts[step]
            victim = self.victims[step]
            self.attempted += 2
            try:
                with self.span("harness:write"):
                    t0 = clock()
                    new_id = service.insert(obj)
                    t1 = clock()
                    service.delete(victim)
                    t2 = clock()
            except ReproError as error:
                self.problem(f"write at step {step} failed: {error!r}")
                continue
            live.discard(victim)
            live.add(new_id)
            self.inserted.append((new_id, step))
            self.insert_ms.append((t1 - t0) * 1e3)
            self.delete_ms.append((t2 - t1) * 1e3)
            self._tx_ms += (t2 - t0) * 1e3
            if step % self.TX_STEPS == self.TX_STEPS - 1:
                self.latencies_ms.append(self._tx_ms)
                self._tx_ms = 0.0
            if step % 2 == 1:
                self.attempted += 1
                request = self.reads[step // 2]
                try:
                    with self.span("service.query_service:await", handoff=True):
                        t3 = clock()
                        result = service.execute(request)
                        self.read_ms.append((clock() - t3) * 1e3)
                except ReproError as error:
                    self.problem(f"read at step {step} failed: {error!r}")
                    continue
                if len(self.read_samples) < CHECKED_ANSWERS and step % 8 == 1:
                    self.read_samples.append((request, result.object_ids, set(live)))
            self._drain()

    def after_blocks(self, traced: bool, times: BlockTimes) -> None:
        """Stop, recover from a crash image of the directory, compare."""
        db = self.db
        probes = self.reads[:16]
        before = [sorted(db.execute(r).object_ids) for r in probes]
        for state, request in zip(self.folded, self.sub_requests):
            if set(state) != set(db.execute(request).object_ids):
                self.problem("a folded subscription differs from re-execution")
        self.service.stop()
        self.service = None
        # The crash image: the bytes flushed so far, copied while the
        # database is still open — no final snapshot, so the WAL tail since
        # the last cycle has to be replayed.
        image = self.workdir / "churn-image"
        if image.exists():
            shutil.rmtree(image)
        shutil.copytree(self.directory, image)
        start = time.perf_counter()
        with self.span("harness:recover"):
            self.recovered = ShardedDatabase.recover(image, config=db.config)
        self.extras["recover_s"] = time.perf_counter() - start
        self.extras["wal_replayed"] = self.recovered.metrics.get("wal_replayed")
        if sorted(self.recovered.object_ids()) != sorted(self.live):
            self.problem("recovered id set differs from the acknowledged live set")
        after = [sorted(self.recovered.execute(r).object_ids) for r in probes]
        if before != after:
            self.problem("queries answer differently after recovery")

    def teardown(self) -> None:
        if self.recovered is not None:
            self.recovered.close()
            self.recovered = None
        super().teardown()

    def check(self) -> None:
        for new_id, step in self.inserted:
            self.oracle.add(self.inserts[step].with_id(new_id))
        for request, ids, live in self.read_samples:
            if not self.oracle.check_knn(ids, request.query, request.k, request.alpha, live=live):
                self.problem("a read during churn is wrong")


WORKLOADS = {
    cls.name: cls for cls in (ServeAknn, HeavyObjects, FamilyBatches, DurableChurn)
}
