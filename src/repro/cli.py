"""Command-line interface.

Installed as the ``fuzzy-knn`` console script (see ``pyproject.toml``), also
runnable as ``python -m repro.cli``.  Subcommands:

``generate``
    Build a dataset, index it, and persist the database to a directory.

``aknn`` / ``rknn`` / ``reverse``
    Build one typed request (``AknnRequest`` / ``SweepRequest`` /
    ``ReverseRequest``; see :mod:`repro.core.requests`) with a freshly
    generated query object, execute it against either a saved database or an
    in-memory one generated on the fly, and print the result together with
    its cost counters.  ``rknn`` is the paper's *alpha-range* kNN sweep;
    ``reverse`` is the reverse AKNN query (monochromatic semantics — which
    objects count the query among their own k nearest neighbours).

``batch``
    Submit a batch of ``AknnRequest`` objects through ``execute_batch``; the
    planner answers the whole bucket with one shared traversal and the
    command reports the aggregate cost plus throughput (queries/sec).

``serve``
    Stand up the sharded query service (partitioned indexes + request
    coalescing) and drive it closed-loop with concurrent clients submitting
    typed requests, reporting sustained queries/sec and p50/p99 latency.
    ``--mix`` interleaves request *types* (AKNN / reverse / range) in one
    workload — the coalescer buckets them by ``bucket_key()`` — and
    ``--update-ops`` mixes live inserts/deletes into the run to exercise the
    epoch machinery.  ``--wal-dir`` makes the shards durable (per-shard
    write-ahead logs + snapshots), ``--subscribers`` registers standing
    queries that receive result deltas from the live updates.

``recover``
    Rebuild a durable database directory after a crash: last snapshot + WAL
    tail replay + one STR bulk load per shard, then validate.

All query subcommands accept ``--stats`` to additionally dump every collected
counter, including cache hit/miss telemetry (object-store buffer pool and
per-object alpha-cut caches).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.core.database import FuzzyDatabase
from repro.core.requests import (
    AknnMethod,
    AknnRequest,
    RangeRequest,
    ReverseRequest,
    SweepMethod,
    SweepRequest,
)
from repro.datasets.builder import build_database
from repro.datasets.queries import generate_query_object

AKNN_CHOICES = [method.value for method in AknnMethod]
SWEEP_CHOICES = [method.value for method in SweepMethod]


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", choices=("synthetic", "cells"), default="synthetic")
    parser.add_argument("--n-objects", type=int, default=1000)
    parser.add_argument("--points-per-object", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--space-size", type=float, default=100.0)


def _add_query_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--database", default=None, help="directory of a saved database")
    _add_dataset_arguments(parser)
    parser.add_argument("--k", type=int, default=20)
    parser.add_argument("--query-seed", type=int, default=99)
    parser.add_argument(
        "--stats",
        action="store_true",
        help="dump every collected counter, including cache hit/miss telemetry",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="fuzzy-knn",
        description="kNN search for fuzzy objects (SIGMOD 2010 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate and persist a database")
    _add_dataset_arguments(generate)
    generate.add_argument("--output", required=True, help="directory for the database")

    aknn = subparsers.add_parser("aknn", help="run one ad-hoc kNN query")
    _add_query_arguments(aknn)
    aknn.add_argument("--alpha", type=float, default=0.5)
    aknn.add_argument("--method", choices=AKNN_CHOICES, default="lb_lp_ub")

    rknn = subparsers.add_parser(
        "rknn",
        help="run one alpha-range kNN query (threshold sweep; NOT reverse kNN)",
        description=(
            "Run the paper's Range kNN query (Definition 5): sweep the "
            "probability threshold over [--alpha-start, --alpha-end] and "
            "report, per qualifying object, the sub-ranges in which it is "
            "among the query's k nearest neighbours.  Despite the shared "
            "initialism, this is not a reverse kNN query — use the "
            "'reverse' subcommand for that."
        ),
    )
    _add_query_arguments(rknn)
    rknn.add_argument("--alpha-start", type=float, default=0.4)
    rknn.add_argument("--alpha-end", type=float, default=0.6)
    rknn.add_argument("--method", choices=SWEEP_CHOICES, default="rss_icr")

    reverse = subparsers.add_parser(
        "reverse",
        help="run one reverse kNN query (who counts the query among their k-NN)",
        description=(
            "Run a reverse AKNN query with monochromatic semantics: every "
            "dataset object A is returned iff the query object would be among "
            "A's k nearest neighbours at threshold --alpha, where A's "
            "neighbours are drawn from the dataset without A itself, plus the "
            "query."
        ),
    )
    _add_query_arguments(reverse)
    reverse.add_argument("--alpha", type=float, default=0.5)

    batch = subparsers.add_parser(
        "batch", help="run a batch of AKNN queries through the vectorized executor"
    )
    _add_query_arguments(batch)
    batch.add_argument("--alpha", type=float, default=0.5)
    batch.add_argument("--n-queries", type=int, default=64)
    batch.add_argument("--method", choices=AKNN_CHOICES, default="lb_lp_ub")

    serve = subparsers.add_parser(
        "serve",
        help="run the sharded query service closed-loop and report QPS + latency",
        description=(
            "Partition the dataset across --shards independent indexes, start "
            "the coalescing QueryService in front of them, and drive it with "
            "--clients concurrent threads submitting --n-requests typed "
            "requests.  --mix selects the request types in the workload "
            "(e.g. --mix aknn,reverse,range submits a mixed-type stream); "
            "the coalescer groups concurrent submissions by their "
            "bucket_key(), so each flushed bucket shares one traversal / "
            "filter pass.  Tuning guide: shards partition the index and "
            "isolate failures, they add no parallelism (a query visits them "
            "in turn on one thread); each client blocks on its request, so "
            "a request flushes as soon as the flusher is free, and requests "
            "that arrive while a flush runs share the next one (more clients, "
            "larger batches).  README's 'Failure "
            "semantics' section describes partial answers, deadlines and "
            "--fault-plan."
        ),
    )
    _add_query_arguments(serve)
    serve.add_argument("--alpha", type=float, default=0.5)
    serve.add_argument("--method", choices=AKNN_CHOICES, default="lb_lp_ub")
    serve.add_argument(
        "--shards", type=int, default=4, help="number of index partitions"
    )
    serve.add_argument(
        "--placement", choices=("hash", "space"), default="hash",
        help="shard placement policy (hash: uniform; space: axis stripes)",
    )
    serve.add_argument(
        "--n-requests", type=int, default=256, help="total requests to serve"
    )
    serve.add_argument(
        "--clients", type=int, default=4, help="concurrent client threads"
    )
    serve.add_argument(
        "--query-pool", type=int, default=64,
        help="number of distinct query objects the clients draw from",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64,
        help="bucket size that triggers an immediate flush",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=1024,
        help="admission-control bound on waiting requests",
    )
    serve.add_argument(
        "--update-ops", type=int, default=0,
        help="live insert+delete pairs applied concurrently with the run",
    )
    serve.add_argument(
        "--mix", default="aknn",
        help=(
            "comma-separated request types the clients draw from "
            "(aknn, reverse, range); e.g. --mix aknn,reverse,range submits "
            "a mixed-type workload through one coalescing surface"
        ),
    )
    serve.add_argument(
        "--radius", type=float, default=5.0,
        help="radius used by range requests in a --mix workload",
    )
    serve.add_argument(
        "--fault-plan", default=None,
        help=(
            "inject faults into the shard fan-out: ';'-separated rules of "
            "key=value pairs, e.g. 'shard=1,kind=raise,count=3;"
            "shard=0,op=aknn_batch,kind=delay,delay_ms=20' "
            "(see repro.service.faults)"
        ),
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline budget in milliseconds (default: none)",
    )
    serve.add_argument(
        "--wal-dir", default=None,
        help=(
            "enable durability: every live mutation is logged to a per-shard "
            "write-ahead log under this directory before it is applied, and "
            "shards snapshot independently ('fuzzy-knn recover' heals the "
            "directory after a crash)"
        ),
    )
    serve.add_argument(
        "--snapshot-every", type=int, default=0,
        help=(
            "snapshot a shard and truncate its WAL every N logged mutations "
            "(0: snapshot only on clean shutdown)"
        ),
    )
    serve.add_argument(
        "--subscribers", type=int, default=0,
        help=(
            "standing kNN queries registered up front; live updates push "
            "result deltas to their streams and the run reports how many "
            "deltas were produced"
        ),
    )

    recover = subparsers.add_parser(
        "recover",
        help="rebuild a durable database directory after a crash",
        description=(
            "Read the directory's manifest, load the last snapshot, replay "
            "the WAL tail (idempotently — ids are never recycled), rebuild "
            "the R-tree with one STR bulk-load pass per shard, and validate "
            "the result.  Works on both single-node directories "
            "(FuzzyDatabase.enable_durability) and sharded ones "
            "(per-shard subdirectories; shards recover independently)."
        ),
    )
    recover.add_argument("directory", help="durable database directory (holds MANIFEST.json)")
    recover.add_argument(
        "--stats", action="store_true",
        help="dump every recovery counter",
    )
    return parser


def _print_stats_details(database: FuzzyDatabase, stats) -> None:
    """Dump every collected counter plus cache hit/miss telemetry."""
    from repro.fuzzy.fuzzy_object import CUT_CACHE_STATS

    print("counters:")
    for name, value in sorted(stats.as_dict().items()):
        print(f"  {name}: {value}")
    store = database.store.statistics
    print(
        f"store cache: {store.cache_hits} hits, "
        f"{store.physical_reads} physical reads"
    )
    print(
        f"alpha-cut cache: {CUT_CACHE_STATS['hits']} hits, "
        f"{CUT_CACHE_STATS['misses']} misses"
    )


def _load_or_build_database(args: argparse.Namespace) -> FuzzyDatabase:
    if args.database:
        return FuzzyDatabase.open(args.database)
    return build_database(
        kind=args.kind,
        n_objects=args.n_objects,
        points_per_object=args.points_per_object,
        seed=args.seed,
        space_size=args.space_size,
    )


def _command_generate(args: argparse.Namespace) -> int:
    database = build_database(
        kind=args.kind,
        n_objects=args.n_objects,
        points_per_object=args.points_per_object,
        seed=args.seed,
        space_size=args.space_size,
        path=args.output,
    )
    database.save(args.output)
    print(
        f"wrote {len(database)} {args.kind} objects "
        f"({args.points_per_object} points each) to {args.output}"
    )
    database.close()
    return 0


def _command_aknn(args: argparse.Namespace) -> int:
    database = _load_or_build_database(args)
    rng = np.random.default_rng(args.query_seed)
    query = generate_query_object(
        rng, kind=args.kind, space_size=args.space_size,
        points_per_object=args.points_per_object,
    )
    result = database.execute(
        AknnRequest(query, k=args.k, alpha=args.alpha, method=args.method)
    )
    print(f"AKNN(k={args.k}, alpha={args.alpha}, method={args.method})")
    for neighbor in result.sorted_by_distance():
        distance = (
            f"{neighbor.distance:.4f}" if neighbor.distance is not None
            else f"<= {neighbor.upper_bound:.4f}"
        )
        print(f"  object {neighbor.object_id:>6}  distance {distance}")
    print(
        f"cost: {result.stats.object_accesses} object accesses, "
        f"{result.stats.node_accesses} node accesses, "
        f"{result.stats.elapsed_seconds:.3f}s"
    )
    if args.stats:
        _print_stats_details(database, result.stats)
    database.close()
    return 0


def _command_batch(args: argparse.Namespace) -> int:
    import time

    from repro.core.results import QueryStats

    database = _load_or_build_database(args)
    rng = np.random.default_rng(args.query_seed)
    requests = [
        AknnRequest(
            generate_query_object(
                rng, kind=args.kind, space_size=args.space_size,
                points_per_object=args.points_per_object,
            ),
            k=args.k,
            alpha=args.alpha,
            method=args.method,
        )
        for _ in range(args.n_queries)
    ]
    database.reset_statistics()
    t0 = time.perf_counter()
    results = database.execute_batch(requests)
    elapsed = time.perf_counter() - t0
    aggregate = QueryStats()
    for result in results:
        aggregate.merge(result.stats)
    aggregate.object_accesses = database.object_accesses
    aggregate.elapsed_seconds = elapsed
    if elapsed > 0.0:
        aggregate.extra["throughput_qps"] = args.n_queries / elapsed
    print(
        f"BATCH AKNN({args.n_queries} queries, k={args.k}, alpha={args.alpha}, "
        f"method={args.method})"
    )
    print(
        f"cost: {aggregate.object_accesses} object accesses, "
        f"{aggregate.distance_evaluations} distance evaluations, "
        f"{elapsed:.3f}s"
    )
    if elapsed > 0.0:
        print(f"throughput: {args.n_queries / elapsed:.1f} queries/sec")
    if args.stats:
        _print_stats_details(database, aggregate)
        for name, value in sorted(database.metrics.as_dict().items()):
            print(f"  planner.{name}: {value}")
    database.close()
    return 0


def _command_rknn(args: argparse.Namespace) -> int:
    database = _load_or_build_database(args)
    rng = np.random.default_rng(args.query_seed)
    query = generate_query_object(
        rng, kind=args.kind, space_size=args.space_size,
        points_per_object=args.points_per_object,
    )
    alpha_range = (args.alpha_start, args.alpha_end)
    result = database.execute(
        SweepRequest(query, k=args.k, alpha_range=alpha_range, method=args.method)
    )
    print(f"RKNN(k={args.k}, range=[{args.alpha_start}, {args.alpha_end}], method={args.method})")
    for object_id in result.object_ids:
        print(f"  object {object_id:>6}  qualifying {result.assignments[object_id]}")
    print(
        f"cost: {result.stats.object_accesses} object accesses, "
        f"{result.stats.aknn_calls} AKNN calls, "
        f"{result.stats.refinement_steps} refinement steps, "
        f"{result.stats.elapsed_seconds:.3f}s"
    )
    if args.stats:
        _print_stats_details(database, result.stats)
    database.close()
    return 0


def _command_reverse(args: argparse.Namespace) -> int:
    database = _load_or_build_database(args)
    rng = np.random.default_rng(args.query_seed)
    query = generate_query_object(
        rng, kind=args.kind, space_size=args.space_size,
        points_per_object=args.points_per_object,
    )
    result = database.execute(ReverseRequest(query, k=args.k, alpha=args.alpha))
    print(
        f"REVERSE AKNN(k={args.k}, alpha={args.alpha}): "
        f"{len(result)} reverse neighbours"
    )
    for object_id in result.object_ids:
        distance = result.distances[object_id]
        shown = (
            f"{distance:.4f}" if distance is not None
            else f"<= {result.upper_bounds[object_id]:.4f}"
        )
        print(f"  object {object_id:>6}  distance {shown}")
    print(
        f"cost: {result.stats.object_accesses} object accesses, "
        f"{result.stats.node_accesses} node accesses, "
        f"{int(result.stats.extra.get('candidates', 0.0))} candidates, "
        f"{result.stats.elapsed_seconds:.3f}s"
    )
    if args.stats:
        _print_stats_details(database, result.stats)
    database.close()
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import threading
    import time

    from repro.config import RuntimeConfig
    from repro.exceptions import BackpressureError, DeadlineExceededError
    from repro.service import FaultPlan, QueryService, ShardedDatabase

    if args.database:
        source = FuzzyDatabase.open(args.database)
        objects = list(source.store.iter_objects(count_accesses=False))
        source.close()
    else:
        from repro.datasets.builder import build_dataset

        objects = build_dataset(
            kind=args.kind,
            n_objects=args.n_objects,
            points_per_object=args.points_per_object,
            seed=args.seed,
            space_size=args.space_size,
        )
    config = RuntimeConfig(
        service_shards=args.shards,
        snapshot_every=args.snapshot_every,
        cache_capacity=4096,
    )
    database = ShardedDatabase.build(objects, placement=args.placement, config=config)
    print(
        f"serving {len(database)} objects over {database.n_shards} shards "
        f"({args.placement} placement, sizes {database.shard_sizes()})"
    )
    if args.wal_dir:
        database.enable_durability(args.wal_dir)
        cadence = (
            f"snapshot every {args.snapshot_every} appends"
            if args.snapshot_every
            else "snapshot on shutdown"
        )
        print(f"durability: per-shard WALs under {args.wal_dir} ({cadence})")
    if args.fault_plan:
        database.fault_plan = FaultPlan.parse(args.fault_plan)
        print(f"fault plan armed: {database.fault_plan!r}")

    kinds = [kind.strip() for kind in args.mix.split(",") if kind.strip()]
    unknown = sorted(set(kinds) - {"aknn", "reverse", "range"})
    if not kinds or unknown:
        raise SystemExit(
            f"--mix must name request types from aknn/reverse/range, got {args.mix!r}"
        )

    rng = np.random.default_rng(args.query_seed)
    queries = [
        generate_query_object(
            rng, kind=args.kind, space_size=args.space_size,
            points_per_object=args.points_per_object,
        )
        for _ in range(args.query_pool)
    ]

    def make_request(index: int):
        """One typed request, rotating through the --mix kinds."""
        query = queries[index % len(queries)]
        kind = kinds[index % len(kinds)]
        if kind == "reverse":
            return ReverseRequest(
                query, k=args.k, alpha=args.alpha, deadline_ms=args.deadline_ms
            )
        if kind == "range":
            return RangeRequest(
                query, alpha=args.alpha, radius=args.radius,
                deadline_ms=args.deadline_ms,
            )
        return AknnRequest(
            query, k=args.k, alpha=args.alpha, method=args.method,
            deadline_ms=args.deadline_ms,
        )

    completed_per_client = [0] * args.clients

    def client(client_index: int, n_requests: int) -> None:
        for i in range(n_requests):
            request = make_request(client_index + i * args.clients)
            try:
                service.execute(request)
            except (BackpressureError, DeadlineExceededError):
                continue  # shed or expired; reported via stats
            completed_per_client[client_index] += 1

    def mutator(n_ops: int) -> None:
        update_rng = np.random.default_rng(args.seed + 12345)
        for _ in range(n_ops):
            obj = generate_query_object(
                update_rng, kind=args.kind, space_size=args.space_size,
                points_per_object=args.points_per_object,
            )
            object_id = service.insert(obj)
            service.delete(object_id)

    with QueryService(
        database, max_batch=args.max_batch, queue_depth=args.queue_depth
    ) as service:
        # Warm caches before the measured phase.
        for index in range(min(8, len(queries))):
            try:
                service.execute(make_request(index))
            except (BackpressureError, DeadlineExceededError):
                pass  # shed or expired warm-up; the measured phase still runs

        subscriptions = [
            service.subscribe(
                AknnRequest(queries[index % len(queries)], k=args.k, alpha=args.alpha)
            )
            for index in range(args.subscribers)
        ]

        per_client = max(1, args.n_requests // args.clients)
        threads = [
            threading.Thread(target=client, args=(index, per_client))
            for index in range(args.clients)
        ]
        if args.update_ops:
            threads.append(threading.Thread(target=mutator, args=(args.update_ops,)))
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - t0
        stats = service.stats()
        if subscriptions:
            # seq counts every delta a subscription emitted (including the
            # initial answer); shed streams stopped consuming mid-run.
            deltas = sum(
                sub.subscription.seq for sub in subscriptions
                if sub.subscription is not None
            )
            shed_subs = sum(1 for sub in subscriptions if sub.shed)
            print(
                f"subscriptions: {len(subscriptions)} standing queries, "
                f"{deltas} deltas pushed, {shed_subs} shed"
            )

    attempted = per_client * args.clients
    served = sum(completed_per_client)
    print(
        f"SERVE({attempted} requests, {args.clients} clients, k={args.k}, "
        f"alpha={args.alpha}, method={args.method}, mix={'+'.join(kinds)})"
    )
    print(
        f"throughput: {served / elapsed:.1f} queries/sec sustained "
        f"({served}/{attempted} answered, {elapsed:.2f}s wall)"
    )
    print(
        f"latency: p50 {stats.p50_latency_ms:.2f} ms, "
        f"p99 {stats.p99_latency_ms:.2f} ms, mean {stats.mean_latency_ms:.2f} ms"
    )
    print(
        f"coalescing: {stats.batches_flushed} batches, "
        f"mean size {stats.mean_batch_size:.1f}, max {stats.max_batch_size}, "
        f"{stats.requests_shed} shed"
    )
    if args.update_ops:
        print(f"live updates: {args.update_ops} insert+delete pairs, epoch {database.epoch}")
    if args.fault_plan:
        shard_counters = database.metrics.as_dict()
        print(
            f"resilience: {database.fault_plan.total_fired()} faults fired, "
            f"{int(shard_counters.get('retries', 0))} retries, "
            f"{int(shard_counters.get('breaker_open', 0))} breaker opens, "
            f"{int(shard_counters.get('partial_results', 0))} partial results"
        )
    if args.stats:
        print("counters:")
        for name, value in sorted(stats.as_dict().items()):
            print(f"  {name}: {value}")
        for name, value in sorted(database.metrics.as_dict().items()):
            print(f"  shards.{name}: {value}")
    database.close()
    return 0


def _command_recover(args: argparse.Namespace) -> int:
    from repro.service import ShardedDatabase
    from repro.storage import read_manifest

    manifest = read_manifest(args.directory)
    if manifest.kind == "sharded":
        database = ShardedDatabase.recover(args.directory)
        n_shards = database.n_shards
    else:
        database = FuzzyDatabase.recover(args.directory)
        n_shards = 1
    database.validate()
    counters = database.metrics.as_dict()
    print(
        f"recovered {len(database)} objects "
        f"({manifest.kind}, {n_shards} shard(s)) from {args.directory}"
    )
    print(
        f"replay: {counters.get('wal_replayed', 0)} WAL records, "
        f"{counters.get('wal_torn_tails', 0)} torn tails truncated, "
        f"{counters.get('bulk_loads', 0)} STR bulk loads"
    )
    if args.stats:
        print("counters:")
        for name, value in sorted(counters.items()):
            print(f"  {name}: {value}")
    database.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _command_generate,
        "aknn": _command_aknn,
        "rknn": _command_rknn,
        "reverse": _command_reverse,
        "batch": _command_batch,
        "serve": _command_serve,
        "recover": _command_recover,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised through the console script
    sys.exit(main())
