"""Benchmark: the durability subsystem's three cost claims.

1. **STR bulk load vs. incremental build** — recovery and cold ``open()``
   pack the R-tree with one Sort-Tile-Recursive pass instead of one Guttman
   insert (with quadratic splits) per object.  At ``--n-objects`` scale the
   bulk path must be at least ``--min-speedup`` times faster (the PR's
   acceptance gate at n=50k is 5x); ``--quick`` drops the gate, since fixed
   overheads dominate at smoke scale.

2. **WAL overhead on the write path** — sustained insert throughput with
   durability off, with the WAL at ``sync=none`` and at the ``sync=flush``
   default.  Reported as ops/sec; the point of the number is to keep the
   write-ahead tax visible from PR to PR, not to gate it.

3. **Subscription maintenance vs. re-polling** — ``--subscriptions``
   standing kNN queries are kept exact through ``--mutations`` mutations
   via delta maintenance (vectorised screen + targeted re-queries), and the
   same history is replayed against the naive alternative: re-executing
   every registered request after every mutation.  Maintenance must win.

Results land in ``BENCH_durability.json`` next to this file; a ``--quick``
run writes a file only when ``--output`` names one, so a smoke never
overwrites the committed full-scale numbers.

Run directly::

    PYTHONPATH=src python benchmarks/bench_durability.py
    PYTHONPATH=src python benchmarks/bench_durability.py --quick
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import RuntimeConfig  # noqa: E402
from repro.core.database import FuzzyDatabase  # noqa: E402
from repro.core.requests import AknnRequest  # noqa: E402
from repro.fuzzy.fuzzy_object import FuzzyObject  # noqa: E402
from repro.fuzzy.summary import build_summary  # noqa: E402
from repro.index.bulk import bulk_load_tree  # noqa: E402
from repro.index.rtree import RTree  # noqa: E402
from repro.service.subscriptions import SubscriptionEngine  # noqa: E402

BASELINE_PATH = Path(__file__).parent / "BENCH_durability.json"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-objects", type=int, default=50_000,
                        help="summaries for the bulk-load comparison")
    parser.add_argument("--points-per-object", type=int, default=8)
    parser.add_argument("--wal-inserts", type=int, default=1_500,
                        help="inserts per WAL-throughput pass")
    parser.add_argument("--subscriptions", type=int, default=8)
    parser.add_argument("--mutations", type=int, default=120)
    parser.add_argument("--sub-objects", type=int, default=400,
                        help="database size for the subscription comparison")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--min-speedup", type=float, default=5.0,
        help="required STR-vs-incremental speedup (0 disables the gate)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny configuration for smoke-testing the harness",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="where to write the JSON baseline (default: "
             "benchmarks/BENCH_durability.json; with --quick, nowhere)",
    )
    args = parser.parse_args(argv)
    if args.output is None and not args.quick:
        args.output = BASELINE_PATH
    if args.quick:
        args.n_objects = 2_000
        args.wal_inserts = 200
        args.subscriptions = 4
        args.mutations = 30
        args.sub_objects = 120
        args.min_speedup = 0.0  # fixed overheads dominate at smoke scale
    return args


def _objects(rng, n, points, first_id=0, scale=100.0):
    out = []
    centers = rng.random((n, 2)) * scale
    for i in range(n):
        pts = centers[i] + rng.normal(scale=0.5, size=(points, 2))
        memberships = rng.random(points)
        memberships[int(rng.integers(0, points))] = 1.0
        out.append(FuzzyObject(pts, np.clip(memberships, 1e-3, 1.0),
                               object_id=first_id + i))
    return out


def bench_bulk_load(args, rng):
    print(f"[1/3] STR bulk load vs incremental build (n={args.n_objects})")
    objects = _objects(rng, args.n_objects, args.points_per_object)
    summaries = [build_summary(obj, rng=rng) for obj in objects]
    config = RuntimeConfig()

    t0 = time.perf_counter()
    bulk_tree = bulk_load_tree(summaries, config=config)
    t_bulk = time.perf_counter() - t0
    bulk_tree.validate()

    t0 = time.perf_counter()
    incremental = RTree(max_entries=config.rtree_max_entries)
    for summary in summaries:
        incremental.insert(summary)
    t_incremental = time.perf_counter() - t0
    assert len(incremental) == len(bulk_tree) == args.n_objects

    speedup = t_incremental / t_bulk if t_bulk > 0 else float("inf")
    print(f"      bulk {t_bulk:.3f}s | incremental {t_incremental:.3f}s "
          f"| speedup {speedup:.1f}x")
    return {
        "n_objects": args.n_objects,
        "bulk_seconds": round(t_bulk, 4),
        "incremental_seconds": round(t_incremental, 4),
        "speedup": round(speedup, 2),
    }


def _insert_pass(objects, config, durable_dir=None):
    database = FuzzyDatabase.build([], config=config)
    if durable_dir is not None:
        database.enable_durability(durable_dir)
    t0 = time.perf_counter()
    for obj in objects:
        database.insert(obj)
    elapsed = time.perf_counter() - t0
    database.close()
    return len(objects) / elapsed


def bench_wal(args, rng):
    print(f"[2/3] insert throughput with/without WAL (n={args.wal_inserts})")
    objects = _objects(rng, args.wal_inserts, args.points_per_object,
                       first_id=0)
    results = {}
    with tempfile.TemporaryDirectory(prefix="bench-wal-") as tmp:
        tmp = Path(tmp)
        # Warmup: the first pass otherwise pays one-time costs (allocator,
        # ufunc dispatch caches) and skews whichever variant runs first.
        _insert_pass(objects[: max(50, len(objects) // 10)], RuntimeConfig())
        results["off"] = _insert_pass(objects, RuntimeConfig())
        for sync in ("none", "flush"):
            target = tmp / sync
            results[sync] = _insert_pass(
                objects, RuntimeConfig(wal_sync=sync, snapshot_every=0), target
            )
            shutil.rmtree(target, ignore_errors=True)
    for name, rate in results.items():
        print(f"      wal={name:<5} {rate:,.0f} inserts/sec")
    return {
        "inserts": args.wal_inserts,
        "ops_per_sec": {name: round(rate, 1) for name, rate in results.items()},
        "flush_overhead": round(results["off"] / results["flush"], 2),
    }


def bench_subscriptions(args, rng):
    print(f"[3/3] subscription maintenance vs re-poll "
          f"(S={args.subscriptions}, M={args.mutations})")
    base = _objects(rng, args.sub_objects, args.points_per_object, scale=10.0)
    queries = _objects(rng, args.subscriptions, args.points_per_object,
                       first_id=10_000_000, scale=10.0)
    requests = [AknnRequest(q, k=5, alpha=0.4) for q in queries]

    def mutation_stream():
        stream_rng = np.random.default_rng(args.seed + 1)
        live = list(range(args.sub_objects))
        extra = _objects(stream_rng, args.mutations, args.points_per_object,
                         first_id=1_000_000, scale=10.0)
        ops = []
        for step in range(args.mutations):
            if step % 3 == 2 and len(live) > 10:
                ops.append(("delete", live.pop(int(stream_rng.integers(0, len(live))))))
            else:
                ops.append(("insert", extra[step]))
        return ops

    ops = mutation_stream()

    # Maintained: the engine keeps every answer exact via deltas.
    maintained = FuzzyDatabase.build(base)
    engine = SubscriptionEngine(maintained)
    maintained.add_update_listener(engine)
    subs = [engine.subscribe(request) for request in requests]
    t0 = time.perf_counter()
    for op, payload in ops:
        if op == "insert":
            maintained.insert(payload)
        else:
            maintained.delete(payload)
    t_maintained = time.perf_counter() - t0
    maintained_answers = [dict(sub.members) for sub in subs]

    # Re-poll: the same history, re-executing every request after every op.
    polled = FuzzyDatabase.build(base)
    t0 = time.perf_counter()
    for op, payload in ops:
        if op == "insert":
            polled.insert(payload)
        else:
            polled.delete(payload)
        last = [polled.execute(request) for request in requests]
    t_polled = time.perf_counter() - t0

    # Parity: the final maintained answers equal the final re-poll answers.
    for sub, maintained_members, result in zip(subs, maintained_answers, last):
        assert sorted(maintained_members) == sorted(
            int(n.object_id) for n in result.neighbors
        ), "maintenance diverged from re-polling"

    speedup = t_polled / t_maintained if t_maintained > 0 else float("inf")
    print(f"      maintain {t_maintained:.3f}s | re-poll {t_polled:.3f}s "
          f"| speedup {speedup:.1f}x")
    maintained.close()
    polled.close()
    return {
        "subscriptions": args.subscriptions,
        "mutations": args.mutations,
        "maintain_seconds": round(t_maintained, 4),
        "repoll_seconds": round(t_polled, 4),
        "speedup": round(speedup, 2),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    rng = np.random.default_rng(args.seed)

    bulk = bench_bulk_load(args, rng)
    wal = bench_wal(args, rng)
    subscriptions = bench_subscriptions(args, rng)

    payload = {
        "benchmark": "durability",
        "quick": bool(args.quick),
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "bulk_load": bulk,
        "wal": wal,
        "subscriptions": subscriptions,
    }
    if args.output is None:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")

    if args.min_speedup and bulk["speedup"] < args.min_speedup:
        print(f"FAIL: STR speedup {bulk['speedup']}x is below the "
              f"{args.min_speedup}x gate")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
