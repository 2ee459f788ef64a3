"""CI gate: crash recovery restores exactly the acknowledged mutations.

Two phases, mirroring the durability test suite at smoke scale:

1. **Single node, random WAL cut** — a durable :class:`FuzzyDatabase` is
   churned with a scripted insert/delete stream, its directory is copied
   mid-flight (the crash), and the copied WAL is cut at a seeded random byte
   offset.  Recovery must replay a clean prefix (torn tail repaired, STR
   bulk load counted) and answer AKNN / range / sweep / reverse queries
   identically to an uninterrupted twin that applied exactly the replayed
   prefix.

2. **Sharded, partial crash** — one shard of a durable
   :class:`ShardedDatabase` starts failing its WAL appends mid-churn (a
   ``wal_append`` fault-plan rule), the deployment is "crashed" and
   recovered, and the recovered database must agree with a twin that applied
   only the acknowledged mutations — per-shard WALs isolate the blast
   radius.

Both phases build with a non-default config and also recover each crashed
directory with no config: it must come back with the config it was written
with (what ``fuzzy-knn recover`` relies on).

Run locally::

    PYTHONPATH=src python scripts/recovery_smoke.py --seed 7
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import RuntimeConfig  # noqa: E402
from repro.core.database import FuzzyDatabase  # noqa: E402
from repro.core.requests import (  # noqa: E402
    AknnRequest,
    RangeRequest,
    ReverseRequest,
    SweepRequest,
)
from repro.datasets.builder import build_dataset  # noqa: E402
from repro.datasets.queries import generate_query_object  # noqa: E402
from repro.exceptions import FaultInjectedError, ObjectNotFoundError  # noqa: E402
from repro.fuzzy.alpha_distance import alpha_distance  # noqa: E402
from repro.metrics.counters import MetricsCollector  # noqa: E402
from repro.service import FaultPlan, ShardedDatabase  # noqa: E402


def _check(condition: bool, label: str, failures: list) -> None:
    print(f"  {'ok  ' if condition else 'FAIL'} {label}")
    if not condition:
        failures.append(label)


def _scripted_ops(rng, live, n_ops, next_id):
    ops = []
    live = list(live)
    for step in range(n_ops):
        if step % 3 == 2 and len(live) > 8:
            ops.append(("delete", live.pop(int(rng.integers(0, len(live))))))
        else:
            obj = generate_query_object(rng, kind="synthetic", space_size=8.0,
                                        points_per_object=24).with_id(next_id)
            ops.append(("insert", obj))
            live.append(next_id)
            next_id += 1
    return ops


def _apply(db, ops):
    acknowledged = []
    failures = 0
    for op, payload in ops:
        try:
            if op == "insert":
                db.insert(payload)
            else:
                db.delete(payload)
        except (FaultInjectedError, ObjectNotFoundError):
            # A delete can target an id whose insert the fault plan already
            # rejected — equally unacknowledged, equally absent from the log.
            failures += 1
        else:
            acknowledged.append((op, payload))
    return acknowledged, failures


def _exact_knn_distances(db, result, query, alpha):
    out = []
    for neighbor in result.neighbors:
        d = neighbor.distance
        if d is None:
            d = alpha_distance(db.get_object(neighbor.object_id), query, alpha)
        out.append(float(d))
    return sorted(out)


def _parity(recovered, twin, queries, failures, label):
    for i, query in enumerate(queries):
        r = recovered.execute(AknnRequest(query, k=5, alpha=0.4))
        t = twin.execute(AknnRequest(query, k=5, alpha=0.4))
        _check(
            np.allclose(
                _exact_knn_distances(recovered, r, query, 0.4),
                _exact_knn_distances(twin, t, query, 0.4),
                atol=1e-9,
            ),
            f"{label}: AKNN parity (query {i})",
            failures,
        )
        r = recovered.execute(RangeRequest(query, alpha=0.5, radius=3.0))
        t = twin.execute(RangeRequest(query, alpha=0.5, radius=3.0))
        _check(
            sorted(m[0] for m in r.matches) == sorted(m[0] for m in t.matches),
            f"{label}: range parity (query {i})",
            failures,
        )
        r = recovered.execute(SweepRequest(query, k=3, alpha_range=(0.2, 0.9)))
        t = twin.execute(SweepRequest(query, k=3, alpha_range=(0.2, 0.9)))
        same = set(r.assignments) == set(t.assignments) and all(
            r.assignments[oid] == t.assignments[oid]
            for oid in r.assignments
        )
        _check(same, f"{label}: sweep parity (query {i})", failures)
        r = recovered.execute(ReverseRequest(query, k=2, alpha=0.5))
        t = twin.execute(ReverseRequest(query, k=2, alpha=0.5))
        _check(
            sorted(r.object_ids) == sorted(t.object_ids),
            f"{label}: reverse parity (query {i})",
            failures,
        )


def _check_written_config(engine, crashed: Path, config, failures: list) -> None:
    """Recovered with no config, ``crashed`` keeps the config it was written with.

    Recovery repairs a torn WAL tail in place, so this recovers a copy and the
    checked recovery still starts from the untouched cut directory."""
    probe = crashed.with_name(crashed.name + "-config-probe")
    shutil.copytree(crashed, probe)
    recovered = engine.recover(probe, resume=False)
    _check(recovered.config == config,
           f"recovered without a config, {engine.__name__} keeps the written config",
           failures)
    recovered.close()


# Non-default where recovery used to fall back to a default.
WRITTEN = dict(snapshot_every=0, rtree_max_entries=8, upper_bound_samples=3, wal_sync="fsync")


def phase_single(seed: int, workdir: Path, failures: list) -> None:
    print("phase 1: single node, random WAL cut")
    rng = np.random.default_rng(seed)
    config = RuntimeConfig(**WRITTEN)
    objects = build_dataset(kind="synthetic", n_objects=40, points_per_object=24,
                            seed=seed, space_size=8.0)
    queries = [generate_query_object(rng, kind="synthetic", space_size=8.0,
                                     points_per_object=24) for _ in range(2)]
    durable = workdir / "single"
    db = FuzzyDatabase.build(objects, config=config)
    db.enable_durability(durable)
    ops = _scripted_ops(rng, db.object_ids(), 30, next_id=1000)
    _apply(db, ops)

    wal_bytes = (durable / "wal.log").read_bytes()
    cut = int(rng.integers(8, len(wal_bytes)))
    crashed = workdir / "single-crashed"
    shutil.copytree(durable, crashed)
    (crashed / "wal.log").write_bytes(wal_bytes[:cut])
    print(f"  cut WAL at byte {cut}/{len(wal_bytes)}")

    _check_written_config(FuzzyDatabase, crashed, config, failures)
    recovered = FuzzyDatabase.recover(crashed, config=config, resume=False)
    counters = recovered.metrics.as_dict()
    replayed = counters.get(MetricsCollector.WAL_REPLAYED, 0)
    _check(counters.get(MetricsCollector.RECOVERIES) == 1, "one recovery", failures)
    _check(counters.get(MetricsCollector.BULK_LOADS, 0) >= 1,
           "recovery rebuilt the tree via STR bulk load", failures)
    _check(0 <= replayed <= len(ops), f"replayed a prefix ({replayed} records)",
           failures)

    twin = FuzzyDatabase.build(objects, config=config)
    _apply(twin, ops[:replayed])
    _check(sorted(recovered.object_ids()) == sorted(twin.object_ids()),
           "object ids match the twin", failures)
    _parity(recovered, twin, queries, failures, "single")
    recovered.close()
    twin.close()
    db.close()


def phase_sharded(seed: int, workdir: Path, failures: list) -> None:
    print("phase 2: sharded, one shard crashes mid-append")
    rng = np.random.default_rng(seed + 1)
    config = RuntimeConfig(service_shards=3, **WRITTEN)
    objects = build_dataset(kind="synthetic", n_objects=45, points_per_object=24,
                            seed=seed + 1, space_size=8.0)
    queries = [generate_query_object(rng, kind="synthetic", space_size=8.0,
                                     points_per_object=24) for _ in range(2)]
    durable = workdir / "sharded"
    sharded = ShardedDatabase.build(objects, n_shards=3, config=config)
    sharded.enable_durability(durable)
    sharded.fault_plan = FaultPlan.parse("shard=1,op=wal_append,kind=raise,after=5")

    ops = _scripted_ops(rng, sharded.object_ids(), 36, next_id=2000)
    acknowledged, injected = _apply(sharded, ops)
    _check(injected > 0, f"fault plan fired ({injected} rejected mutations)", failures)

    crashed = workdir / "sharded-crashed"
    shutil.copytree(durable, crashed)
    _check_written_config(ShardedDatabase, crashed, config, failures)
    recovered = ShardedDatabase.recover(crashed, config=config)
    counters = recovered.metrics.as_dict()
    _check(counters.get(MetricsCollector.RECOVERIES) == 3,
           "all three shards recovered", failures)
    _check(counters.get(MetricsCollector.BULK_LOADS) == 3,
           "one STR bulk load per shard", failures)

    twin = ShardedDatabase.build(objects, n_shards=3, config=config)
    _apply(twin, acknowledged)
    _check(sorted(recovered.object_ids()) == sorted(twin.object_ids()),
           "object ids match the acknowledged-ops twin", failures)
    try:
        recovered.validate()
        _check(True, "recovered deployment validates", failures)
    except Exception as exc:  # pragma: no cover - failure path
        _check(False, f"recovered deployment validates ({exc})", failures)
    _parity(recovered, twin, queries, failures, "sharded")
    recovered.close()
    twin.close()
    sharded.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    failures: list = []
    with tempfile.TemporaryDirectory(prefix="recovery-smoke-") as tmp:
        workdir = Path(tmp)
        phase_single(args.seed, workdir, failures)
        phase_sharded(args.seed, workdir, failures)

    if failures:
        print(f"\nrecovery smoke FAILED ({len(failures)} checks):")
        for label in failures:
            print(f"  - {label}")
        return 1
    print("\nrecovery smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
