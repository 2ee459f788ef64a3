"""Counts as a fingerprint: what every request reads and answers is pinned.

A fixed fixture (a uniform and a clustered dataset, d = 2) answers every
query family and method on one tree, on three space-placed shards and
through a :class:`QueryService`, each request alone and all of them inside
one mixed batch.  Per request the record holds the ``QueryStats`` counts
(``object_accesses``, ``node_accesses``, ``distance_evaluations``,
``lower_bound_evaluations``, ``upper_bound_evaluations``) and the answer:
sorted ids with ``float.hex`` distances (``None`` where the bounds confirmed
the member without a read), a sweep's intervals as ``float.hex`` pairs.
A fixed write sequence (inserts, deletes, a snapshot, a recovery) adds the
tree's node count, height and a hash of its leaf order, and the recovered
config.  Nothing is rounded, so a count, an answer bit or a tree shape that
moves fails here, naming the request, the engine and the field.

Before a record is compared, its ``distance_evaluations`` is re-derived from
the :class:`~repro.core.executor.Decisions` rows the results were read from
(the ``EVALUATED`` rows, as ``tests/test_decision_record.py`` derives them),
and ``object_accesses`` from the store's own counter.  A batch's store reads
are re-derived from what its buckets report: a shared bucket's
``bucket_object_accesses`` once, a request answered on its own (each sweep)
its ``object_accesses``.

A change that moves a count on purpose regenerates the record::

    PYTHONPATH=src python -m pytest tests/test_counts_fingerprint.py --regenerate-counts

and states every moved count (the file's diff shows them).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.core.database import FuzzyDatabase
from repro.core.executor import EVALUATED, Decisions
from repro.core.requests import AknnRequest, RangeRequest, ReverseRequest, SweepRequest
from repro.datasets.builder import build_dataset
from repro.datasets.queries import generate_query_object
from repro.service import QueryService, ShardedDatabase

RECORD = Path(__file__).parent / "data" / "counts.json"
CONFIG = RuntimeConfig(rtree_max_entries=8, upper_bound_samples=8, cache_capacity=64)
SPACE = 40.0
FIELDS = (
    "object_accesses",
    "node_accesses",
    "distance_evaluations",
    "lower_bound_evaluations",
    "upper_bound_evaluations",
)


def datasets():
    return {
        "synthetic": build_dataset("synthetic", 160, 12, seed=20, space_size=SPACE),
        "cells": build_dataset("cells", 120, 12, seed=21, space_size=SPACE),
    }


def requests_for(kind):
    rng = np.random.default_rng(20 if kind == "synthetic" else 21)
    queries = [
        generate_query_object(rng, kind="synthetic", space_size=SPACE, points_per_object=12)
        for _ in range(3)
    ]
    named = []
    for qi, query in enumerate(queries):
        for method in ("basic", "lb", "lb_lp", "lb_lp_ub"):
            named.append((f"q{qi} aknn {method}", AknnRequest(query, k=4, alpha=0.5, method=method)))
        named.append((f"q{qi} range", RangeRequest(query, alpha=0.5, radius=4.0)))
        for method in ("basic", "rss", "rss_icr"):
            named.append(
                (f"q{qi} sweep {method}", SweepRequest(query, k=3, alpha_range=(0.3, 0.7), method=method))
            )
        named.append((f"q{qi} reverse", ReverseRequest(query, k=3, alpha=0.5)))
    return named


def answer(result):
    if hasattr(result, "assignments"):
        return [
            [oid, [[iv.start.hex(), iv.end.hex()] for iv in ranges]]
            for oid, ranges in sorted(result.assignments.items())
        ]
    if hasattr(result, "neighbors"):
        pairs = [(n.object_id, n.distance) for n in result.neighbors]
    elif hasattr(result, "matches"):
        pairs = list(result.matches)
    else:
        pairs = list(result.distances.items())
    return [[int(oid), None if d is None else float(d).hex()] for oid, d in sorted(pairs)]


class Trace:
    """The decision records a run's results were read from, in order."""

    def __init__(self, monkeypatch):
        self.records = []

        def logged(method):
            def wrapper(record, *args):
                if all(record is not seen for seen in self.records):
                    self.records.append(record)
                return method(record, *args)

            return wrapper

        for name in ("answers", "evaluations", "total_evaluations"):
            monkeypatch.setattr(Decisions, name, logged(getattr(Decisions, name)))

    def take(self):
        records, self.records = self.records, []
        return records


# The families whose counts a request alone reads from one record of its own
# (an AKNN request alone is the best-first search, which keeps none; the
# ``basic`` / ``rss`` sweeps add profiles to a range step's record).
FROM_ONE_RECORD = (RangeRequest, ReverseRequest)


def derived_evaluations(request, records):
    """``distance_evaluations`` re-derived from the rows, or ``None``."""
    sweep = isinstance(request, SweepRequest) and request.method.value == "rss_icr"
    if not (sweep or isinstance(request, FROM_ONE_RECORD)):
        return None
    (record,) = records
    assert record.n_queries == 1
    return int(np.count_nonzero(record.by == EVALUATED)) + record.shared_evaluations


def store_reads(engine):
    return int(engine.object_accesses)


def reported_reads(named, results):
    """The store reads a batch's results account for, bucket by bucket."""
    buckets = {}
    for (_, request), result in zip(named, results):
        buckets.setdefault((type(request), request.bucket_key()), []).append(result.stats)
    total = 0
    for stats in buckets.values():
        shared = stats[0].extra.get("bucket_object_accesses")
        total += int(shared) if shared is not None else sum(s.object_accesses for s in stats)
    return total


def run(engine, named, trace):
    """``{name: record}`` for every request alone, then inside one batch."""
    out = {}
    for name, request in named:
        before = store_reads(engine)
        result = engine.execute(request)
        records = trace.take()
        stats = result.stats
        assert store_reads(engine) - before == stats.object_accesses, (name, "object_accesses")
        derived = derived_evaluations(request, records)
        if derived is not None:
            assert derived == stats.distance_evaluations, (name, "distance_evaluations")
        out[f"alone {name}"] = [getattr(stats, f) for f in FIELDS] + [answer(result)]
    before = store_reads(engine)
    results = engine.execute_batch([request for _, request in named])
    trace.take()
    out["batch store reads"] = store_reads(engine) - before
    # The engines plan the batch bucket by bucket; the service's coalescer
    # may flush one key's requests in more than one bucket.
    if not isinstance(engine, ServiceEngine):
        assert reported_reads(named, results) == out["batch store reads"], "batch store reads"
    for (name, _), result in zip(named, results):
        stats = result.stats
        out[f"batch {name}"] = [getattr(stats, f) for f in FIELDS] + [answer(result)]
    return out


class ServiceEngine:
    """A started :class:`QueryService` over a one-tree database."""

    def __init__(self, objects):
        self.database = FuzzyDatabase.build(objects, config=CONFIG)
        self.service = QueryService(self.database).start()

    def execute(self, request):
        return self.service.execute(request)

    def execute_batch(self, requests):
        return self.service.execute_batch(requests)

    @property
    def object_accesses(self):
        return self.database.object_accesses

    def close(self):
        self.service.stop()
        self.database.close()


ENGINES = {
    "one tree": lambda objects: FuzzyDatabase.build(objects, config=CONFIG),
    "3 shards": lambda objects: ShardedDatabase.build(
        objects, n_shards=3, placement="space", config=CONFIG
    ),
    "service": ServiceEngine,
}


def leaf_order_hash(tree):
    digest = hashlib.sha256()
    for soa in tree.leaf_views():
        digest.update(np.asarray(soa.object_ids, dtype=np.int64).tobytes())
        digest.update(b"|")
    return digest.hexdigest()[:16]


def tree_shape(db):
    return {
        "nodes": db.tree.node_count(),
        "height": db.tree.height,
        "leaf_order": leaf_order_hash(db.tree),
        "size": len(db),
    }


def write_sequence(directory):
    """A fixed interleaving of inserts, deletes, a snapshot and a recovery."""
    objects = build_dataset("synthetic", 90, 10, seed=22, space_size=SPACE)
    config = RuntimeConfig(rtree_max_entries=6, upper_bound_samples=8, wal_sync="flush")
    db = FuzzyDatabase.build(objects[:40], config=config)
    db.enable_durability(directory)
    shapes = {}
    for step, obj in enumerate(objects[40:70]):
        db.insert(obj)
        if step % 3 == 2:
            db.delete(int(objects[step].object_id))
    shapes["after writes"] = tree_shape(db)
    db.snapshots.snapshot()
    for obj in objects[70:]:
        db.insert(obj)
    for oid in (41, 45, 50, 88):
        db.delete(oid)
    shapes["before recovery"] = tree_shape(db)
    db.close()
    recovered = FuzzyDatabase.recover(directory, resume=False)
    shapes["recovered"] = tree_shape(recovered)
    shapes["recovered config"] = {
        name: getattr(recovered.config, name)
        for name in ("rtree_max_entries", "upper_bound_samples", "wal_sync")
    }
    recovered.close()
    return shapes


def fingerprint(monkeypatch, directory):
    trace = Trace(monkeypatch)
    record = {}
    for kind, objects in datasets().items():
        named = requests_for(kind)
        for engine_name, make in ENGINES.items():
            engine = make(list(objects))
            try:
                for name, entry in run(engine, named, trace).items():
                    record[f"{kind} | {engine_name} | {name}"] = entry
            finally:
                engine.close()
    record["writes"] = write_sequence(directory)
    return record


def dump(record):
    lines = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}" for key, value in record.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_counts_equal_the_committed_record(monkeypatch, tmp_path, request):
    record = fingerprint(monkeypatch, tmp_path / "db")
    if request.config.getoption("--regenerate-counts"):
        RECORD.parent.mkdir(exist_ok=True)
        RECORD.write_text(dump(record), encoding="utf-8")
        pytest.skip(f"regenerated {RECORD}")
    committed = json.loads(RECORD.read_text(encoding="utf-8"))
    assert committed.keys() == record.keys()
    for key, entry in record.items():
        if not isinstance(entry, list):  # the write sequence, a batch's store reads
            assert entry == committed[key], f"{key}: was {committed[key]}, is {entry}"
            continue
        for field, new, old in zip(FIELDS + ("answer",), entry, committed[key]):
            assert new == old, f"{key}: {field} was {old}, is {new}"
