"""Every bucket's distance counts trace back to its decision record.

An aggregate is only as good as the detail it can be re-derived from.  Each
bucket family writes its bound decisions into one
:class:`repro.core.executor.Decisions` record and reads its results and
counts from it.  Here one bucket of each family (an AKNN bucket of many, a
range bucket, an ``rss_icr`` sweep and a reverse bucket) runs on one tree
and on three shards, the record its results were read from is captured, and
every result is recomputed from the record's columns:

* its members: the ids, and which of them carry no exact distance (those
  the bounds confirmed);
* its ``distance_evaluations``, and a range or reverse bucket's
  ``bucket_distance_evaluations``: the rows marked ``EVALUATED`` (plus a
  reverse bucket's candidate-to-neighbour distances).

Independently of the record, the bucket total must equal the distances
handed to the exact-distance kernel (the sweep: the profiles computed).
"""

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.core import executor as executor_module
from repro.core import rknn as rknn_module
from repro.core.database import FuzzyDatabase
from repro.core.executor import EVALUATED, Decisions
from repro.core.requests import AknnRequest, RangeRequest, ReverseRequest, SweepRequest
from repro.datasets.builder import build_dataset
from repro.datasets.queries import generate_query_object
from repro.service import ShardedDatabase

CONFIG = RuntimeConfig(rtree_max_entries=8, cache_capacity=32)
K, ALPHA = 3, 0.5


@pytest.fixture(scope="module")
def objects():
    return build_dataset(
        kind="synthetic", n_objects=60, points_per_object=16, seed=11, space_size=6.0
    )


@pytest.fixture(params=["one tree", "3 shards"])
def engine(request, objects):
    if request.param == "one tree":
        built = FuzzyDatabase.build(list(objects), config=CONFIG)
    else:
        built = ShardedDatabase.build(list(objects), n_shards=3, placement="space", config=CONFIG)
    yield built
    built.close()


def fresh_queries(count, seed=404):
    rng = np.random.default_rng(seed)
    return [
        generate_query_object(rng, kind="synthetic", space_size=6.0, points_per_object=20)
        for _ in range(count)
    ]


class Trace:
    """The records whose counts a bucket read, and the distances it paid."""

    def __init__(self, monkeypatch):
        self.records, self.handed = [], 0
        trace = self

        def logged(method):
            def wrapper(record, *args):
                if all(record is not seen for seen in trace.records):
                    trace.records.append(record)
                return method(record, *args)

            return wrapper

        for name in ("evaluations", "total_evaluations"):
            monkeypatch.setattr(Decisions, name, logged(getattr(Decisions, name)))

        def counted(kernel):
            def wrapper(query_cut, cuts):
                trace.handed += len(cuts)
                return kernel(query_cut, cuts)

            return wrapper

        monkeypatch.setattr(
            executor_module,
            "_exact_min_distances",
            counted(executor_module._exact_min_distances),
        )
        profile = rknn_module.distance_profile

        def counted_profile(*args, **kwargs):
            trace.handed += 1
            return profile(*args, **kwargs)

        monkeypatch.setattr(rknn_module, "distance_profile", counted_profile)

    @property
    def record(self):
        (record,) = self.records
        return record


def evaluated(record, qi=None):
    rows = record.by == EVALUATED
    if qi is None:
        return int(np.count_nonzero(rows)) + record.shared_evaluations
    return int(np.count_nonzero(rows & (record.query == qi)))


def members(record, qi):
    """``{id: whether the record holds its exact distance}`` of query ``qi``."""
    rows = np.flatnonzero(record.member & (record.query == qi))
    return {
        int(record.object_id[row]): not np.isnan(record.exact[row]) for row in rows
    }


def test_aknn_bucket(engine, monkeypatch):
    trace = Trace(monkeypatch)
    results = engine.execute_batch(
        [AknnRequest(q, k=K, alpha=ALPHA) for q in fresh_queries(4)]
    )
    record = trace.record
    for qi, result in enumerate(results):
        assert result.stats.distance_evaluations == evaluated(record, qi)
        assert {n.object_id: n.distance is not None for n in result.neighbors} == members(
            record, qi
        )
    assert evaluated(record) == trace.handed > 0


def test_range_bucket(engine, monkeypatch):
    trace = Trace(monkeypatch)
    results = engine.execute_batch(
        [RangeRequest(q, alpha=ALPHA, radius=r) for q, r in zip(fresh_queries(3), (1.0, 1.5, 2.0))]
    )
    record = trace.record
    for qi, result in enumerate(results):
        assert result.stats.distance_evaluations == evaluated(record, qi)
        assert result.stats.extra["bucket_distance_evaluations"] == evaluated(record)
        assert {i: d is not None for i, d in result.matches} == members(record, qi)
        assert set(result.upper_bounds) == {
            i for i, exact in members(record, qi).items() if not exact
        }
    assert evaluated(record) == trace.handed > 0


def test_sweep(engine, monkeypatch):
    trace = Trace(monkeypatch)
    (query,) = fresh_queries(1)
    request = SweepRequest(query, k=K, alpha_range=(0.3, 0.7), method="rss_icr")
    result = engine.execute(request)
    assert result.stats.distance_evaluations == evaluated(trace.record) == trace.handed > 0
    # The same query instance again evaluates exactly what the first run did.
    trace.records.clear()
    trace.handed = 0
    again = engine.execute(SweepRequest(query, k=K, alpha_range=(0.3, 0.7), method="rss_icr"))
    assert again.stats.distance_evaluations == evaluated(trace.record) == trace.handed
    assert again.stats.distance_evaluations == result.stats.distance_evaluations


def test_reverse_bucket(engine, monkeypatch):
    trace = Trace(monkeypatch)
    results = engine.execute_batch(
        [ReverseRequest(q, k=K, alpha=ALPHA) for q in fresh_queries(3)]
    )
    record = trace.record
    for qi, result in enumerate(results):
        assert result.stats.distance_evaluations == evaluated(record, qi)
        assert result.stats.extra["bucket_distance_evaluations"] == evaluated(record)
        assert {i: d is not None for i, d in result.distances.items()} == members(record, qi)
    assert evaluated(record) == trace.handed > 0
