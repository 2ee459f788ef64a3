"""Reads are a function of the request, not of what ran before it.

A sweep computes each distance profile it needs into a dict that lives for
one request, and a reverse bucket reads each object at most once per
bucket; nothing is kept between requests.  So a sweep (every method) or a
reverse request run again on the same query instance, or run after another
request on that instance in one batch, reads and evaluates exactly what its
first run did.  Checked on one tree and on three space-placed shards, with
every answer against :mod:`repro.reference`.
"""

import numpy as np
import pytest

from repro import reference
from repro.config import RuntimeConfig
from repro.core.database import FuzzyDatabase
from repro.core.requests import ReverseRequest, SweepRequest
from repro.datasets.builder import build_dataset
from repro.datasets.queries import generate_query_object
from repro.service import ShardedDatabase
from tests.conftest import assert_reverse_answer, assert_same_assignments

CONFIG = RuntimeConfig(rtree_max_entries=8, cache_capacity=32)
K, ALPHA, ALPHA_RANGE = 3, 0.5, (0.3, 0.7)


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


@pytest.fixture(scope="module")
def query():
    rng = np.random.default_rng(405)
    return generate_query_object(rng, kind="synthetic", space_size=6.0, points_per_object=20)


def cost(result):
    return result.stats.object_accesses, result.stats.distance_evaluations


def assert_exact(result, request, objects):
    if isinstance(request, SweepRequest):
        truth = reference.sweep(objects, request.query, request.k, request.alpha_range)
        assert_same_assignments(result.assignments, truth)
    else:
        assert_reverse_answer(result, objects, request.query, request.k, request.alpha)


def test_a_request_run_again_reads_what_it_did(engine, objects, query):
    requests = [
        SweepRequest(query, k=K, alpha_range=ALPHA_RANGE, method=method)
        for method in ("basic", "rss", "rss_icr")
    ] + [ReverseRequest(query, k=K, alpha=ALPHA)]
    for request in requests:
        first = engine.execute(request)
        again = engine.execute(request)
        assert first.stats.object_accesses > 0, request
        assert cost(again) == cost(first), request
        assert_exact(first, request, objects)
        assert_exact(again, request, objects)


def test_a_batch_on_one_query_reads_what_each_request_does_alone(engine, objects, query):
    sweep = SweepRequest(query, k=K, alpha_range=ALPHA_RANGE)
    reverse = ReverseRequest(query, k=K, alpha=ALPHA)
    alone = [engine.execute(sweep), engine.execute(reverse)]
    batched = engine.execute_batch([sweep, reverse])
    for request, first, result in zip((sweep, reverse), alone, batched):
        assert first.stats.object_accesses > 0, request
        assert cost(result) == cost(first), request
        assert_exact(result, request, objects)
