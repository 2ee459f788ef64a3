"""Reverse verification decides from bounds: a generated property.

A reverse bucket counts, per ``(query, candidate)`` pair, the objects that
are or may be strictly closer to the candidate ``A`` than its query ``Q``
(:func:`repro.core.reverse_nn.count_test` states the rules), and reads only
a candidate the stored bounds leave undecided, or a neighbour ``B`` that an
undecided count still needs.  The data reuses the AKNN rank-test property's
objects (half-unit grid points, some one ulp off, one-point cuts, exact
twins, stored objects used as queries), so ``d(A, B) == d(A, Q)`` ties —
where ``Q`` must win — are common, and ``k`` runs up to ``n + 2``.

On one tree and on three space shards, for buckets of one to four queries,
every answer must hold :func:`repro.reference.reverse`'s ids, every probed
distance must equal the reference's and every member confirmed without a
read must have ``d_alpha <= U``.  Inside one bucket no ``store.get`` repeats
an id, and every id read is a candidate the read-free test left undecided
or an object within ``U(A, Q)`` of such a candidate's box.  Two fixed cases
pin the deadline: checked before the traversal and between the passes.
"""

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.config import RuntimeConfig
from repro.core import reverse_nn as reverse_module
from repro.core.database import FuzzyDatabase
from repro.core.requests import ReverseRequest
from repro.datasets.builder import build_dataset
from repro.datasets.queries import generate_query_object
from repro.exceptions import DeadlineExceededError
from repro.index.soa import min_dist_to_boxes
from repro.service import ShardedDatabase
from repro.storage.object_store import ObjectStore
from tests.conftest import assert_reverse_answer
from tests.test_bucket_rank_test import CONFIG, databases, fuzzy_objects


class BucketLog:
    """One bucket's ``store.get`` ids and the ids its reads may touch."""

    def __init__(self):
        self.reads, self.plan, self.upper, self.hits, self.undecided = [], None, None, [], None

    def run(self, answer):
        log = self
        get, plan = ObjectStore.get, reverse_module.plan_bucket_verification
        traversal, count_test = reverse_module.shared_traversal, reverse_module.count_test

        def logged_get(store, object_id):
            log.reads.append(int(object_id))
            return get(store, object_id)

        def logged_plan(*args, **kwargs):
            log.plan = plan(*args, **kwargs)
            if log.plan is not None:
                log.upper = log.plan.decisions.upper.copy()  # U(A, Q) before any read
            return log.plan

        def logged_traversal(*args, **kwargs):
            hits = traversal(*args, **kwargs)
            log.hits.append(hits)
            return hits

        def logged_count_test(*args):
            decided = count_test(*args)
            if log.undecided is None:
                log.undecided = ~decided[0] & ~decided[1]
            return decided

        with mock.patch.object(ObjectStore, "get", logged_get), mock.patch.object(
            reverse_module, "plan_bucket_verification", logged_plan
        ), mock.patch.object(
            reverse_module, "shared_traversal", logged_traversal
        ), mock.patch.object(reverse_module, "count_test", logged_count_test):
            results = answer()
        assert len(self.reads) == len(set(self.reads)), sorted(self.reads)
        assert set(self.reads) <= self.readable(), (sorted(self.reads), sorted(self.readable()))
        return results

    def readable(self):
        """Undecided candidates, and every other object whose ``L(A, B)``
        is within an undecided pair's read-free ``U(A, Q)``."""
        if self.undecided is None:
            return set()
        plan = self.plan
        pairs = np.flatnonzero(self.undecided)
        allowed = set(plan.cand_ids[plan.pair_cand[pairs]].tolist())
        for owner, ids, lo, hi, _, _ in self.hits:
            near = min_dist_to_boxes(plan.lo[owner], plan.hi[owner], lo[:, None], hi[:, None])
            for p in pairs.tolist():
                c = plan.pair_cand[p]
                mine = (owner == c) & (ids != plan.cand_ids[c]) & (near[:, 0] <= self.upper[p])
                allowed.update(ids[mine].tolist())
        return allowed


@given(
    objects=databases(),
    stored_queries=st.lists(st.integers(0, 12), max_size=2),
    fresh_queries=st.lists(fuzzy_objects(), max_size=3),
    alpha=st.sampled_from([0.5, 1.0]),
    data=st.data(),
)
# No explain phase: on a failure it can crash inside hypothesis (6.155)
# before the shrunk example is printed.
@settings(
    max_examples=150, deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
def test_reverse_buckets_read_only_what_a_count_leaves_open(
    objects, stored_queries, fresh_queries, alpha, data
):
    queries = ([objects[i % len(objects)] for i in stored_queries] + fresh_queries)[:4]
    if not queries:
        queries = [objects[0]]
    k = data.draw(st.integers(1, len(objects) + 2), label="k")
    engines = (
        FuzzyDatabase.build(list(objects), config=CONFIG),
        ShardedDatabase.build(list(objects), n_shards=3, placement="space", config=CONFIG),
    )
    try:
        for engine in engines:
            requests = [ReverseRequest(q, k=k, alpha=alpha) for q in queries]
            results = BucketLog().run(lambda: engine.execute_batch(requests))
            for query, result in zip(queries, results):
                assert_reverse_answer(result, objects, query, k, alpha)
    finally:
        for engine in engines:
            engine.close()


class TestDeadline:
    """The verification checks its deadline before its traversal, so an
    expired bucket reads nothing, and between its two passes."""

    K = 2

    @staticmethod
    def _engine(n_shards):
        objects = build_dataset(
            kind="synthetic", n_objects=36, points_per_object=16, seed=5, space_size=6.0
        )
        config = RuntimeConfig(rtree_max_entries=8, cache_capacity=32)
        if n_shards is None:
            return FuzzyDatabase.build(objects, config=config)
        return ShardedDatabase.build(objects, n_shards=n_shards, config=config)

    @staticmethod
    def _queries():
        rng = np.random.default_rng(404)
        return [
            generate_query_object(rng, kind="synthetic", space_size=6.0, points_per_object=24)
            for _ in range(3)
        ]

    @staticmethod
    def _logged_reads(monkeypatch):
        reads, get = [], ObjectStore.get

        def logged_get(store, object_id):
            reads.append(object_id)
            return get(store, object_id)

        monkeypatch.setattr(ObjectStore, "get", logged_get)
        return reads

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_expired_before_the_traversal_reads_nothing(self, monkeypatch, n_shards):
        engine = self._engine(n_shards)
        plan, reads = reverse_module.plan_bucket_verification, self._logged_reads(monkeypatch)

        def slow_plan(*args, **kwargs):
            time.sleep(0.1)
            return plan(*args, **kwargs)

        monkeypatch.setattr(reverse_module, "plan_bucket_verification", slow_plan)
        requests = [
            ReverseRequest(q, k=self.K, alpha=0.5, deadline_ms=50.0) for q in self._queries()
        ]
        try:
            with pytest.raises(DeadlineExceededError):
                engine.execute_batch(requests)
            assert reads == []
        finally:
            engine.close()

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_expired_between_the_passes_stops_before_pass_2(self, monkeypatch, n_shards):
        engine = self._engine(n_shards)
        count_test, reads = reverse_module.count_test, self._logged_reads(monkeypatch)
        read_before_test = []

        def marked(*args):
            read_before_test.append(len(reads))
            return count_test(*args)

        monkeypatch.setattr(reverse_module, "count_test", marked)
        try:
            # Unhurried, the bucket reads candidates, then in both passes;
            # its third count test is the one before pass 2.
            engine.execute_batch(
                [ReverseRequest(q, k=self.K, alpha=0.5) for q in self._queries()]
            )
            assert len(read_before_test) == 4
            before_pass_2 = read_before_test[2]
            assert 0 < before_pass_2 < len(reads)

            def slow_before_pass_2(*args):
                if len(read_before_test) == 2:
                    time.sleep(0.5)
                return marked(*args)

            monkeypatch.setattr(reverse_module, "count_test", slow_before_pass_2)
            reads.clear()
            read_before_test.clear()
            requests = [
                ReverseRequest(q, k=self.K, alpha=0.5, deadline_ms=300.0)
                for q in self._queries()
            ]
            with pytest.raises(DeadlineExceededError):
                engine.execute_batch(requests)
            assert len(read_before_test) == 3
            assert len(reads) == before_pass_2
        finally:
            engine.close()
