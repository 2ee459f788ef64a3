"""Tests for the vectorized batch query executor.

The load-bearing property is *parity*: a bucket of ``AknnRequest``s sharing
``(k, alpha, method)`` — answered by one shared traversal — must return
exactly the same neighbour sets as executing each request on its own (the
single-query searcher), for every AKNN method variant: exact distances under
``basic`` / ``lb``, and bounds around the ones a lazy method confirms.
The executor's own telemetry (:class:`BatchResult` stats) is asserted on
:class:`BatchQueryExecutor` directly.
"""

import numpy as np
import pytest

from repro import reference
from repro.config import RuntimeConfig
from repro.core.aknn import AKNN_METHODS
from repro.core.executor import BatchQueryExecutor
from repro.core.requests import AknnRequest
from repro.datasets.builder import build_database
from repro.datasets.queries import generate_query_object
from repro.exceptions import InvalidQueryError
from repro.fuzzy.alpha_distance import alpha_distance
from tests.conftest import stored_objects


@pytest.fixture(scope="module")
def database():
    return build_database(
        n_objects=250,
        points_per_object=24,
        seed=17,
        config=RuntimeConfig(rtree_max_entries=8, cache_capacity=64),
    )


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(1234)
    return [generate_query_object(rng, points_per_object=24) for _ in range(12)]


@pytest.fixture(scope="module")
def executor(database):
    return BatchQueryExecutor(database.store, database.tree, database.config)


def batch_of(database, queries, **params):
    """One shared-bucket submission: per-request results in query order."""
    return database.execute_batch([AknnRequest(q, **params) for q in queries])


def radii_of(database, queries, k, alpha):
    """Each query's k-th neighbour distance: the radii an executor is handed."""
    batch = batch_of(database, queries, k=k, alpha=alpha)
    return np.array([result.neighbors[-1].distance for result in batch])


class TestBatchParity:
    @pytest.mark.parametrize("method", AKNN_METHODS)
    def test_neighbor_sets_match_single_query_path(self, database, queries, method):
        batch = batch_of(database, queries, k=7, alpha=0.5, method=method)
        assert len(batch) == len(queries)
        for query, result in zip(queries, batch):
            single = database.execute(AknnRequest(query, k=7, alpha=0.5, method=method))
            assert set(result.object_ids) == set(single.object_ids)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.85])
    @pytest.mark.parametrize("k", [1, 5, 15])
    def test_parity_across_k_and_alpha(self, database, queries, k, alpha):
        batch = batch_of(database, queries[:6], k=k, alpha=alpha)
        for query, result in zip(queries, batch):
            single = database.execute(AknnRequest(query, k=k, alpha=alpha))
            assert set(result.object_ids) == set(single.object_ids)

    def test_distances_are_exact(self, database, queries):
        """``basic`` / ``lb`` report every distance exact; the lazy methods
        report a probed neighbour's exactly and bound the ones they confirm."""
        for method in AKNN_METHODS:
            batch = batch_of(database, queries[:3], k=5, alpha=0.5, method=method)
            confirmed = 0
            for query, result in zip(queries, batch):
                for neighbor in result.neighbors:
                    obj = database.get_object(neighbor.object_id)
                    expected = alpha_distance(obj, query, 0.5)
                    if neighbor.probed:
                        assert neighbor.distance == pytest.approx(expected, abs=1e-9)
                    else:
                        confirmed += 1
                        assert neighbor.distance is None
                        assert neighbor.lower_bound <= expected <= neighbor.upper_bound
            if method in ("basic", "lb"):
                assert confirmed == 0
            elif method == "lb_lp_ub":
                assert confirmed > 0

    def test_matches_linear_scan_ground_truth(self, database, queries):
        batch = batch_of(database, queries[:4], k=6, alpha=0.6)
        for query, result in zip(queries, batch):
            truth = reference.aknn(stored_objects(database), query, k=6, alpha=0.6)
            assert set(result.object_ids) == {object_id for object_id, _ in truth}

    def test_repeated_batches_are_stable(self, database, queries):
        """The cached representative index must not drift across calls."""
        first = batch_of(database, queries[:5], k=4, alpha=0.5)
        second = batch_of(database, queries[:5], k=4, alpha=0.5)
        for a, b in zip(first, second):
            assert a.object_ids == b.object_ids


class TestBatchEdgeCases:
    def test_k_larger_than_database_returns_everything(self, database, queries):
        batch = batch_of(database, queries[:2], k=len(database) + 10, alpha=0.5)
        for result in batch:
            assert len(result) == len(database)

    def test_empty_batch(self, database, executor):
        assert database.execute_batch([]) == []
        batch = executor.aknn_batch([], k=3, alpha=0.5)
        assert len(batch) == 0
        assert batch.stats.extra["batch_queries"] == 0.0

    def test_invalid_k_rejected(self, executor, queries):
        with pytest.raises(InvalidQueryError):
            AknnRequest(queries[0], k=0, alpha=0.5)
        with pytest.raises(InvalidQueryError):
            executor.aknn_batch(queries[:1], k=0, alpha=0.5)

    def test_invalid_method_rejected(self, executor, queries):
        with pytest.raises(InvalidQueryError):
            AknnRequest(queries[0], k=3, alpha=0.5, method="nope")
        with pytest.raises(InvalidQueryError):
            executor.aknn_batch(queries[:1], k=3, alpha=0.5, method="nope")

    def test_invalid_alpha_rejected(self, executor, queries):
        with pytest.raises(InvalidQueryError):
            AknnRequest(queries[0], k=3, alpha=0.0)
        with pytest.raises(InvalidQueryError):
            executor.aknn_batch(queries[:1], k=3, alpha=0.0)


class TestBatchStats:
    def test_aggregate_stats_shape(self, database, executor, queries):
        radii = radii_of(database, queries, k=5, alpha=0.5)
        batch = executor.aknn_batch(queries, k=5, alpha=0.5, initial_tau=radii)
        stats = batch.stats
        assert stats.aknn_calls == len(queries)
        assert stats.extra["batch_queries"] == float(len(queries))
        assert stats.node_accesses >= 1
        assert stats.distance_evaluations > 0
        assert stats.elapsed_seconds > 0
        assert batch.throughput_qps > 0
        assert stats.extra["throughput_qps"] == pytest.approx(batch.throughput_qps)

    def test_shared_traversal_visits_nodes_once(self, database, executor, queries):
        """Batch node accesses must undercut the summed single-query visits."""
        radii = radii_of(database, queries, k=5, alpha=0.5)
        batch = executor.aknn_batch(queries, k=5, alpha=0.5, initial_tau=radii)
        total_nodes = database.tree.node_count()
        assert batch.stats.node_accesses <= total_nodes

    def test_objects_fetched_once_per_batch(self, database, queries, monkeypatch):
        """One probe pass: no object is read twice, every probed neighbour
        was read, and a neighbour the bounds confirmed never was."""
        fetched = []
        get = database.store.get

        def logged(object_id, *args, **kwargs):
            fetched.append(object_id)
            return get(object_id, *args, **kwargs)

        monkeypatch.setattr(database.store, "get", logged)
        batch = batch_of(database, queries, k=5, alpha=0.5)
        assert len(fetched) == len(set(fetched)) <= len(database)
        neighbors = [n for result in batch for n in result.neighbors]
        assert {n.object_id for n in neighbors if n.probed} <= set(fetched)
        unread = {n.object_id for n in neighbors if not n.probed} - set(fetched)
        assert unread

    def test_per_query_results_carry_distance_counts(self, database, queries):
        batch = batch_of(database, queries[:3], k=4, alpha=0.5)
        for result in batch:
            assert result.stats.aknn_calls == 1
            assert result.stats.distance_evaluations >= 0
