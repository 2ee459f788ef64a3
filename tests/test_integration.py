"""End-to-end integration tests across modules.

These run the complete pipeline — generate a dataset, build and persist a
database, answer AKNN / RKNN queries with every method — and cross-check all
methods against the brute-force reference on fresh random data (several seeds), which is
the strongest single consistency guarantee the suite provides.
"""

import numpy as np
import pytest

from repro import reference
from repro.config import RuntimeConfig
from repro.core.aknn import AKNN_METHODS
from repro.core.database import FuzzyDatabase
from repro.core.requests import AknnRequest, SweepRequest
from repro.datasets.builder import build_dataset
from repro.datasets.queries import generate_query_object
from tests.conftest import assert_same_assignments, sorted_exact_distances, stored_objects


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["synthetic", "cells"])
def test_all_methods_agree_on_random_datasets(seed, kind):
    """AKNN and RKNN methods all agree with the reference on random data."""
    space = 6.0
    objects = build_dataset(
        kind=kind, n_objects=40, points_per_object=30, seed=seed, space_size=space
    )
    database = FuzzyDatabase.build(objects, config=RuntimeConfig(rtree_max_entries=8))
    rng = np.random.default_rng(seed + 100)
    query = generate_query_object(rng, kind=kind, space_size=space, points_per_object=30)

    # AKNN: distance multisets must match the reference for every method.
    k, alpha = 6, 0.55
    truth = reference.aknn(stored_objects(database), query, k=k, alpha=alpha)
    expected = [distance for _, distance in truth]
    for method in AKNN_METHODS:
        result = database.execute(AknnRequest(query, k=k, alpha=alpha, method=method))
        actual = sorted_exact_distances(database, result, query, alpha)
        np.testing.assert_allclose(actual, expected, atol=1e-9)

    # RKNN: qualifying ranges must match the brute-force sweep.
    rknn_truth = reference.sweep(
        stored_objects(database), query, k=4, alpha_range=(0.35, 0.75)
    )
    for method in ("basic", "rss", "rss_icr"):
        result = database.execute(
            SweepRequest(query, k=4, alpha_range=(0.35, 0.75), method=method)
        )
        assert_same_assignments(result.assignments, rknn_truth)
    database.close()


def test_full_pipeline_with_persistence(tmp_path):
    """Generate -> build on disk -> save -> reopen -> query -> consistent."""
    objects = build_dataset(
        kind="synthetic", n_objects=35, points_per_object=25, seed=9, space_size=6.0
    )
    path = tmp_path / "pipeline_db"
    database = FuzzyDatabase.build(objects, path=path)
    database.save(path)

    rng = np.random.default_rng(4)
    query = generate_query_object(rng, kind="synthetic", space_size=6.0, points_per_object=25)
    before = sorted(database.execute(
        AknnRequest(query, k=5, alpha=0.5, method="lb")
    ).object_ids)
    truth = reference.sweep(stored_objects(database), query, k=3, alpha_range=(0.4, 0.7))
    database.close()

    reopened = FuzzyDatabase.open(path)
    reopened.validate()
    after = sorted(reopened.execute(
        AknnRequest(query, k=5, alpha=0.5, method="lb")
    ).object_ids)
    assert after == before
    rknn = reopened.execute(
        SweepRequest(query, k=3, alpha_range=(0.4, 0.7), method="rss_icr")
    )
    assert_same_assignments(rknn.assignments, truth)
    reopened.close()


def test_cost_trends_match_paper_shape():
    """The qualitative cost relationships of the evaluation hold end to end:

    * every optimisation level accesses no more objects than the basic AKNN,
    * RSS accesses at least an order of magnitude fewer objects than the basic
      RKNN sweep on a dense dataset,
    * RSS-ICR performs no more refinement steps than RSS.
    """
    objects = build_dataset(
        kind="synthetic", n_objects=150, points_per_object=40, seed=21, space_size=5.5
    )
    database = FuzzyDatabase.build(objects, config=RuntimeConfig(rtree_max_entries=16))
    rng = np.random.default_rng(77)
    queries = [
        generate_query_object(rng, kind="synthetic", space_size=5.5, points_per_object=40)
        for _ in range(2)
    ]

    aknn_totals = {method: 0 for method in AKNN_METHODS}
    for query in queries:
        for method in AKNN_METHODS:
            result = database.execute(
                AknnRequest(query, k=10, alpha=0.7, method=method)
            )
            aknn_totals[method] += result.stats.object_accesses
    assert aknn_totals["lb"] <= aknn_totals["basic"]
    assert aknn_totals["lb_lp"] <= aknn_totals["basic"]
    assert aknn_totals["lb_lp_ub"] <= aknn_totals["basic"]

    basic_accesses = 0
    rss_accesses = 0
    rss_steps = 0
    icr_steps = 0
    for query in queries:
        basic_accesses += database.execute(
            SweepRequest(query, k=10, alpha_range=(0.3, 0.7), method="basic")
        ).stats.object_accesses
        rss_result = database.execute(
            SweepRequest(query, k=10, alpha_range=(0.3, 0.7), method="rss")
        )
        rss_accesses += rss_result.stats.object_accesses
        rss_steps += rss_result.stats.refinement_steps
        icr_steps += database.execute(
            SweepRequest(query, k=10, alpha_range=(0.3, 0.7), method="rss_icr")
        ).stats.refinement_steps
    assert rss_accesses * 3 <= basic_accesses  # well below the basic sweep
    assert icr_steps <= rss_steps
    database.close()


def test_public_api_importable():
    """Everything advertised in ``repro.__all__`` resolves to a real object."""
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None
