"""Per-method RKNN micro-benchmarks (running-time panel of Figure 14).

One RKNN query per method at the paper's default range length (L = 0.2);
``extra_info`` carries object accesses (Figure 13) and refinement steps (the
quantity Lemma 4 reduces).
"""

import pytest

from benchmarks.conftest import BENCH_SCALE
from repro.core.requests import SweepRequest
from repro.core.rknn import RKNN_METHODS

@pytest.mark.parametrize("method", RKNN_METHODS)
def test_rknn_method(benchmark, bench_bundle, bench_queries, method):
    database = bench_bundle.database
    query = bench_queries[0]
    alpha_range = BENCH_SCALE.alpha_range()

    request = SweepRequest(
        query, k=BENCH_SCALE.k, alpha_range=alpha_range, method=method
    )

    def run():
        return database.execute(request)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["object_accesses"] = result.stats.object_accesses
    benchmark.extra_info["refinement_steps"] = result.stats.refinement_steps
    benchmark.extra_info["aknn_calls"] = result.stats.aknn_calls
    assert len(result) >= BENCH_SCALE.k
