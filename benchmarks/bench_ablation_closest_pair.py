"""Ablation: brute-force versus KD-tree closest-pair kernels.

The alpha-distance evaluation is a closest-pair problem between two point
sets.  ``closest_pair`` takes the argmin over the blocked pairwise kernel
below ``min(n, m) == KDTREE_CROSSOVER_POINTS`` and a KD-tree from there on;
this ablation times the two kernels *themselves* (not through the public
switch, which would apply the crossover to both arms) on square sizes either
side of the constant and on two rectangular shapes, so the table it prints is
what the constant is set from:

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_closest_pair.py \
        --benchmark-group-by=group --benchmark-columns=min,median,rounds

With ``--benchmark-disable`` (CI) each case runs once and only the
brute == tree assertion is checked.
"""

import numpy as np
import pytest

from repro.geometry.distance import _closest_pair_brute, _closest_pair_kdtree

KERNELS = {"brute_force": _closest_pair_brute, "kdtree": _closest_pair_kdtree}
SHAPES = [(n, n) for n in (16, 32, 64, 100, 128, 160, 200, 255, 512, 1024)] + [
    (30, 800),
    (255, 800),
]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: f"{shape[0]}x{shape[1]}")
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_closest_pair_kernel(benchmark, shape, kernel):
    rng = np.random.default_rng(shape)
    points_a = rng.random((shape[0], 2)) * 10.0
    points_b = rng.random((shape[1], 2)) * 10.0 + 5.0
    benchmark.group = f"{shape[0]:4d} x {shape[1]:4d}"

    distance, i, j = benchmark(KERNELS[kernel], points_a, points_b)
    # The pair realises the distance, and both kernels return the same one.
    assert np.linalg.norm(points_a[i] - points_b[j]) == pytest.approx(distance, rel=1e-15)
    for other in KERNELS.values():
        assert other(points_a, points_b)[0] == pytest.approx(distance, rel=1e-15)
