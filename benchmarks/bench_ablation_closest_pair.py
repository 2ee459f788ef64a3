"""Ablation: brute-force versus KD-tree closest-pair kernels, and the public path.

The alpha-distance evaluation is a closest-pair problem between two point
sets.  ``closest_pair`` first prunes both sets to the points that can take
part (once both have ``PRUNE_MIN_POINTS``), then takes the argmin over the
blocked pairwise kernel below ``min(n, m) == KDTREE_CROSSOVER_POINTS`` and a
KD-tree from there on.  This ablation times the two kernels *themselves* on
square sizes either side of both constants and on two rectangular shapes,
each pair of sets overlapping by half their extent (``offset``); two more
cases show what the prune can and cannot do -- sets a gap apart
(``separated``) and one box holding both (``overlapping``, nothing to
prune).  The third arm is the public ``closest_pair``, prune included, so
the table it prints is what both constants are set from:

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_closest_pair.py \
        --benchmark-group-by=group --benchmark-columns=min,median,rounds

With ``--benchmark-disable`` (CI) each case runs once and only the
assertions are checked: every arm returns the same distance, bit for bit,
and a pair that realises it.
"""

import numpy as np
import pytest

from repro.geometry.distance import _closest_pair_brute, _closest_pair_kdtree, closest_pair

ARMS = {"brute_force": _closest_pair_brute, "kdtree": _closest_pair_kdtree, "public": closest_pair}
# Offset of set b's unit box from set a's, in multiples of the box's side.
LAYOUTS = {"offset": 0.5, "separated": 1.2, "overlapping": 0.0}
CASES = (
    [(n, n, "offset") for n in (16, 32, 48, 64, 100, 128, 160, 200, 255, 350, 512, 1024)]
    + [(30, 800, "offset"), (255, 800, "offset")]
    + [(350, 350, "separated"), (350, 350, "overlapping")]
)


@pytest.mark.parametrize("case", CASES, ids=lambda case: f"{case[0]}x{case[1]}-{case[2]}")
@pytest.mark.parametrize("arm", list(ARMS))
def test_closest_pair_kernel(benchmark, case, arm):
    n, m, layout = case
    rng = np.random.default_rng((n, m, len(layout)))
    points_a = rng.random((n, 2)) * 10.0
    points_b = (rng.random((m, 2)) + LAYOUTS[layout]) * 10.0
    benchmark.group = f"{n:4d} x {m:4d} {layout}"

    distance, i, j = benchmark(ARMS[arm], points_a, points_b)
    # The pair realises the distance (summed per dimension, as the kernel
    # does), and every arm returns the same one.
    assert np.sqrt(np.square(points_a[i] - points_b[j]).sum()) == distance
    for other in ARMS.values():
        assert other(points_a, points_b)[0] == distance
