"""Adversarial property test for the bound-then-refine closest pair.

``closest_pair`` prunes both point sets to the points whose squared gap to
the other set's box is within the squared distance of one real pair, then
solves what is left.  The claim is exactness with no tolerance: the distance
is the brute force's on the whole sets, bit for bit, and the returned
``(i, j)`` realise it.  The generators aim at what could break a prune that
compares rounded values -- coincident and duplicated points, pairs 1 ulp
apart from a tie, coordinates offset by 1e8, sets in one box (nothing to
prune), sets a gap apart, a single point on either side -- at d = 1, 2, 3.
The refine step is tested both directly, at every size, and through the
public path, where it is gated on size and may hand survivors to the
KD-tree.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import KDTREE_CROSSOVER_POINTS, PRUNE_MIN_POINTS
from repro.geometry import distance as distance_module
from repro.geometry.distance import _closest_pair_brute, _closest_pair_pruned, closest_pair

SETTINGS = dict(max_examples=150, deadline=None)
# Where set b's box sits relative to set a's, in multiples of the box side.
LAYOUTS = {"overlapping": 0.0, "offset": 0.5, "touching": 1.0, "disjoint": 1.5}


@st.composite
def point_sets(draw, max_points=40):
    """Two ``(n, d)`` float arrays built by NumPy from drawn parameters."""
    d = draw(st.integers(1, 3))
    sizes = st.one_of(st.just(1), st.integers(1, max_points))
    n, m = draw(sizes), draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.booleans())  # few distinct values: coincident points
    side = draw(st.sampled_from([1e-3, 1.0, 10.0]))

    def cloud(count):
        if grid:
            return rng.integers(0, 4, size=(count, d)).astype(float) * (side / 3)
        return rng.random((count, d)) * side

    a = cloud(n)
    b = cloud(m)
    b[:, 0] += LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))] * side
    if draw(st.booleans()):  # duplicates across the sets
        shared = min(n, m, draw(st.integers(1, 4)))
        b[:shared] = a[rng.choice(n, shared, replace=False)]
    if draw(st.booleans()):  # near-ties: translated copies, 1 ulp apart
        shift = rng.random(d) * side
        copies = min(n, m, draw(st.integers(2, 6)))
        b[:copies] = a[:copies] + shift
        b[1:copies:2] = np.nextafter(b[1:copies:2], np.inf)
    offset = draw(st.sampled_from([0.0, 1e8, -1e8]))
    return a + offset, b + offset


def assert_exact(a, b, result):
    distance, i, j = result
    assert distance == _closest_pair_brute(a, b)[0]
    # The pair, put through the same kernel on its own, gives the distance.
    assert _closest_pair_brute(a[i : i + 1], b[j : j + 1])[0] == distance


@given(sets=point_sets(), use_kdtree=st.booleans())
@settings(**SETTINGS)
def test_refine_step_is_exact(sets, use_kdtree):
    a, b = sets
    assert_exact(a, b, _closest_pair_pruned(a, b, use_kdtree))
    assert_exact(b, a, _closest_pair_pruned(b, a, use_kdtree))


@given(sets=point_sets(max_points=KDTREE_CROSSOVER_POINTS + 40))
@settings(max_examples=40, deadline=None)
def test_public_path_is_exact(sets):
    """Large sets take the gated prune, and overlapping survivors the tree."""
    a, b = sets
    assert_exact(a, b, closest_pair(a, b))


def test_public_path_reaches_prune_and_tree(monkeypatch):
    """Sets a gap apart are pruned to a few points; sets in one box keep the tree."""
    solved = []
    solve = distance_module._solve
    monkeypatch.setattr(
        distance_module,
        "_solve",
        lambda a, b, use_kdtree: solved.append((len(a), len(b))) or solve(a, b, use_kdtree),
    )
    rng = np.random.default_rng(3)
    size = KDTREE_CROSSOVER_POINTS + 20
    a = rng.random((size, 2))
    for shift, check in ((1.5, lambda n, m: n * m < size), (0.0, lambda n, m: min(n, m) >= size - 5)):
        b = rng.random((size, 2)) + [shift, 0.0]
        assert_exact(a, b, closest_pair(a, b))
        assert check(*solved[-1]), solved[-1]
    assert PRUNE_MIN_POINTS <= size
