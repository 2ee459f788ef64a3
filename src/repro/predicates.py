"""Every tolerance in the library, each once, with the comparisons that use it.

Each value carries its argument and the test that fails when its side or its
size changes (in ``tests/test_predicates.py`` unless named); a float literal
below 1e-6 elsewhere in ``src/`` fails ``tests/test_layering.py``.  Each
predicate is one NumPy expression, so a hot path (``alpha_cut``,
``DistanceProfile.value``) pays one call, not one per element.
"""

import numpy as np

#: Two membership levels within ``LEVEL_ATOL`` are one level: memberships
#: arrive normalised (``0.7000000000000001``) and thresholds as decimal
#: literals, so a bit-exact ``mu >= alpha`` would drop points from the cut
#: the caller named.  Levels 1e-13 apart stay distinct levels of a profile;
#: only a test against a threshold merges them.  Killed: ``TestLevels``.
LEVEL_ATOL = 1e-12


def at_least(levels, alpha):
    """``levels >= alpha`` as levels: ``mu`` is in the alpha-cut (at 1, the
    kernel; a looser kernel test would put ``rep(A)`` outside the cut)."""
    return levels >= alpha - LEVEL_ATOL


def above(levels, alpha):
    """``levels > alpha`` as levels: a higher level, not the same one."""
    return levels > alpha + LEVEL_ATOL


def first_at_least(levels, alpha):
    """Index of the first increasing level :func:`at_least` ``alpha``."""
    return np.searchsorted(levels, alpha - LEVEL_ATOL, side="left")


def first_above(levels, alpha):
    """Index of the first increasing level :func:`above` ``alpha``."""
    return np.searchsorted(levels, alpha + LEVEL_ATOL, side="right")


# Bounds decide against a radius with no slack: L <= d_alpha <= U holds bit
# for bit.  MinDist, MaxDist, Lemma 1 and the exact distance all square
# per-dimension coordinate differences and add them in dimension order
# before one sqrt; a box side is a coordinate of the cut (M_A(alpha)*
# encloses the cut in float: test_summary_fit_parity.py); rounding is
# monotone in every step; the KD-tree returns the brute force's value.
# Checked on d = 1..7 across the KD-tree crossover: TestBoundsHoldInFloat.


def may_reach(lower, radius):
    """``d <= radius`` is possible: the descent's prune and the subscription
    screen keep the object.  Killed: ``TestPruneAndConfirm``."""
    return lower <= radius


def confirms(upper, radius):
    """``d <= radius`` without a read: a range match, ``rank_test``'s
    ``U <= tau``.  Killed: ``TestPruneAndConfirm``."""
    return upper <= radius


#: Eq. 2's lines: the lift above a violated sampled delta (then an ulp at a
#: time until every cut box is enclosed), the bisection's "vertex above the
#: line" margin and the flat-boundary floor.  Pinned bit for bit by
#: test_summary_fit_parity.py, whose reference keeps its own copy.
CONSERVATIVE_SLACK = 1e-9

#: Not a tolerance: Algorithm 3's epsilon, how far the ``basic`` sweep steps
#: past a critical probability; as in the paper, a level closer than that is
#: stepped over (``rss`` and ``rss_icr`` step to the next level instead).
RKNN_EPSILON = 1e-9
