"""The paper's evaluation as assertions: Figures 11-15 and Sec. 5, on both engines.

``benchmarks/scale.py`` sweeps every figure's axis; this module runs its
``tiny`` grid (N = 400 objects of 60 points at Table 2's density, k = 10,
two queries, 16-entry R-tree nodes) once per engine -- one ``FuzzyDatabase``
and three space-placed shards -- and asserts the shapes the paper reports.
``PYTHONPATH=src python benchmarks/scale.py all --scale tiny`` prints the
numbers asserted here.  Costs are object accesses, the paper's first axis,
unless a test names another counter; running time is printed, not asserted.
"""

import functools
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "scale.py"
_spec = importlib.util.spec_from_file_location("scale", SCRIPT)
scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale)


@functools.lru_cache(maxsize=None)
def figures(engine):
    """``{figure: {method: {x: metrics}}}`` for one engine.

    Every figure is swept in one fixed order over databases built once, so
    the numbers are what ``scale.py all --scale tiny`` prints whatever order
    the tests run in.
    """
    data = scale.Datasets(scale.SCALES["tiny"], engine)
    try:
        return {figure: scale.sweep(figure, data) for figure in sorted(scale.FIGURES)}
    finally:
        data.close()


@pytest.fixture(scope="module", params=scale.ENGINES)
def paper(request):
    return figures(request.param)


def counter(rows, method, name):
    return {x: metrics[name] for x, metrics in rows[method].items()}


def accesses(rows, method):
    return counter(rows, method, "object_accesses")


def non_decreasing(series):
    values = [series[x] for x in sorted(series)]
    return all(a <= b for a, b in zip(values, values[1:]))


def assert_bounds_ordered(rows):
    """LB-LP-UB <= LB-LP <= LB <= basic at every x: each bound of Sec. 3 prunes more."""
    basic, lb, lb_lp, ub = (accesses(rows, m) for m in scale.AKNN_METHODS)
    for x in basic:
        assert ub[x] <= lb_lp[x] <= lb[x] <= basic[x], (x, ub[x], lb_lp[x], lb[x], basic[x])


def assert_icr_refines_less(rows):
    """Lemma 4: RSS-ICR never needs more refinement steps than RSS."""
    rss = counter(rows, "rss", "refinement_steps")
    icr = counter(rows, "rss_icr", "refinement_steps")
    assert all(icr[x] <= rss[x] for x in rss), (icr, rss)


def assert_icr_reads_no_more_than_rss(rows):
    """RSS-ICR decides from the bounds at the range's two ends what RSS
    reads to find out, so it reads no more objects at any x."""
    rss, icr = accesses(rows, "rss"), accesses(rows, "rss_icr")
    assert all(icr[x] <= rss[x] for x in rss), (icr, rss)


def assert_rss_prunes_the_sweep(rows):
    """RSS and RSS-ICR read no more objects than the basic sweep at any x."""
    basic = accesses(rows, "basic")
    for method in ("rss", "rss_icr"):
        assert all(accesses(rows, method)[x] <= basic[x] for x in basic), method


# ----------------------------------------------------------------------
# AKNN: Figures 11 / 12 and 15
# ----------------------------------------------------------------------
def test_fig11a_aknn_grows_with_n_and_bounds_stay_ordered(paper):
    rows = paper["fig11a"]
    assert non_decreasing(accesses(rows, "basic"))
    assert_bounds_ordered(rows)


def test_fig11b_aknn_grows_with_k_and_the_optimised_search_grows_less(paper):
    rows = paper["fig11b"]
    basic, optimised = accesses(rows, "basic"), accesses(rows, "lb_lp_ub")
    assert non_decreasing(basic) and non_decreasing(optimised)
    low, high = min(basic), max(basic)
    assert optimised[high] - optimised[low] <= basic[high] - basic[low]
    assert_bounds_ordered(rows)


def test_fig11c_basic_rises_and_lb_lp_ub_falls_as_alpha_grows(paper):
    """The evaluation's signature trend (tiny, one tree: basic 12 -> 19, LB-LP-UB 9 -> 5).

    The basic search prunes with the support MBR, fixed in alpha, while the
    k-th alpha-distance grows; the alpha-cut boxes of Eq. 2 shrink with it.
    """
    rows = paper["fig11c"]
    assert non_decreasing(accesses(rows, "basic"))
    optimised = accesses(rows, "lb_lp_ub")
    assert non_decreasing({alpha: -value for alpha, value in optimised.items()})
    assert optimised[max(optimised)] < optimised[min(optimised)]
    assert_bounds_ordered(rows)


def test_fig15_bounds_ordered_on_synthetic_and_cells(paper):
    rows = paper["fig15"]
    assert set(rows["basic"]) == {"synthetic", "cells"}
    assert_bounds_ordered(rows)
    basic, optimised = accesses(rows, "basic"), accesses(rows, "lb_lp_ub")
    assert all(optimised[kind] < basic[kind] for kind in basic)


# ----------------------------------------------------------------------
# The alpha-range sweep: Figures 13 / 14
# ----------------------------------------------------------------------
def test_fig13a_basic_sweep_grows_with_n(paper):
    assert non_decreasing(accesses(paper["fig13a"], "basic"))


def test_fig13a_rss_is_3x_cheaper_than_basic_at_the_largest_n(paper):
    rows = paper["fig13a"]
    assert_rss_prunes_the_sweep(rows)
    largest = max(rows["basic"])
    assert 3 * accesses(rows, "rss")[largest] <= accesses(rows, "basic")[largest]
    assert_icr_refines_less(rows)
    assert_icr_reads_no_more_than_rss(rows)


def test_fig13b_sweep_grows_with_k_and_rss_prunes_it(paper):
    rows = paper["fig13b"]
    assert non_decreasing(accesses(rows, "basic"))
    assert_rss_prunes_the_sweep(rows)
    assert_icr_refines_less(rows)
    assert_icr_reads_no_more_than_rss(rows)


def test_fig13c_basic_grows_with_l_while_rss_stays_flat(paper):
    """Tiny, one tree: basic 62 -> 162.5 as L goes 0.05 -> 0.2, RSS 24 -> 26.5.

    RSS pays one AKNN query and one range search whatever L is, while the
    basic sweep issues an AKNN query per critical probability.
    """
    rows = paper["fig13c"]
    basic, rss = accesses(rows, "basic"), accesses(rows, "rss")
    assert non_decreasing(counter(rows, "basic", "aknn_calls"))
    assert non_decreasing(basic)
    assert max(rss.values()) <= 1.25 * min(rss.values()), rss
    longest = max(basic)
    assert 3 * rss[longest] <= basic[longest]
    assert_rss_prunes_the_sweep(rows)
    assert_icr_refines_less(rows)
    assert_icr_reads_no_more_than_rss(rows)


# ----------------------------------------------------------------------
# Section 5: the access cost model
# ----------------------------------------------------------------------
# Eq. 8 models one R-tree over ideal spherical objects with uniform centres
# and replaces the kNN search by a range query of the expected k-th radius,
# so it is an estimate, not a count.  On the tiny grid the measured basic
# AKNN sits at 1.20-1.50x the prediction (12/10, 15/10, 16/11.9, 19/15.5 at
# alpha = 0.3 ... 0.9).  A factor of two either way leaves room for that
# modelling gap and still fails when the support-MBR bound stops pruning (the
# search reads up to all 400 objects) or the access counter stops counting.
# Three shards pay exactly what the one tree pays (see the test below), so
# the same bound holds on both engines.
SEC5_TOLERANCE = (0.5, 2.0)


def test_sec5_eq8_predicts_basic_aknn_within_2x_and_both_rise_with_alpha(paper):
    rows = paper["sec5"]
    measured, predicted = accesses(rows, "basic"), accesses(rows, "eq8")
    low, high = SEC5_TOLERANCE
    for alpha in measured:
        assert low <= measured[alpha] / predicted[alpha] <= high, (
            alpha, measured[alpha], predicted[alpha]
        )
    assert non_decreasing(measured)
    assert non_decreasing(predicted)
    assert measured[max(measured)] > measured[min(measured)]


# ----------------------------------------------------------------------
# A partition set pays what one tree pays
# ----------------------------------------------------------------------
def test_three_shards_pay_the_object_accesses_of_one_tree():
    """Every AKNN and sweep row: one best-first search over the shards' roots
    reads exactly the objects the one tree reads."""
    single, sharded = figures("single"), figures("sharded")
    rows = 0
    for figure in sorted(scale.FIGURES):
        for method, by_x in single[figure].items():
            if method == "eq8":
                continue
            for x, metrics in by_x.items():
                got = sharded[figure][method][x]["object_accesses"]
                assert got == metrics["object_accesses"], (figure, method, x, got, metrics)
                rows += 1
    assert rows == 79  # every AKNN and sweep method at every x of the eight figures
