"""The paper's Figures 11-15 and its Sec. 5 cost model, swept on both engines.

Each figure varies one axis of Table 2 (N, k, alpha, range length L, dataset)
and runs every method the paper plots on one ``FuzzyDatabase`` and on three
space-placed shards, printing per-query object accesses, running time, AKNN
calls and refinement steps (``sec5``: also Eq. 8's prediction and the ratio).
Under each table it prints what building the figure's databases cost: build
seconds and objects per second per dataset and N.
``tests/test_paper.py`` asserts the shapes of the ``tiny`` grid (seconds);
``laptop`` takes minutes and ``paper`` (Table 2 itself) hours::

    PYTHONPATH=src python benchmarks/scale.py all --scale tiny
"""

from __future__ import annotations

import argparse
import math
import time
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.analysis.cost_model import AccessCostModel
from repro.config import DEFAULT_RTREE_MAX_ENTRIES, DEFAULTS, RuntimeConfig
from repro.core.database import FuzzyDatabase
from repro.core.requests import AknnRequest, SweepRequest
from repro.datasets.builder import build_dataset
from repro.datasets.queries import generate_query_object
from repro.service.sharded import ShardedDatabase

ENGINES = ("single", "sharded")
AKNN_METHODS = ("basic", "lb", "lb_lp", "lb_lp_ub")
SWEEP_METHODS = ("basic", "rss", "rss_icr")
# QueryStats fields, averaged per query.
METRICS = ("object_accesses", "elapsed_seconds", "aknn_calls", "refinement_steps")
ALPHA, RANGE_START, RANGE_LENGTH = 0.5, 0.4, 0.2
SEED, QUERY_SEED = 7, 1234


class Scale(NamedTuple):
    """Table 2's defaults and each figure's x axis, at one size."""

    n_objects: int
    points_per_object: int
    k: int
    n_queries: int
    n_values: Tuple[int, ...]
    k_values: Tuple[int, ...]
    range_lengths: Tuple[float, ...]
    alpha_values: Tuple[float, ...] = (0.3, 0.5, 0.7, 0.9)
    rtree_max_entries: int = DEFAULT_RTREE_MAX_ENTRIES


SCALES = {
    "tiny": Scale(400, 60, 10, 2, (100, 200, 400), (5, 10, 20), (0.05, 0.1, 0.2),
                  rtree_max_entries=16),
    "laptop": Scale(2_000, 100, 20, 3, (500, 1_000, 2_000, 5_000), (5, 10, 20, 50),
                    (0.05, 0.1, 0.2, 0.5)),
    "paper": Scale(50_000, 1_000, 20, 10, (1_000, 5_000, 10_000, 50_000), (5, 10, 20, 50),
                   (0.05, 0.1, 0.2, 0.5)),
}

FIGURES = {  # id: (title, x axis)
    "fig11a": ("AKNN vs N (Fig. 11a/12a)", "N"),
    "fig11b": ("AKNN vs k (Fig. 11b/12b)", "k"),
    "fig11c": ("AKNN vs alpha (Fig. 11c/12c)", "alpha"),
    "fig13a": ("sweep vs N (Fig. 13a/14a)", "N"),
    "fig13b": ("sweep vs k (Fig. 13b/14b)", "k"),
    "fig13c": ("sweep vs range length L (Fig. 13c/14c)", "L"),
    "fig15": ("AKNN on synthetic vs cells (Fig. 15a/b)", "dataset"),
    "sec5": ("basic AKNN vs Equation 8 (Sec. 5)", "alpha"),
}


def space_for(n_objects: int) -> float:
    """Side of the square holding ``n_objects`` at Table 2's density (5 per unit
    square, so supports overlap and the support-MBR bound is loose)."""
    return float(math.sqrt(n_objects / (DEFAULTS.n_objects / DEFAULTS.space_size**2)))


class Datasets:
    """One engine's databases, each (dataset, N, space) built once and kept open."""

    def __init__(self, scale: Scale, engine: str) -> None:
        self.scale, self.engine = scale, engine
        self._open: Dict[tuple, tuple] = {}
        # Seconds each (dataset, N, space) took to build, and the keys asked
        # for since ``used`` was last cleared.
        self.build_seconds: Dict[tuple, float] = {}
        self.used: List[tuple] = []

    def get(self, kind: str = "synthetic", n_objects: int = 0, space: float = 0.0):
        """``(database, queries)``; N and the space default to the scale's."""
        n_objects = n_objects or self.scale.n_objects
        space = space or space_for(n_objects)
        key = (kind, n_objects, space)
        if key not in self.used:
            self.used.append(key)
        if key not in self._open:
            points = self.scale.points_per_object
            objects = build_dataset(kind, n_objects, points, SEED, space)
            config = RuntimeConfig(rtree_max_entries=self.scale.rtree_max_entries)
            rng = np.random.default_rng(SEED + 1)
            start = time.perf_counter()
            if self.engine == "single":
                database = FuzzyDatabase.build(objects, config=config, rng=rng)
            else:
                database = ShardedDatabase.build(
                    objects, n_shards=3, placement="space", config=config, rng=rng
                )
            self.build_seconds[key] = time.perf_counter() - start
            query_rng = np.random.default_rng(QUERY_SEED)
            queries = [
                generate_query_object(query_rng, kind, space_size=space, points_per_object=points)
                for _ in range(self.scale.n_queries)
            ]
            self._open[key] = (database, queries)
        return self._open[key]

    def close(self) -> None:
        for database, _ in self._open.values():
            database.close()
        self._open.clear()


def aknn(k, alpha, method):
    return lambda query: AknnRequest(query, k=k, alpha=alpha, method=method)


def swept(k, length, method):
    alpha_range = (RANGE_START, min(1.0, RANGE_START + length))
    return lambda query: SweepRequest(query, k=k, alpha_range=alpha_range, method=method)


def sweep(figure: str, data: Datasets) -> Dict[str, Dict[object, Dict[str, float]]]:
    """``{method: {x: {metric: per-query average}}}`` of one figure on ``data``'s engine."""
    s, get = data.scale, data.get
    dense = space_for(max(s.n_values))  # the paper grows N inside one space
    xs, methods, case = {
        "fig11a": (s.n_values, AKNN_METHODS,
                   lambda n, m: (get(n_objects=n, space=dense), aknn(s.k, ALPHA, m))),
        "fig11b": (s.k_values, AKNN_METHODS, lambda k, m: (get(), aknn(k, ALPHA, m))),
        "fig11c": (s.alpha_values, AKNN_METHODS, lambda a, m: (get(), aknn(s.k, a, m))),
        "fig13a": (s.n_values, SWEEP_METHODS,
                   lambda n, m: (get(n_objects=n, space=dense), swept(s.k, RANGE_LENGTH, m))),
        "fig13b": (s.k_values, SWEEP_METHODS, lambda k, m: (get(), swept(k, RANGE_LENGTH, m))),
        "fig13c": (s.range_lengths, SWEEP_METHODS, lambda L, m: (get(), swept(s.k, L, m))),
        "fig15": (("synthetic", "cells"), AKNN_METHODS,
                  lambda kind, m: (get(kind), aknn(s.k, ALPHA, m))),
        "sec5": (s.alpha_values, ("basic",), lambda a, m: (get(), aknn(s.k, a, m))),
    }[figure]
    rows: Dict[str, Dict[object, Dict[str, float]]] = {method: {} for method in methods}
    for x in xs:
        for method in methods:
            (database, queries), request = case(x, method)
            totals = dict.fromkeys(METRICS, 0.0)
            for query in queries:
                database.reset_statistics()
                stats = database.execute(request(query)).stats
                for name in METRICS:
                    totals[name] += getattr(stats, name)
            rows[method][x] = {name: total / len(queries) for name, total in totals.items()}
    if figure == "sec5":
        model = AccessCostModel.for_synthetic_dataset(
            s.n_objects, space_for(s.n_objects), node_capacity=s.rtree_max_entries
        )
        rows["eq8"] = {a: dict(dict.fromkeys(METRICS, 0.0),
                               object_accesses=model.predict_object_accesses(s.k, a))
                       for a in s.alpha_values}
    return rows


def report(figure: str, engine: str, rows, data: Datasets) -> None:
    title, axis = FIGURES[figure]
    print(f"{figure} [{engine}]: {title}")
    print(f"  {'method':<9}{axis:>10}{'accesses':>10}{'time_ms':>9}{'aknn':>7}{'refine':>8}")
    for method, by_x in rows.items():
        for x, m in by_x.items():
            print(f"  {method:<9}{x!s:>10}{m['object_accesses']:>10.1f}"
                  f"{m['elapsed_seconds'] * 1e3:>9.2f}{m['aknn_calls']:>7.1f}"
                  f"{m['refinement_steps']:>8.1f}")
    if figure == "sec5":
        for alpha, m in rows["basic"].items():
            measured, predicted = m["object_accesses"], rows["eq8"][alpha]["object_accesses"]
            print(f"  measured / Eq. 8 at alpha={alpha}: "
                  f"{measured:.1f} / {predicted:.1f} = {measured / predicted:.2f}")
    for key in data.used:
        (kind, n_objects, _), seconds = key, data.build_seconds[key]
        print(f"  build {kind} N={n_objects}: {seconds:.2f} s, "
              f"{n_objects / seconds:.0f} objects/s")
    print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("figure", choices=sorted(FIGURES) + ["all"])
    parser.add_argument("--scale", choices=sorted(SCALES), default="laptop")
    args = parser.parse_args(argv)
    for engine in ENGINES:
        data = Datasets(SCALES[args.scale], engine)
        try:
            for figure in sorted(FIGURES) if args.figure == "all" else [args.figure]:
                data.used.clear()
                report(figure, engine, sweep(figure, data), data)
        finally:
            data.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
