"""Tests for the figure harness ``benchmarks/scale.py`` itself.

The paper's shapes on its ``tiny`` grid are asserted in ``tests/test_paper.py``;
here a micro grid checks the rows one figure hands back.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "scale.py"
_spec = importlib.util.spec_from_file_location("scale", SCRIPT)
scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale)

DURABILITY = SCRIPT.parent / "bench_durability.py"
_spec = importlib.util.spec_from_file_location("bench_durability", DURABILITY)
bench_durability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_durability)

#: A micro grid so a harness test finishes in about a second.
MICRO = scale.Scale(60, 25, 5, 2, (30, 60), (3, 5), (0.1, 0.2),
                    alpha_values=(0.3, 0.7), rtree_max_entries=8)


class TestExperiments:
    def test_cost_model_validation_rows(self):
        data = scale.Datasets(MICRO, "single")
        try:
            rows = scale.sweep("sec5", data)
        finally:
            data.close()
        assert set(rows) == {"basic", "eq8"}
        for method in rows:
            assert set(rows[method]) == set(MICRO.alpha_values)
            assert all(m["object_accesses"] > 0 for m in rows[method].values())


class TestDurabilityOutput:
    """``bench_durability.py --quick`` leaves the committed baseline alone."""

    def test_a_quick_run_writes_nowhere_unless_told(self):
        assert bench_durability.parse_args(["--quick"]).output is None
        told = bench_durability.parse_args(["--quick", "--output", "/tmp/quick.json"])
        assert told.output == Path("/tmp/quick.json")

    def test_a_full_run_writes_the_baseline(self):
        assert bench_durability.parse_args([]).output == bench_durability.BASELINE_PATH
