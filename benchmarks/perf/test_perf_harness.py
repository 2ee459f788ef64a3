"""Tests of the benchmark harness itself (``--quick`` sizes, < 30 s).

They pin what makes the benchmark trustworthy: the printed names and units
are BENCHMARK.json's, counts repeat exactly for a seed, self time handles
parallel children, the open-loop generator does not hide a stall, and
un-patching puts every wrapped callable back.
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import perf_layers  # noqa: E402
from perf_harness import run_open_loop  # noqa: E402
from perf_tracing import Patcher, TraceReport, Tracer, self_time, union_length  # noqa: E402
from perf_workloads import WORKLOADS  # noqa: E402

_spec = importlib.util.spec_from_file_location("perf_run", HERE / "run.py")
perf_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_run)

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def quick(name: str, seed: int, trace: bool, tmp_path: Path) -> dict:
    workload = WORKLOADS[name](seed, 10.0, True, tmp_path / f"{name}-{seed}-{int(trace)}")
    workload.workdir.mkdir(parents=True)
    return perf_run.measure(workload, trace, freeze=False)


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0.0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_output_names_and_units_equal_benchmark_json(name, trace, tmp_path):
    detail = quick(name, 5, trace, tmp_path)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    # Every declared metric is computed by the run, none defaulted.
    assert set(detail["metrics"]) == {m["name"] for m in declared}
    line = perf_run.result_line(detail, SPEC)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    if not trace:
        assert all(entry["value"] > 0.0 for entry in line["metrics"].values())
    else:
        assert detail["metrics"]["harness.layer_sum_frac"] == pytest.approx(1.0, abs=0.1)


def counts_of(name: str, seed: int, tmp_path: Path) -> dict:
    counts = quick(name, seed, False, tmp_path)["counts"]
    return {k: v for k, v in counts.items() if k not in perf_run.RACY_COUNTS}


def test_counts_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    # serve_aknn is the threaded path whose time-coalesced counts once drifted.
    first = counts_of("serve_aknn", 3, tmp_path / "a")
    again = counts_of("serve_aknn", 3, tmp_path / "b")
    assert first == again
    # The seed only re-orders a fixed multiset of work, so on the read-only
    # workloads the access count is the same for every seed; where reads run
    # beside writes, which query meets which state depends on the seed.
    assert first == counts_of("serve_aknn", 4, tmp_path / "c")
    churn = [
        counts_of("durable_churn", seed, tmp_path / f"d{i}")
        for i, seed in enumerate((3, 3, 4))
    ]
    assert churn[0] == churn[1]
    assert churn[0]["object_accesses_per_op"] != churn[2]["object_accesses_per_op"]


def test_self_time_with_overlapping_parallel_children():
    assert union_length([(1, 6), (4, 9), (20, 21)]) == pytest.approx(9.0)
    assert self_time(0, 10, [(1, 6), (4, 9)]) == pytest.approx(2.0)
    # children that stick out of the parent are clipped to it
    assert self_time(0, 10, [(-5, 2), (8, 30)]) == pytest.approx(6.0)
    spans = [
        (0, "harness:block", 0.0, 10.0, None, None, 1),
        (1, "service.sharded:shard_call", 1.0, 6.0, 0, 0, 2),
        (2, "service.sharded:shard_call", 4.0, 9.0, 0, 1, 3),
        (3, "core.executor:aknn_batch", 4.0, 8.0, 2, None, 3),
    ]
    report = TraceReport(spans, {(3, "index.soa:min_dist"): [2, 1.0, 1.0, 64, 2, 1.0]}, {})
    assert report.self_s[0] == pytest.approx(2.0)
    # two workers covered 8 s with 10 s of spans: each counts for 0.8
    assert report.weight[1] == report.weight[2] == pytest.approx(0.8)
    assert report.weight[3] == pytest.approx(0.8)
    assert report.self_s[3] == pytest.approx(3.0)  # 4 s minus 1 s inside the kernel
    layers = report.layer_self_s()
    assert layers["index.soa"] == pytest.approx(0.8)
    assert sum(layers.values()) == pytest.approx(report.root_wall_s()) == pytest.approx(10.0)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_charges_a_stall_to_the_requests_due_during_it():
    clock = FakeClock()

    def submit(i):
        clock.now += 0.050 if i == 3 else 0.001  # the service blocks request 3
        future = Future()
        future.set_result(i)
        return future

    offsets = [0.010 * i for i in range(10)]
    out = run_open_loop(submit, offsets, clock=clock, sleep=clock.sleep)
    latency = out.latency_ms(limit_ms=1000.0)
    assert out.failed == 0
    assert latency[2] == pytest.approx(1.0)
    assert latency[3] == pytest.approx(50.0)
    # 4..7 were due while the generator was stuck in request 3: they are sent
    # late and charged from their due time, not from when they were sent.
    assert latency[4] == pytest.approx(41.0)
    assert latency[7] == pytest.approx(14.0)
    assert latency[9] == pytest.approx(1.0)
    assert out.late_ms[4] == pytest.approx(40.0)
    assert max(out.late_ms[:4]) == pytest.approx(0.0)


def test_open_loop_counts_a_refused_request_as_missing_the_limit():
    clock = FakeClock()

    def submit(i):
        if i == 1:
            raise RuntimeError("shed")
        future = Future()
        future.set_result(i)
        return future

    out = run_open_loop(submit, [0.0, 0.01, 0.02], clock=clock, sleep=clock.sleep)
    assert out.failed == 1
    assert out.latency_ms(limit_ms=50.0)[1] == pytest.approx(50.0)


def _wrapped_callables():
    import inspect

    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if hasattr(value, "__wrapped_by_perf__"):
                found.append(f"{name}.{key}")
            if inspect.isclass(value) and value.__module__.startswith("repro"):
                for attr, member in list(vars(value).items()):
                    member = getattr(member, "__func__", member)
                    if hasattr(member, "__wrapped_by_perf__"):
                        found.append(f"{value.__module__}.{value.__name__}.{attr}")
    return sorted(set(found))


def test_unpatching_restores_every_wrapped_callable():
    from repro.core import executor, reverse_nn
    from repro.index import soa
    from repro.service import subscriptions
    from repro.service.query_service import QueryService
    from repro.service.sharded import ShardedDatabase

    originals = (
        QueryService.__dict__["submit_request"],
        ShardedDatabase.__dict__["recover"],
        soa.min_dist_to_boxes,
    )
    assert _wrapped_callables() == []
    patcher = Patcher()
    perf_layers.install_all(Tracer(), patcher)
    wrapped = _wrapped_callables()
    assert patcher.installed >= len(wrapped) > 40
    # a module-level function is patched in every namespace that imported it
    for module in (soa, executor, reverse_nn, subscriptions):
        assert f"{module.__name__}.min_dist_to_boxes" in wrapped
    patcher.restore()
    assert _wrapped_callables() == []
    assert originals == (
        QueryService.__dict__["submit_request"],
        ShardedDatabase.__dict__["recover"],
        soa.min_dist_to_boxes,
    )
