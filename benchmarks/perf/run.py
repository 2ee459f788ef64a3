#!/usr/bin/env python3
"""One command for the whole benchmark.

    python3 benchmarks/perf/run.py --workload heavy_objects --seed 1 --seconds 10 --trace 0
    python3 benchmarks/perf/run.py --workload all
    python3 benchmarks/perf/run.py --agree 5

Every workload runs in a fresh subprocess (BLAS pinned to one thread and
``PYTHONHASHSEED=0`` set before NumPy is imported).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` makes the separate traced run and prints
the per-layer metrics; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
WORK = HERE / "_work"
SETUP_REPEATS = 3
# A run that takes this many times its --seconds stops after the blocks it
# has (never fewer than 20) and says so, rather than be killed by a caller.
GUARD_FACTOR = 4.0
# The one count that is not a pure function of the inputs: on the sharded
# paths two shard workers race to fill the same query object's alpha-cut
# cache, so the hit rate moves in its third digit from run to run.
RACY_COUNTS = ("fuzzy.fuzzy_object.cut_cache_hit_rate",)


def load_spec() -> dict:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Child: one workload, one mode, in this process
# ----------------------------------------------------------------------
def measure(workload, trace: bool, freeze: bool = True, trace_dir=None) -> dict:
    """Run ``workload`` once; returns the detail record (metrics included).

    ``freeze`` moves the warmed heap out of the collector's reach for the
    measured phases (off when the caller's process outlives the run).
    """
    import perf_layers
    from perf_harness import (
        BlockTimes, SpeedProbe, environment, iqr_frac, peak_rss_mb, percentile, quartiles,
    )
    from perf_tracing import Patcher, Tracer
    from perf_workloads import MIN_BLOCKS

    clock = time.perf_counter
    probe = SpeedProbe()
    start = clock()
    workload.generate()
    generate_s = clock() - start

    patcher = Patcher()
    setup_tracer = Tracer() if trace else None
    setup_s = []
    setup_wall_s = []
    repeats = 1 if (trace or workload.quick) else SETUP_REPEATS
    try:
        for attempt in range(repeats):
            gc.collect()  # the previous attempt's engine is not this one's cost
            if trace:
                perf_layers.install_all(setup_tracer, patcher)
            probe.start()
            start = clock()
            with setup_tracer.span("harness:setup") if trace else contextlib.nullcontext():
                workload.setup(attempt)
            setup_wall_s.append(clock() - start)
            setup_s.append(setup_wall_s[-1] * probe.lap())
            patcher.restore()
            if attempt < repeats - 1:
                workload.teardown()
        workload.settle()
        gc.collect()
        if freeze:
            gc.freeze()

        n_blocks = len(workload.blocks)
        guard = clock() + GUARD_FACTOR * max(workload.seconds, 1.0)
        truncated = False

        def run_blocks(indices, times, tracer=None):
            nonlocal truncated
            for index in indices:
                def block(index=index):
                    # the span sits inside the timed region, the speed probe outside
                    with contextlib.nullcontext() if tracer is None else tracer.span(
                        "harness:block", index
                    ):
                        workload.run_block(index)

                times.run(block, workload.latencies_ms)
                workload.blocks_run = index + 1
                if clock() > guard and index + 1 >= MIN_BLOCKS and not workload.quick:
                    truncated = True
                    break

        plain = BlockTimes(workload.ops_per_block, probe)
        traced = BlockTimes(workload.ops_per_block, probe)
        # Latency samples taken after the closed loop (serve_aknn's phase open,
        # 70 % idle) stay in wall time; see BlockTimes.
        later = BlockTimes(0, probe, nominal=False)
        run_report = open_report = None
        if not trace:
            before = workload.raw_counters()
            run_blocks(range(n_blocks), plain)
            delta = counter_delta(before, workload.raw_counters())
            counted_ops = plain.ops
        else:
            half = n_blocks // 2
            run_blocks(range(half), plain)
            singles = {
                name: list(getattr(workload, name))
                for name in ("insert_ms", "delete_ms", "read_ms")
            }
            run_tracer = Tracer()
            perf_layers.install_all(run_tracer, patcher)
            workload.tracer = run_tracer
            before = workload.raw_counters()
            run_blocks(range(half, n_blocks), traced, run_tracer)
            delta = counter_delta(before, workload.raw_counters())
            counted_ops = traced.ops
            patcher.restore()
            workload.tracer = None
            run_report = run_tracer.analyze()
        shape = workload.tree_shape()

        open_tracer = None
        if trace and workload.request_spans_after_blocks:
            open_tracer = Tracer()
            perf_layers.install_request_spans(open_tracer, patcher)
            workload.tracer = open_tracer
        workload.after_blocks(trace, later)
        patcher.restore()
        workload.tracer = None
        if open_tracer is not None:
            open_report = open_tracer.analyze()
        workload.check()
        layer_extras = workload.layer_extras(open_report) if trace else {}
    finally:
        patcher.restore()
        workload.teardown()
        if freeze:
            gc.unfreeze()

    latencies = later.nominal_ms or (traced.nominal_ms if trace else plain.nominal_ms)
    facts = {name: value * (counted_ops / workload.ops_per_block)
             for name, value in workload.block_facts.items()}
    facts["ops"] = counted_ops
    counts = perf_layers.count_metrics(delta, facts)
    counts["index.rtree.height"] = shape["height"]
    counts["index.rtree.node_count"] = shape["node_count"]
    counts["service.sharded.wal_replayed"] = workload.extras.get("wal_replayed", 0.0)
    accesses_per_op = perf_layers.ratio(delta.get("store.object_accesses", 0.0), counted_ops)

    detail = {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": workload.seconds,
        "trace": int(trace),
        "environment": environment(REPO),
        "blocks": len(plain.wall_s) + len(traced.wall_s),
        "truncated": truncated,
        "block_wall_ms_quartiles": [x * 1e3 for x in quartiles(plain.wall_s)],
        "block_nominal_ms_quartiles": [x * 1e3 for x in quartiles(plain.nominal_s)],
        "box_slowdown": probe.slowdown,
        "raw": {
            "setup_s": statistics.median(setup_wall_s),
            "ops_per_s": plain.raw_ops_per_s,
            "lat_p50_ms": percentile(workload.latencies_ms, 50),
            "lat_p90_ms": percentile(workload.latencies_ms, 90),
        },
        "samples": len(latencies),
        "sample_unit": workload.sample_unit,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "problems": workload.problems,
        "counts": dict(counts, object_accesses_per_op=accesses_per_op),
    }
    if not trace:
        detail["metrics"] = {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": plain.ops_per_s,
            "lat_p50_ms": percentile(latencies, 50),
            "lat_p90_ms": percentile(latencies, 90),
            "object_accesses_per_op": accesses_per_op,
            "peak_rss_mb": peak_rss_mb(),
        }
        detail["setup_s_all"] = setup_s
        return detail

    facts["traced_wall_s"] = sum(traced.wall_s)
    metrics = dict(counts)
    metrics.update(perf_layers.traced_metrics(run_report, setup_tracer.analyze(), facts))
    metrics.update(layer_extras)
    metrics.update(
        {
            "service.sharded.recover_s": workload.extras.get("recover_s", 0.0),
            "harness.insert_ack_ms_p50": percentile(singles["insert_ms"], 50),
            "harness.insert_ack_ms_p99": percentile(singles["insert_ms"], 99),
            "harness.delete_ack_ms_p50": percentile(singles["delete_ms"], 50),
            "harness.read_ms_p50": percentile(singles["read_ms"], 50),
            "harness.block_iqr_frac": iqr_frac(plain.wall_s),
            "harness.calib_ms": statistics.median(probe.samples_s) * 1e3,
            "harness.trace_overhead_frac": 1.0
            - perf_layers.ratio(traced.ops_per_s, plain.ops_per_s),
            "harness.datasets_generate_s": generate_s,
            "process.cpu_ms_per_op": plain.cpu_ms_per_op,
        }
    )
    detail["metrics"] = metrics
    trace_path = Path(trace_dir or workload.workdir) / f"trace-{workload.name}.jsonl"
    run_report.write_jsonl(trace_path)
    detail["trace_file"] = str(trace_path)
    detail["layer_self_ms_per_op"] = {
        layer: seconds * 1e3 / counted_ops
        for layer, seconds in sorted(run_report.layer_self_s().items())
    }
    return detail


def counter_delta(before: dict, after: dict) -> dict:
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


def result_line(detail: dict, spec: dict) -> dict:
    """The contract's last line: exactly the declared metrics, with units."""
    declared = spec["per_layer"] if detail["trace"] else spec["end_to_end"]
    metrics = {}
    for metric in declared:
        value = detail["metrics"][metric["name"]]  # a declared metric is never defaulted
        metrics[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
    return {
        "correct": detail["failed"] == 0,
        "attempted": int(detail["attempted"]),
        "failed": int(detail["failed"]),
        "metrics": metrics,
    }


def print_report(detail: dict, line: dict) -> None:
    env = detail["environment"]
    print(
        f"== {detail['workload']}  seed={detail['seed']} seconds={detail['seconds']:g} "
        f"trace={detail['trace']}"
    )
    print(
        f"   box: nproc={env['nproc']} pinned to cpu {env['pinned_to_cpus']} "
        f"loadavg={env['loadavg']} python={env['python']} "
        f"numpy={env['numpy']} git={str(env['git_sha'])[:12]} "
        f"speed probe = {detail['box_slowdown']:.2f}x its reference time"
    )
    wall = "/".join(f"{x:.1f}" for x in detail["block_wall_ms_quartiles"])
    nominal = "/".join(f"{x:.1f}" for x in detail["block_nominal_ms_quartiles"])
    print(
        f"   blocks={detail['blocks']}{' (TRUNCATED by the time guard)' if detail['truncated'] else ''} "
        f"block ms q1/median/q3: wall {wall}, nominal {nominal}"
    )
    raw = ", ".join(f"{name}={value:.5g}" for name, value in detail["raw"].items())
    print(f"   wall-clock values before scaling to nominal time: {raw}")
    print(
        f"   ops attempted={detail['attempted']} "
        f"succeeded={detail['attempted'] - detail['failed']} failed={detail['failed']}; "
        f"latency samples={detail['samples']} ({detail['sample_unit']})"
    )
    for name, entry in line["metrics"].items():
        print(f"   {name:<48} {entry['value']:>14.6g} {entry['unit']}")
    if detail["trace"]:
        print("   layer self time, ms per op (blocking-path weighted):")
        for layer, value in detail["layer_self_ms_per_op"].items():
            print(f"     {layer:<28} {value:10.4f}")
        print(f"   spans written to {detail['trace_file']}")
    for problem in detail["problems"]:
        print(f"   PROBLEM: {problem}")


def pin_to_one_cpu() -> None:
    """Keep every thread of the workload on one CPU.

    The program is bound by the interpreter lock, and on the 2-vCPU box this
    was designed on its threads cost more when spread over both vCPUs than
    when sharing one: unpinned, phase sat of serve_aknn ran 1.7x slower and
    several times noisier (README, "Noise controls").  The other CPU is left
    to the operating system and to whatever the host schedules beside us.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_main(args) -> int:
    pin_to_one_cpu()
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(HERE))
    try:
        from perf_workloads import WORKLOADS
    except ImportError as error:
        print(f"perf: the program under src/ is not importable: {error}", file=sys.stderr)
        return 2
    spec = load_spec()
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.seconds, args.quick, workdir)
        detail = measure(workload, bool(args.trace), trace_dir=WORK)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = result_line(detail, spec)
    print_report(detail, line)
    print("DETAIL " + json.dumps(detail))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# ----------------------------------------------------------------------
# Parent: fresh subprocess per workload, --workload all, --agree N
# ----------------------------------------------------------------------
def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def child_command(args, workload: str, trace: int) -> list:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.quick:
        command.append("--quick")
    return command


def run_captured(args, workload: str, trace: int) -> dict:
    """Run one child, echo its report, return its detail record."""
    done = subprocess.run(
        child_command(args, workload, trace), env=child_env(), cwd=REPO,
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    detail = None
    for text in done.stdout.splitlines():
        if text.startswith("DETAIL "):
            detail = json.loads(text[len("DETAIL "):])
        elif not text.startswith("{"):
            print(text)
    if detail is None or done.returncode not in (0, 1):
        raise SystemExit(f"perf: {workload} produced no result (exit {done.returncode})")
    return detail


def agree(args, spec: dict) -> int:
    """Two interleaved sets of N full runs of the same code (A B A B ...)."""
    from perf_harness import quartiles

    names = [w["name"] for w in spec["workloads"]]
    runs = {"A": [], "B": []}
    for round_index in range(args.agree):
        for side in ("A", "B"):
            print(f"-- agree round {round_index + 1}/{args.agree} set {side}")
            runs[side].append({name: run_captured(args, name, 0) for name in names})
    worst = 0.0
    failed = 0
    print("\n| workload | metric | A q1 / median / q3 | B q1 / median / q3 | delta / bound |")
    print("|---|---|---|---|---|")
    for name in names:
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            sides = {
                side: quartiles([run[name]["metrics"][key] for run in runs[side]])
                for side in runs
            }
            a, b = sides["A"][1], sides["B"][1]
            ratio = abs(a - b) / a / bound if a else 0.0
            worst = max(worst, ratio)
            cells = " | ".join(
                "{:.5g} / {:.5g} / {:.5g}".format(*sides[side]) for side in ("A", "B")
            )
            print(f"| {name} | {key} | {cells} | {ratio:.2f} |")
    print()
    for name in names:
        every = [run[name] for side in runs for run in runs[side]]
        failed += sum(run["failed"] for run in every)
        counts = [
            {k: v for k, v in run["counts"].items() if k not in RACY_COUNTS}
            for run in every
        ]
        same = all(count == counts[0] for count in counts)
        print(f"{name}: every count metric identical across {len(every)} runs: {same}")
        if not same:
            worst = max(worst, float("inf"))
    print(f"worst |delta median| / bound = {worst:.2f}; failed ops = {failed}")
    return 0 if worst <= 1.0 and failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes (tests)")
    parser.add_argument("--agree", type=int, default=0, metavar="N")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.child:
        return child_main(args)
    sys.path.insert(0, str(HERE))
    names = [w["name"] for w in spec["workloads"]]
    if args.agree:
        return agree(args, spec)
    if args.workload == "all":
        status = 0
        for name in names:
            for trace in (0, 1):
                status |= 0 if run_captured(args, name, trace)["failed"] == 0 else 1
        return status
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    # The contract's form: the child's report goes straight to our stdout,
    # so its last line is ours.
    return subprocess.run(
        child_command(args, args.workload, args.trace), env=child_env(), cwd=REPO,
        timeout=900,
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
