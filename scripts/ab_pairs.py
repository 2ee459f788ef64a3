"""The house rule as a script: alternating parent/change benchmark pairs.

Every performance claim in this repository rests on pairs of runs of
``benchmarks/perf/run.py`` — the parent commit and the change, one fresh
seed per pair, alternating which side runs first — with every run reported,
per-side medians and quartiles, wins counted and counts compared exactly
(ROADMAP "House rules").  This runs those pairs.  Each side runs **its own**
``benchmarks/perf/run.py --trace 0`` from its own checkout, so the two
sides never share code::

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q <parent sha>
    python scripts/ab_pairs.py --parent /tmp/parent --change . \\
        --workload serve_aknn --seeds 201..210

Prints one row per run, then per metric each side's median and quartiles,
the change's wins over the pairs (ties count for neither), the median change
against the metric's ``BENCHMARK.json`` bound, each side's interquartile
spread as a share of the parent's median (flagged when wider than the bound:
such a row is unresolved), and whether ``object_accesses_per_op`` — a count,
compared exactly — is equal in every pair.  A seed may repeat
(``--seeds 1,1,1,1``): that is a same-seed steadiness check.  Exit code is
non-zero if any run is incorrect, has failed operations, or produced no
report.

``--ledger PATH`` appends one JSON line per run to ``PATH`` (the committed one
is ``benchmarks/ledger.jsonl``): both checkouts' ids — the HEAD sha, plus
``+<digest of git diff HEAD>`` when the checkout is dirty (in ``src``,
``benchmarks/perf`` or ``BENCHMARK.json``: what a run executes) — workload, seed,
side, which side ran first, the end-to-end metrics and ``attempted`` /
``failed`` / ``correct``.  Every run goes in, the ones that lost too.
``--summarise PATH --key <parent id>..<change id> --workload W`` reprints the
summary table from those lines (ids match by prefix: ``20208b0..20208b0+``
is every dirty tree on top of 20208b0), so prose cites a key, not rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

COUNT_METRIC = "object_accesses_per_op"
# What a run executes: a checkout is dirty, and its id changes, only with these.
MEASURED_PATHS = ("src", "benchmarks/perf", "BENCHMARK.json")
SIDES = ("parent", "change")


def parse_seeds(text: str) -> List[int]:
    """``"3"``, ``"3,5,9"`` or ``"3..12"`` (inclusive), freely combined."""
    seeds: List[int] = []
    for part in text.split(","):
        first, _, last = part.partition("..")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, quick: bool) -> Optional[dict]:
    """One ``run.py`` run in ``checkout``; its report (the last stdout line)."""
    command = [
        sys.executable, "benchmarks/perf/run.py",
        "--workload", workload, "--seed", str(seed), "--trace", "0",
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, timeout=1800
    )
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
        report["metrics"] = {k: v["value"] for k, v in report["metrics"].items()}
    except (IndexError, KeyError, TypeError, ValueError):
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        return None
    report["correct"] = bool(report["correct"]) and done.returncode == 0
    return report


def checkout_id(checkout: Path) -> str:
    """HEAD's sha (12 hex), ``+<digest of the diff to HEAD>`` appended when dirty."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=checkout, capture_output=True, text=True
        ).stdout

    sha = git("rev-parse", "HEAD").strip()[:12] or "unversioned"
    if not git("status", "--porcelain", "--", *MEASURED_PATHS).strip():
        return sha
    diff = git("diff", "HEAD", "--", *MEASURED_PATHS)
    return f"{sha}+{hashlib.sha256(diff.encode()).hexdigest()[:8]}"


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(by_pair: Dict[str, Dict[object, dict]], metrics: List[dict]) -> int:
    """Print the per-metric table over the complete pairs; non-zero when there is none."""
    paired = [p for p in by_pair["parent"] if p in by_pair["change"]]
    if not paired:
        print("no complete pair")
        return 1

    print()
    print(
        "| metric | parent q1 / median / q3 | change q1 / median / q3 | median change "
        "| bound | change wins | q3 - q1 over parent median: parent, change |"
    )
    print("|---|---|---|---|---|---|---|")
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {
            side: quartiles([by_pair[side][p][name] for p in paired]) for side in SIDES
        }
        wins = sum(
            (by_pair["change"][p][name] > by_pair["parent"][p][name]) == higher
            for p in paired
            if by_pair["change"][p][name] != by_pair["parent"][p][name]
        )
        base = sides["parent"][1]
        moved = (sides["change"][1] - base) / base if base else 0.0
        cells = " | ".join("{:.5g} / {:.5g} / {:.5g}".format(*sides[side]) for side in SIDES)
        # A side whose middle half is wider than the bound cannot be told
        # from the other: the row is unresolved, whatever its medians say.
        spreads = [(sides[side][2] - sides[side][0]) / base if base else 0.0 for side in SIDES]
        wide = " WIDER THAN THE BOUND" if max(spreads) > metric["bound"] else ""
        print(
            f"| {name} | {cells} | {moved:+.1%} | {metric['bound']:.1%} "
            f"| {wins} of {len(paired)} | {spreads[0]:.1%}, {spreads[1]:.1%}{wide} |"
        )
    print()
    pairs_equal = sum(
        by_pair["parent"][p][COUNT_METRIC] == by_pair["change"][p][COUNT_METRIC]
        for p in paired
    )
    for side in SIDES:
        values = sorted({by_pair[side][p][COUNT_METRIC] for p in paired})
        print(f"{COUNT_METRIC} ({side}), distinct values over the seeds: {values}")
    print(f"{COUNT_METRIC} exactly equal in {pairs_equal} of {len(paired)} pairs")
    return 0


def from_ledger(
    path: Path, key: str, workload: str, quick: bool = False
) -> Tuple[Dict[str, Dict[object, dict]], int]:
    """The ledger's runs of ``workload`` under ``key``, grouped as ``main`` groups them.

    A pair is one (invocation, pair index); returns the metrics by side and
    pair, and how many of the runs were incorrect or had failed operations.
    """
    wanted = dict(zip(SIDES, key.split("..")))
    by_pair: Dict[str, Dict[object, dict]] = {side: {} for side in SIDES}
    bad = 0
    for line in path.read_text().splitlines():
        row = json.loads(line)
        if row["workload"] != workload or row["quick"] != quick:
            continue
        if not all(row[side].startswith(wanted[side]) for side in SIDES):
            continue
        by_pair[row["side"]][row["invocation"], row["pair"]] = row["metrics"]
        bad += not (row["correct"] and row["failed"] == 0)
    return by_pair, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, help="a..b, or a,b,c: one pair per seed")
    parser.add_argument("--quick", action="store_true", help="tiny sizes (smoke)")
    parser.add_argument("--ledger", type=Path, help="append one JSON line per run to this file")
    parser.add_argument("--summarise", type=Path, help="print the table from this ledger; runs nothing")
    parser.add_argument("--key", help="with --summarise: <parent id>..<change id>, each a prefix")
    args = parser.parse_args(argv)

    if args.summarise:
        if not args.key or ".." not in args.key:
            parser.error("--summarise needs --key <parent id>..<change id>")
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        by_pair, bad = from_ledger(args.summarise, args.key, args.workload, args.quick)
        print(f"== {args.workload}, {args.key}, from {args.summarise}")
        status = summarise(by_pair, spec["end_to_end"])
        print(f"incorrect / failed runs: {bad}")
        return 1 if status or bad else 0
    if not (args.parent and args.change and args.seeds):
        parser.error("--parent, --change and --seeds are required to run pairs")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    names = [m["name"] for m in metrics]
    ids = {side: checkout_id(checkouts[side]) for side in SIDES}
    invocation = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    print(f"== {args.workload}: {len(args.seeds)} pairs, parent={checkouts['parent']} change={checkouts['change']}")
    print(f"== key {ids['parent']}..{ids['change']}")
    print("| seed | side | ran | " + " | ".join(names) + " |")
    print("|---|---|---|" + "---|" * len(names))
    # Keyed by pair, not by seed: a seed may repeat (``--seeds 1,1,1`` is a
    # same-seed steadiness check).
    by_pair: Dict[str, Dict[object, dict]] = {side: {} for side in SIDES}
    bad = 0
    for pair, seed in enumerate(args.seeds):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            report = run_once(checkouts[side], args.workload, seed, args.quick)
            ran = "first" if position == 0 else "second"
            if report is None:
                print(f"| {seed} | {side} | {ran} | NO REPORT |")
                bad += 1
                continue
            flag = "" if report["correct"] and report["failed"] == 0 else " INCORRECT/FAILED"
            bad += bool(flag)
            cells = " | ".join(f"{report['metrics'][name]:.6g}" for name in names)
            print(f"| {seed} | {side} | {ran} | {cells} |{flag}", flush=True)
            by_pair[side][pair] = report["metrics"]
            if args.ledger:
                row = {
                    **ids, "invocation": invocation, "workload": args.workload,
                    "quick": args.quick, "seed": seed, "pair": pair, "side": side, "ran": ran,
                    "metrics": {name: report["metrics"][name] for name in names},
                    "attempted": report["attempted"], "failed": report["failed"],
                    "correct": report["correct"],
                }
                with args.ledger.open("a") as ledger:
                    ledger.write(json.dumps(row) + "\n")
    if summarise(by_pair, metrics):
        return 1
    print(f"incorrect / failed / missing runs: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
