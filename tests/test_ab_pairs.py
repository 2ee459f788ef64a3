"""``scripts/ab_pairs.py``: the ledger it appends to and the table it reprints from it."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_pairs", REPO / "scripts" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

PARENT, CHANGE = "aaaaaaaaaaaa", "aaaaaaaaaaaa+1234abcd"


def row(pair, side, ops, *, workload="durable_churn", change=CHANGE, accesses=5.5, **extra):
    metrics = {
        "setup_s": 1.0, "ops_per_s": ops, "lat_p50_ms": 1000.0 / ops, "lat_p90_ms": 4000.0 / ops,
        "object_accesses_per_op": accesses, "peak_rss_mb": 100.0,
    }
    first = "parent" if pair % 2 == 0 else "change"
    return {
        "parent": PARENT, "change": change, "invocation": "2026-01-01T00:00:00Z",
        "workload": workload, "quick": False, "seed": 900 + pair, "pair": pair, "side": side,
        "ran": "first" if side == first else "second", "metrics": metrics,
        "attempted": 360, "failed": 0, "correct": True, **extra,
    }


@pytest.fixture
def ledger(tmp_path):
    """Three pairs under one key (the change wins two on ``ops_per_s``), and noise around them."""
    rows = [
        row(0, "parent", 400.0), row(0, "change", 600.0),
        row(1, "change", 640.0), row(1, "parent", 500.0),
        row(2, "parent", 450.0), row(2, "change", 440.0),
        row(3, "parent", 480.0),  # its change run never reported: not a pair
        row(0, "parent", 9.0, workload="serve_aknn"), row(0, "change", 9.0, workload="serve_aknn"),
        row(0, "parent", 7.0, change="bbbbbbbbbbbb"), row(0, "change", 7.0, change="bbbbbbbbbbbb"),
        row(0, "parent", 5.0, quick=True), row(0, "change", 5.0, quick=True),
    ]
    path = tmp_path / "ledger.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def test_from_ledger_selects_by_key_prefix_and_workload(ledger):
    by_pair, bad = ab_pairs.from_ledger(ledger, "aaaa..aaaaaaaaaaaa+", "durable_churn")
    assert bad == 0
    assert sorted(len(by_pair[side]) for side in ab_pairs.SIDES) == [3, 4]
    assert [m["ops_per_s"] for m in by_pair["change"].values()] == [600.0, 640.0, 440.0]
    other, _ = ab_pairs.from_ledger(ledger, "aaaa..bbbb", "durable_churn")
    assert [m["ops_per_s"] for m in other["change"].values()] == [7.0]
    quick, _ = ab_pairs.from_ledger(ledger, "aaaa..aaaa", "durable_churn", quick=True)
    assert [m["ops_per_s"] for m in quick["parent"].values()] == [5.0]


def test_summarise_prints_quartiles_wins_and_the_bound_from_the_file(ledger, capsys):
    status = ab_pairs.main(
        ["--summarise", str(ledger), "--key", f"{PARENT}..{CHANGE}", "--workload", "durable_churn"]
    )
    out = capsys.readouterr().out
    assert status == 0
    ops = next(line for line in out.splitlines() if line.startswith("| ops_per_s |"))
    cells = [cell.strip() for cell in ops.strip("|").split("|")]
    assert cells[1] == "425 / 450 / 475"  # parent q1 / median / q3 over the three pairs
    assert cells[2] == "520 / 600 / 620"
    assert cells[3] == "+33.3%" and cells[4] == "15.0%"
    assert cells[5] == "2 of 3"
    assert "WIDER THAN THE BOUND" in cells[6]  # (620 - 520) / 450 > 15 %
    assert "object_accesses_per_op exactly equal in 3 of 3 pairs" in out
    assert "incorrect / failed runs: 0" in out


def test_summarise_reports_a_failed_run_and_an_empty_selection(ledger, capsys):
    with ledger.open("a") as handle:
        handle.write(json.dumps(row(4, "parent", 470.0)) + "\n")
        handle.write(json.dumps(row(4, "change", 610.0, failed=2, correct=False)) + "\n")
    argv = ["--summarise", str(ledger), "--workload", "durable_churn", "--key"]
    assert ab_pairs.main(argv + [f"{PARENT}..{CHANGE}"]) == 1
    assert "incorrect / failed runs: 1" in capsys.readouterr().out
    assert ab_pairs.main(argv + ["cccc..cccc"]) == 1
    assert "no complete pair" in capsys.readouterr().out


def test_a_run_appends_one_line_per_side(tmp_path, monkeypatch):
    """``--ledger`` with the benchmark stubbed out: ids, order and outcome are recorded."""
    reports = iter([550.0, 560.0, 570.0, 580.0])

    def fake_run(checkout, workload, seed, quick):
        report = row(0, "parent", next(reports))
        return {name: report[name] for name in ("metrics", "attempted", "failed", "correct")}

    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    monkeypatch.setattr(ab_pairs, "checkout_id", lambda checkout: f"id-of-{checkout.name}")
    (tmp_path / "p").mkdir()
    change = tmp_path / "c"
    change.mkdir()
    (change / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
    path = tmp_path / "out.jsonl"
    argv = ["--parent", str(tmp_path / "p"), "--change", str(change), "--workload", "durable_churn"]
    assert ab_pairs.main(argv + ["--seeds", "7,8", "--ledger", str(path)]) == 0
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["seed"], r["side"], r["ran"]) for r in rows] == [
        (7, "parent", "first"), (7, "change", "second"),
        (8, "change", "first"), (8, "parent", "second"),
    ]
    assert {(r["parent"], r["change"]) for r in rows} == {("id-of-p", "id-of-c")}
    assert [r["metrics"]["ops_per_s"] for r in rows] == [550.0, 560.0, 570.0, 580.0]
    assert all(r["attempted"] == 360 and r["failed"] == 0 and r["correct"] for r in rows)
    by_pair, _ = ab_pairs.from_ledger(path, "id-of-p..id-of-c", "durable_churn")
    assert len(by_pair["parent"]) == len(by_pair["change"]) == 2
