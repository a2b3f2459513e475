"""tools/pairs.py with a fake runner: run order, wins and the claim rule."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

METRICS = {"ops_per_s": "higher", "op_ms.p50": "lower"}


def _fake_runner(calls):
    """The change is 20 % faster on every seed but the last, and seed 1's
    parent run is an outlier; every run is correct."""
    def run(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        ops = 10.0 + seed
        if tree.name == "change" and seed != 10:
            ops *= 1.2
        if tree.name == "parent" and seed == 1:
            ops = 30.0
        return {"correct": True, "attempted": 5, "failed": 0,
                "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                            "op_ms.p50": {"value": 1000 / ops, "unit": "ms"}}}
    return run


def test_pairs_alternate_and_summarise():
    calls = []
    trees = {"parent": Path("parent"), "change": Path("change")}
    rows = pairs.run_pairs(trees, ["w1", "w2"], 10, 2.0, 1, _fake_runner(calls))
    # one run per side and pair, the side that goes first alternating
    assert len(rows) == len(calls) == 40
    firsts = [calls[i][0] for i in range(0, 20, 2)]
    assert firsts == ["parent", "change"] * 5
    assert [c[2] for c in calls[:4]] == [1, 1, 2, 2]
    assert all(c[3] == 2.0 for c in calls)

    summary = pairs.summarise(rows, METRICS)
    assert set(summary) == {"w1", "w2"}
    ops = summary["w1"]["metrics"]["ops_per_s"]
    # seed 1's parent outlier and seed 10's tie are no wins
    assert (ops["change_wins"], ops["pairs"]) == (8, 10)
    assert ops["parent_median"] == 16.5
    assert ops["change_median"] == 18.6
    assert not ops["gain_counts"]    # 8 of 10 is less than nine tenths
    p50 = summary["w1"]["metrics"]["op_ms.p50"]
    assert p50["change_wins"] == 8 and p50["better"] == "lower"
    assert summary["w1"]["all_correct"]

    lines = pairs.report(summary)
    assert any(line.startswith("  ops_per_s") and "8/10" in line for line in lines)
    # the known artefacts are named, not corrected
    assert sum("not corrected" in line for line in lines) == 2
    assert any("CHANGES.md:36" in line for line in lines)
    assert any("CHANGES.md:39, 61" in line for line in lines)


def test_gain_counts_needs_nine_tenths_and_more_than_the_iqr():
    rows = []
    for k in range(10):
        for side, ops in (("parent", 10.0 + k % 2), ("change", 12.0)):
            rows.append({"workload": "w", "pair": k, "seed": k, "side": side,
                         "correct": True, "attempted": 1, "failed": 0,
                         "metrics": {"ops_per_s": ops}})
    m = pairs.summarise(rows, {"ops_per_s": "higher"})["w"]["metrics"]["ops_per_s"]
    assert m["change_wins"] == 10 and m["parent_iqr"] == 1.0
    assert m["gain_counts"]
    # a gap no wider than the parent's IQR does not count
    for r in rows:
        if r["side"] == "change":
            r["metrics"]["ops_per_s"] = 11.5
    m = pairs.summarise(rows, {"ops_per_s": "higher"})["w"]["metrics"]["ops_per_s"]
    assert m["change_wins"] == 10 and not m["gain_counts"]


def test_a_failed_run_is_reported():
    rows = [{"workload": "w", "pair": 0, "seed": 1, "side": side, "correct": side == "parent",
             "attempted": 3, "failed": int(side == "change"), "metrics": {"ops_per_s": 1.0}}
            for side in ("parent", "change")]
    assert not pairs.summarise(rows, {"ops_per_s": "higher"})["w"]["all_correct"]


def test_a_later_call_adds_its_runs():
    def row(workload, seed, side, ops):
        return {"workload": workload, "pair": seed % 2, "seed": seed, "side": side,
                "correct": True, "attempted": 1, "failed": 0, "metrics": {"ops_per_s": ops}}

    old = [row(w, s, side, 1.0) for w in ("w1", "w2") for s in (1, 2)
           for side in ("parent", "change")]
    # seed 2 of w2 again, and a new seed 3
    new = [row("w2", s, side, 2.0) for s in (2, 3) for side in ("parent", "change")]
    rows = pairs.merge(old, new)
    assert len(rows) == 10
    assert sorted((r["seed"], r["side"]) for r in rows if r["metrics"]["ops_per_s"] == 2.0) == [
        (2, "change"), (2, "parent"), (3, "change"), (3, "parent")]
    summary = pairs.summarise(rows, {"ops_per_s": "higher"})
    assert summary["w1"]["metrics"]["ops_per_s"]["pairs"] == 2
    assert summary["w2"]["metrics"]["ops_per_s"]["pairs"] == 3
