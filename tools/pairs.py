"""Alternating parent/change benchmark pairs, written to BENCH_<short-sha>.json.

    python3 tools/pairs.py [--parent REV] [--change REV] [--pairs N]
                           [--seed-base B] [--workload W ...]

Both commits are extracted with `git archive` into temporary directories
(no worktree metadata), and each side runs the unchanged
`perfbench/run.py --trace 0` from its own tree.  Pair k uses seed
seed-base + k for both sides; the parent runs first in even pairs and the
change in odd ones.  Workloads and end-to-end metrics (with the direction
that is better) and the run length come from the change's
`BENCHMARK.json`.

The file, at the repository root, holds every run, and per workload and
metric the medians, the parent's quartiles and IQR, the change's wins out
of N (ties count for neither side) and whether a gain would count: wins
in at least nine tenths of the pairs and a median better by more than the
parent's IQR.  A later call for the same two commits adds its runs to the
file, replacing any with the same workload, seed and side, and the
summary covers them all.  The output names two known artefacts of the
benchmark and does not correct for them.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Callable

# known artefacts of perfbench/run.py, named in the output, not corrected
ARTEFACTS = [
    "peak_rss_mb grows with the ops a run completes (about 55 bytes per op, "
    "CHANGES.md:36), so a throughput gain reads as more memory",
    "setup_s is bimodal across processes on colour-sweep and with-edge-large "
    "(CHANGES.md:39, 61), so a median over a few runs can move by about 30 %",
]

# runner(tree, workload, seed, seconds) -> the last JSON line of run.py
Runner = Callable[[Path, str, int, float], dict]


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced `perfbench/run.py` process in `tree`."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def extract(repo: Path, rev: str, dest: Path) -> None:
    """The tree of `rev` in `dest`, through `git archive`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=repo,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def run_pairs(trees: dict[str, Path], workloads: list[str], pairs: int, seconds: float,
              seed_base: int, runner: Runner) -> list[dict]:
    """N alternating pairs per workload; one row per run, in run order."""
    rows = []
    for workload in workloads:
        for k in range(pairs):
            seed = seed_base + k
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                result = runner(trees[side], workload, seed, seconds)
                print(f"{workload} pair {k + 1}/{pairs} seed {seed} {side}: "
                      f"correct {result['correct']}, failed {result['failed']}, "
                      f"ops_per_s {result['metrics']['ops_per_s']['value']:.4g}", flush=True)
                rows.append({"workload": workload, "pair": k, "seed": seed, "side": side,
                             "correct": result["correct"], "attempted": result["attempted"],
                             "failed": result["failed"],
                             "metrics": {m: v["value"] for m, v in result["metrics"].items()}})
    return rows


def merge(old: list[dict], new: list[dict]) -> list[dict]:
    """The runs of an earlier file for the same two commits, less those
    the new runs repeat (same workload, seed and side), then the new ones."""
    again = {(r["workload"], r["seed"], r["side"]) for r in new}
    return [r for r in old if (r["workload"], r["seed"], r["side"]) not in again] + new


def summarise(rows: list[dict], metrics: dict[str, str]) -> dict:
    """Per workload and metric (`metrics` maps a name to "higher" or
    "lower", the better direction): medians, the parent's quartiles and
    IQR, and the change's wins over the pairs, a pair being the two runs
    of one seed."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in rows):
        runs = {(r["seed"], r["side"]): r for r in rows if r["workload"] == workload}
        pairs = sorted({p for p, _ in runs})
        table = {}
        for name, better in metrics.items():
            parent = [runs[p, "parent"]["metrics"][name] for p in pairs]
            change = [runs[p, "change"]["metrics"][name] for p in pairs]
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
            gap = sign * (statistics.median(change) - statistics.median(parent))
            table[name] = {
                "better": better,
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "parent_quartiles": [q1, q3],
                "parent_iqr": q3 - q1,
                "change_wins": wins,
                "pairs": len(pairs),
                "gain_counts": wins >= 0.9 * len(pairs) and gap > q3 - q1,
            }
        out[workload] = {
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs.values()),
            "metrics": table,
        }
    return out


def report(summary: dict) -> list[str]:
    lines = []
    for workload, s in summary.items():
        lines.append(f"{workload} (all runs correct: {s['all_correct']})")
        for name, m in s["metrics"].items():
            q1, q3 = m["parent_quartiles"]
            lines.append(
                f"  {name:12s} {m['parent_median']:.4g} [{q1:.4g}, {q3:.4g}] -> "
                f"{m['change_median']:.4g}, change better in {m['change_wins']}/{m['pairs']}, "
                f"parent IQR {m['parent_iqr']:.4g} ({m['better']} is better)"
                + (", gain counts" if m["gain_counts"] else ""))
    lines += [f"artefact, not corrected: {a}" for a in ARTEFACTS]
    return lines


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--parent", help="default: the change's first parent")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workload", action="append", help="default: every workload")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    def git(*cmd: str) -> str:
        return subprocess.run(["git", *cmd], check=True, capture_output=True,
                              text=True).stdout.strip()

    repo = Path(git("rev-parse", "--show-toplevel"))
    shas = {"change": git("rev-parse", args.change),
            "parent": git("rev-parse", args.parent or f"{args.change}^")}
    path = repo / f"BENCH_{shas['change'][:7]}.json"
    old = json.loads(path.read_text()) if path.exists() else None
    if old and (old["parent"], old["change"]) != (shas["parent"], shas["change"]):
        ap.error(f"{path.name} holds runs of {old['change']} against {old['parent']}")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in shas}
        for side, sha in shas.items():
            trees[side].mkdir()
            extract(repo, sha, trees[side])
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        seconds = bench["run_seconds"]
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
        rows = run_pairs(trees, workloads, args.pairs, seconds, args.seed_base, run_perfbench)
    rows = merge(old["runs"] if old else [], rows)
    summary = summarise(rows, metrics)
    for line in report(summary):
        print(line)
    path.write_text(json.dumps({
        "parent": shas["parent"], "change": shas["change"],
        "command": f"perfbench/run.py --seconds {seconds:g} --trace 0",
        "order": "within each call, parent first in even pairs (0, 2, ...), change first in odd ones",
        "artefacts": ARTEFACTS, "summary": summary, "runs": rows,
    }, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
