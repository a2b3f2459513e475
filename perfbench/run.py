"""dualham benchmark: one closed-loop caller driving the library in-process.

    python3 perfbench/run.py --workload corpus-12 --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from `src/`.  One
caller, no pool, no threads: each op starts when the previous one has been
verified.  A run sets the workload up several times (setup_s is the
median), then runs whole passes over the workload's ops until `--seconds`
have passed.

With `--trace 0` the last stdout line carries the end-to-end metrics.
With `--trace 1` the same ops run once untraced and once under the
outside-in tracer, the outputs of the two are compared, and the last line
carries the per-layer metrics.  Lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the library is imported from the checkout's source tree, left unwritten
sys.dont_write_bytecode = True
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from layers import TRACED, coverage  # noqa: E402
from tracer import STEP_CASES, Tracer  # noqa: E402
from workloads import WORKLOADS, OpFailed  # noqa: E402

# setup repeats: at least this many, and until this much time has gone
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 3, 1.0, 200


def run_passes(ops, seconds: float, min_ops: int, call=None, keep=False):
    """Closed loop over whole passes; returns (latencies in s of the
    verified ops, one array per op of the pass, attempted count, failed
    count, elapsed s, passes, outputs).  Outputs are kept only when `keep`
    is set."""
    by_op, outputs = [array("d") for _ in ops], []
    attempted = failed = passes = 0
    t_start = time.perf_counter()
    while True:
        for op, lat in zip(ops, by_op):
            t0 = time.perf_counter()
            try:
                out = op.run() if call is None else call(attempted, op.run)
            except OpFailed as exc:
                out, ok = f"failed: {exc}", False
            except Exception as exc:  # an op that raises counts as failed
                out, ok = f"raised {type(exc).__name__}: {exc}", False
            else:
                lat.append(time.perf_counter() - t0)
                ok = True
            attempted += 1
            if not ok:
                failed += 1
                print(f"op {op.label}: {out}", file=sys.stderr)
            if keep:
                outputs.append(out)
        passes += 1
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds and attempted >= min_ops:
            return by_op, attempted, failed, elapsed, passes, outputs


def tail(by_op, beyond: int) -> tuple[float, float]:
    """(percentile, value): each op's median latency over the passes, and
    of those the one with `beyond` ops above it.  The percentile is fixed
    by the size of a pass, whatever the speed of the program, and one
    burst of machine noise moves no op's median."""
    medians = sorted(statistics.median(lat) for lat in by_op if lat)
    if not medians:
        return 0.0, 0.0
    return 100.0 * (len(by_op) - beyond) / len(by_op), medians[max(len(medians) - 1 - beyond, 0)]


def setup(workload: str, seed: int):
    """Set up repeatedly; returns (median seconds, repeats, prepared)."""
    times, prepared = [], None
    while (len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS) \
            and len(times) < SETUP_MAX_REPEATS:
        prepared = None
        # each repeat starts from the same heap, not the last one's garbage
        gc.collect()
        t0 = time.perf_counter()
        prepared = WORKLOADS[workload](seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times), prepared


def end_to_end(prepared, seconds: float, setup_s: float):
    """End-to-end metrics over a timed closed loop; returns (metrics,
    attempted, failed, report lines, outputs consistent)."""
    by_op, attempted, failed, elapsed, passes, _ = run_passes(prepared.ops, seconds, 1)
    pct, tail_s = tail(by_op, prepared.tail_beyond)
    lat_ms = [x * 1e3 for lat in by_op for x in lat]
    metrics = {
        "ops_per_s": ((attempted - failed) / elapsed, "1/s"),
        "op_ms.p50": (statistics.median(lat_ms) if lat_ms else 0.0, "ms"),
        "op_ms.tail": (tail_s * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"ops: {attempted} attempted, {failed} failed, fail_ratio {failed / attempted:.4f}, "
        f"{passes} passes of {len(prepared.ops)} in {elapsed:.2f} s",
        f"op_ms.tail is p{pct:.2f} of the {len(prepared.ops)} per-op median latencies "
        f"({prepared.tail_beyond} beyond it), each over {passes} passes",
    ]
    return metrics, attempted, failed, notes, True


def per_layer(workload: str, prepared, seconds: float):
    """Untraced then traced passes over the same ops; per-op layer metrics,
    returned like `end_to_end`'s."""
    _, ops, failed0, el0, passes, out0 = run_passes(prepared.ops, seconds / 4, 1, keep=True)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        _, _, failed1, _, _, out1 = run_passes(prepared.ops, 0, ops, call=tracer.op, keep=True)
        el1 = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    same = out0 == out1 and failed0 == failed1
    self_s = tracer.self_seconds()
    calls = tracer.calls
    count = tracer.counters
    missed, bypassed = coverage(workload, calls)
    m: dict[str, tuple[float, str]] = {}
    for f in TRACED:
        m[f + ".calls"] = (calls[f] / ops, "count")
        m[f + ".self_ms"] = (self_s[f] * 1e3 / ops, "ms")
    for key in ("ugraph.Graph.simple_cycles.yields", "treesplit.base_coloring_candidates.pulls",
                "treesplit.tree_partition_solve.relaxed", "treesplit.tree_partition_solve.raised",
                "treesplit.extend_coloring_single_path.raised",
                "treesplit.extend_coloring_path_sequence.raised"):
        m[key] = (count[key] / ops, "count")
    splits = calls["gen.split_vertex"]
    m["gen.dedup_yield"] = (count["gen.kept"] / splits if splits else 0.0, "ratio")
    m["pass.relaxed"] = (count["treesplit.tree_partition_solve.relaxed"] / passes, "count")
    m["pass.later_base"] = (count["treesplit.base_coloring_candidates.later"] / passes, "count")
    m["pass.local_search"] = (count["local_search"] / passes, "count")
    for case in STEP_CASES:
        m["pass.steps." + case] = (count["steps." + case] / passes, "count")
    untraced_rate = (ops - failed0) / el0
    traced_rate = (ops - failed1) / el1
    m["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    m["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    m["trace.overhead"] = (untraced_rate / traced_rate if traced_rate else 0.0, "ratio")
    m["trace.spans_per_op"] = (len(tracer.name_of) / ops, "count")
    m["trace.coverage_misses"] = (len(missed) + len(tracer.missing), "count")
    m["trace.bypass_calls"] = (len(bypassed), "count")
    out_path = HERE / "out" / f"spans-{workload}.json.gz"
    tracer.write(out_path)
    notes = [
        f"traced {ops} ops ({passes} passes); untraced {untraced_rate:.3f} ops/s, "
        f"traced {traced_rate:.3f} ops/s, overhead x{m['trace.overhead'][0]:.3f}",
        f"traced and untraced outputs identical: {same}",
        f"{len(tracer.name_of)} spans written to {out_path.relative_to(HERE.parent)}",
    ]
    for f in tracer.missing:
        notes.append(f"coverage: {f} is not defined by the library")
    for f in missed:
        notes.append(f"coverage: {f} recorded no calls on {workload}")
    for f in bypassed:
        notes.append(f"coverage: {f} was called on {workload}, which the table says bypasses it")
    return m, 2 * ops, failed0 + failed1, notes, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup_s, repeats, prepared = setup(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {len(prepared.ops)} ops per pass; "
          f"inputs {json.dumps(prepared.info)}")
    print(f"setup: median {setup_s:.4f} s over {repeats} repeats")
    if args.trace:
        metrics, attempted, failed, notes, same = per_layer(args.workload, prepared, args.seconds)
    else:
        metrics, attempted, failed, notes, same = end_to_end(prepared, args.seconds, setup_s)
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:56s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
