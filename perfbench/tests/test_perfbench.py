"""The benchmark's own tests: smoke runs, failure accounting, and exact
repeatability of the traced counts.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the library on the path)
from dualham import duality, embed  # noqa: E402
from dualham.duality import HamiltonCycle  # noqa: E402
from layers import TRACED  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, OpFailed, Prepared  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(args):
    p = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                       capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_every_declared_metric(trace, key):
    out = _last_json(["--workload", "corpus-12", "--seed", "3", "--seconds", "0.2",
                      "--trace", str(trace)])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    # at least one pass; traced runs make an untraced and a traced one
    least = len(WORKLOADS["corpus-12"](3).ops) * (1 + trace)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= least
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def _smoke_ops(workload):
    ops = WORKLOADS[workload](5).ops
    # with-edge-large: the big-w and a small-w op at the first n=152
    # instance, not the slow n=302 one
    return ops[:2] if workload == "with-edge-large" else ops[:40]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_every_op_verifies(workload):
    ops = _smoke_ops(workload)
    by_op, attempted, failed, _, passes, _ = run.run_passes(ops, 0, 1)
    assert failed == 0 and passes == 1 and attempted == len(ops)
    assert [len(lat) for lat in by_op] == [1] * len(ops)


def test_frozen_large_instances_are_certified(monkeypatch):
    prepared = WORKLOADS["with-edge-large"](0)
    assert [i["n"] for i in prepared.info["instances"]] == [152, 152, 152, 302]
    assert prepared.tail_beyond == 0
    # a library whose H leaves the mod-4 family rejects the frozen inputs
    monkeypatch.setattr("dualham.structure.is_multi4", lambda h, **kw: False)
    with pytest.raises(OpFailed):
        WORKLOADS["with-edge-large"](0)


def test_tail_percentile_does_not_depend_on_speed():
    # with-edge-large's shape: twelve fast ops and one slow one per pass
    one_pass = [0.5 + 0.01 * i for i in range(12)] + [5.0]
    slow_run = run.tail([[x, x] for x in one_pass], 0)
    fast_run = run.tail([[x / 2] * 12 for x in one_pass], 0)
    assert slow_run == (100.0, 5.0) and fast_run == (100.0, 2.5)
    # a burst of noise in one pass moves no op's median
    by_op = [[i, i, 10**6] for i in range(640)]
    assert run.tail(by_op, 10) == (100.0 * 630 / 640, 629)


def test_same_seed_same_inputs():
    a = WORKLOADS["colour-sweep"](11)
    b = WORKLOADS["colour-sweep"](11)
    assert [op.label for op in a.ops] == [op.label for op in b.ops]
    assert [op.label for op in a.ops] != [op.label for op in WORKLOADS["colour-sweep"](12).ops]


def test_wrong_output_counts_as_failed(monkeypatch):
    prepared = WORKLOADS["corpus-12"](0)
    real = duality.hamilton_avoiding_edge

    def wrong(g, e_star, d=None):
        h = real(g, e_star, d)
        return HamiltonCycle.of(h.vertices[:-1])   # misses a dual vertex

    monkeypatch.setattr(duality, "hamilton_avoiding_edge", wrong)
    # a library verifier that accepts anything must not hide the error
    monkeypatch.setattr(duality, "verify_hamilton", lambda g, h: True)
    metrics, attempted, failed, _, _ = run.end_to_end(prepared, 0, 0.0)
    assert attempted == len(prepared.ops)
    # every avoid-edge op fails; the face-sparse ops still verify
    assert failed == 118
    assert metrics["ops_per_s"][0] > 0


def test_raising_op_counts_as_failed(monkeypatch):
    prepared = Prepared(WORKLOADS["colour-sweep"](0).ops[:20])

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr("dualham.colorizer.color_beta", boom)
    by_op, attempted, failed, _, _, _ = run.run_passes(prepared.ops, 0, 1)
    assert failed == attempted == 20 and not any(by_op)


COUNT_SUFFIXES = (".calls", ".yields", ".pulls", ".relaxed", ".raised")


def _counts(metrics):
    return {k: v for k, (v, _) in metrics.items()
            if k.endswith(COUNT_SUFFIXES) or k.startswith("pass.") or k == "gen.dedup_yield"}


def test_traced_counts_repeat_exactly_and_match_the_tiers():
    prepared = WORKLOADS["corpus-12"](1)
    first, _, failed, _, same = run.per_layer("corpus-12", prepared, 0)
    second, _, _, _, _ = run.per_layer("corpus-12", WORKLOADS["corpus-12"](2), 0)
    assert failed == 0 and same
    assert _counts(first) == _counts(second)
    # one pass over the corpus: 12 relaxed retries, 1 later base
    # colouring, 1 local-search step
    assert first["pass.relaxed"][0] == 12
    assert first["pass.later_base"][0] == 1
    assert first["pass.local_search"][0] == 1
    assert first["trace.coverage_misses"][0] == 0
    assert first["trace.bypass_calls"][0] == 0


@pytest.mark.parametrize("workload", ["colour-sweep", "gen-exhaustive", "with-edge-large"])
def test_coverage_of_the_layer_table(workload):
    prepared = Prepared(_smoke_ops(workload))
    metrics, _, failed, notes, same = run.per_layer(workload, prepared, 0)
    assert failed == 0 and same
    assert metrics["trace.coverage_misses"][0] == 0, notes
    assert metrics["trace.bypass_calls"][0] == 0, notes


def test_uninstall_restores_every_binding():
    from dualham import gen, treesplit, ugraph

    before = (treesplit.color_beta, gen.is_multi4, embed.EmbeddedGraph.__dict__["build"],
              ugraph.Graph.simple_cycles)
    tracer = Tracer()
    tracer.install()
    assert not tracer.missing and treesplit.color_beta is not before[0]
    tracer.uninstall()
    after = (treesplit.color_beta, gen.is_multi4, embed.EmbeddedGraph.__dict__["build"],
             ugraph.Graph.simple_cycles)
    assert after == before
    assert len(TRACED) == len(set(TRACED))
