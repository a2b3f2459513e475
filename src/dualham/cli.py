"""Command-line surface.

Subcommands: check, color, partition, hamilton, survey, gen.  Machine
output is JSON lines on stdout; a short human summary goes to stderr.
`gen` writes only its instances to stdout and its report line to stderr,
so its output is a valid input file.
Exit codes: 0 = all checks passed, 1 = a check failed (the report carries
a witness), 2 = bad input or usage.

Every artifact is re-verified by the independent checker before being
printed; the CLI never emits an unverified result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import partial
from typing import Any, Callable

from . import colorizer, duality, gen, structure, treesplit
from .embed import EmbeddedGraph, dual, is_even_triangulation
from .errors import DualhamError, IoError, NotEvenTriangulation, ParseError
from .ugraph import DEFAULT_CYCLE_CAP, Graph


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_embedded(text: str) -> EmbeddedGraph:
    try:
        return EmbeddedGraph.from_json(text)
    except (json.JSONDecodeError, KeyError, ValueError, RecursionError, DualhamError) as exc:
        raise ParseError(f"bad embedded-graph JSON: {exc}") from exc


def _load_abstract(text: str) -> tuple[Graph, dict[int, int] | None]:
    """Abstract graph plus the alpha-colouring `a` from the input, None
    when the input has no "a"."""
    try:
        data = json.loads(text)
        edges = [(u, v) for u, v in data["edges"]]
        if not all(type(u) is int and type(v) is int for u, v in edges):
            raise ValueError('"edges" must be a list of pairs of ints')
        if "a" not in data:
            return Graph.from_edges(edges), None
        a = data["a"]
        if not isinstance(a, dict) or any(k != str(int(k)) or type(c) is not int
                                          or c not in (1, 2) for k, c in a.items()):
            raise ValueError('"a" must map vertices to colours 1 or 2')
        return Graph.from_edges(edges), {int(k): c for k, c in a.items()}
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ParseError(f"bad graph JSON: {exc}") from exc


class Report:
    """One run's machine-readable record: payload plus named checks."""

    def __init__(self, command: str, digest: str):
        self.t0 = time.monotonic()
        self.out: dict[str, Any] = {
            "command": command,
            "input": digest,
            "result": {},
            "checks": [],
        }

    def check(self, name: str, passed: bool, witness: Any = None) -> None:
        entry: dict[str, Any] = {"name": name, "passed": bool(passed)}
        if witness is not None and not passed:
            entry["witness"] = witness
        self.out["checks"].append(entry)

    def result(self, **payload: Any) -> None:
        self.out["result"].update(payload)

    def emit(self, stream=None) -> int:
        """Print the report line (on stdout unless `stream` is given) and
        the summary on stderr; return the exit code."""
        self.out["elapsed_ms"] = round(1000 * (time.monotonic() - self.t0), 1)
        print(json.dumps(self.out, sort_keys=True), file=stream or sys.stdout)
        failed = [c["name"] for c in self.out["checks"] if not c["passed"]]
        tag = "FAIL " + ", ".join(failed) if failed else "ok"
        print(f"{self.out['command']}: {tag}", file=sys.stderr)
        return 1 if failed else 0


# --- check ----------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    text = _read(args.path)
    rep = Report(f"check --family {args.family}", _digest(text))
    if args.family == "even-tri":
        g = _load_embedded(text)
        rep.result(n=g.n, m=g.m)
        rep.check("even-triangulation", is_even_triangulation(g))
    elif args.family == "multi4":
        g, _ = _load_abstract(text)
        witness = structure.multi4_witness(g, cap=args.cap)
        rep.result(n=g.n, m=g.m)
        rep.check("all-cycles-0-mod-4", witness is None, witness)
    else:  # barnette-hypothesis
        g = _load_embedded(text)
        if not is_even_triangulation(g):
            rep.check("even-triangulation", False)
            return rep.emit()
        h, bs = gen.big_vertex_graph(g)
        rep.result(n=g.n, big=sorted(bs.big), h_edges=h.edges())
        rep.check("even-triangulation", True)
        witness = structure.multi4_witness(h, cap=args.cap)
        rep.check("h-all-cycles-0-mod-4", witness is None, witness)
        rep.check("h-components-2-connected", gen.h_components_2connected(h))
    return rep.emit()


# --- color ----------------------------------------------------------------


def cmd_color(args: argparse.Namespace) -> int:
    text = _read(args.path)
    rep = Report("color", _digest(text))
    g, a = _load_abstract(text)
    if a is None:
        raise ParseError('input JSON must embed the alpha colouring as "a"')
    outside = sorted(set(a) - set(g.adj))
    if outside:
        raise ParseError(f'"a" names vertex {outside[0]}, which is not in the graph')
    bp = structure.TypedBipartition(
        alpha=frozenset(a), beta=frozenset(set(g.adj) - set(a))
    )
    if not bp.beta:
        raise ParseError('every vertex is in "a": no beta vertex is left to colour')
    for u, v in g.edges():
        if (u in bp.alpha) == (v in bp.alpha):
            ends = "both ends" if u in bp.alpha else "neither end"
            raise ParseError(f'"a" is not one side of a bipartition: edge {u},{v} '
                             f'has {ends} in it')
    if args.pin:
        try:
            vs, cs = args.pin.split("=")
            pin_vertex, pin_colour = int(vs), int(cs)
        except ValueError as exc:
            raise ParseError(f"--pin expects V=1 or V=2, got {args.pin!r}") from exc
        if pin_vertex in bp.alpha:
            raise ParseError(f"pin vertex {pin_vertex} is alpha-coloured already")
        if pin_vertex not in bp.beta:
            raise ParseError(f"pin vertex {pin_vertex} is not in the graph")
        if pin_colour not in (1, 2):
            raise ParseError(f"--pin expects V=1 or V=2, got {args.pin!r}")
    else:
        pin_vertex, pin_colour = min(bp.beta), 1
    # the family check reads the block forest the colouring walks
    b = colorizer.prepare(g, bp, cap=args.cap).solve(a, pin_vertex, pin_colour)
    report = colorizer.verify_coloring(
        g, bp, colorizer.combine(a, b.colour_of), pin_vertex, pin_colour
    )
    rep.result(b={str(k): v for k, v in sorted(b.colour_of.items())})
    rep.check("no-monochromatic-cycle", report.cycle_free, report.witness_cycle)
    rep.check("degree2-path-alternation", report.alternation_ok, report.witness_path)
    rep.check("pin-respected", report.pin_ok)
    return rep.emit()


# --- partition / hamilton -------------------------------------------------


def _parse_edge(text: str) -> tuple[int, int]:
    try:
        u, v = (int(x) for x in text.split(","))
        return u, v
    except ValueError as exc:
        raise ParseError(f"expected U,V got {text!r}") from exc


def cmd_partition(args: argparse.Namespace) -> int:
    text = _read(args.path)
    rep = Report("partition", _digest(text))
    g = _load_embedded(text)
    # one analysis serves the pipeline and the seeds of the final check
    an = treesplit.analyse(g)
    if args.with_edge:
        v, w = _parse_edge(args.with_edge)
        part = treesplit.tree_partition_with_edge(an, v, w)
        rep.check("edge-inside-one-side", (v in part.s) == (w in part.s))
    else:
        part, vertex_report = treesplit.tree_partition_face_sparse(an)
        rep.result(vertex_report=vertex_report["vertices"])
        rep.check("degree-implications", vertex_report["all_ok"])
    ok = treesplit.verify_tree_partition(an.ab, part, an.bs.b_of(1), an.bs.b_of(2))
    rep.result(s=sorted(part.s), t=sorted(part.t))
    rep.check("two-induced-trees", ok)
    return rep.emit()


def cmd_hamilton(args: argparse.Namespace) -> int:
    text = _read(args.path)
    rep = Report("hamilton", _digest(text))
    g = _load_embedded(text)
    if not is_even_triangulation(g):
        # the pipelines refuse it anyway; `dual` needs a 3-connected input
        raise NotEvenTriangulation("faces or degrees are wrong")
    d = dual(g)
    if args.avoid_edge:
        e_star = _parse_edge(args.avoid_edge)
        h = duality.hamilton_avoiding_edge(g, e_star, d)
        rep.check("forbidden-edge-avoided", tuple(sorted(e_star)) not in h.edges)
    else:
        h, avoidance = duality.hamilton_face_sparse(g, d)
        rep.result(
            faces=[
                {"vertex": f.primal_vertex, "size": f.size, "pattern": f.pattern}
                for f in avoidance.faces
            ]
        )
        rep.check("no-face-violation", avoidance.ok)
    rep.result(cycle=list(h.vertices))
    rep.check("hamilton-cycle", duality.verify_hamilton(d.graph.abstract(), h))
    return rep.emit()


# --- survey ---------------------------------------------------------------


def _failed(row: dict[str, Any], check: str, exc: Exception) -> None:
    row["checks"][check] = False
    row["error"] = f"{type(exc).__name__}: {exc}"


def _survey_even_tri(g_json: str, hypothesis_only: bool = False) -> dict[str, Any] | None:
    """All certificates for one even triangulation; run in a worker.  Any
    exception fails the check it hit and is recorded in the row, so one
    bad instance cannot sink the survey.  With `hypothesis_only`, an
    instance whose H misses the hypothesis gets no row (None)."""
    row: dict[str, Any] = {"checks": {}}
    try:
        g = EmbeddedGraph.from_json(g_json)
        row["n"] = g.n
        an = treesplit.analyse(g)
        d = dual(g)
        dual_ab = d.graph.abstract()
        in_family = an.in_family
        row["checks"]["h-in-family"] = in_family
        hyp = in_family and gen.h_components_2connected(an.h)
        row["hypothesis"] = hyp
    except Exception as exc:
        _failed(row, "instance", exc)
        return row
    if hypothesis_only and not hyp:
        return None
    try:
        edges_ok = True
        n_edges = 0
        for v in sorted(an.bs.b_of(3)):
            for w in sorted(an.ab.adj[v]):
                e_star = d.edge_map[(min(v, w), max(v, w))]
                part = treesplit.tree_partition_with_edge(an, v, w)
                cyc = duality.tree_partition_to_hamilton(g, part, d)
                edges_ok &= e_star not in cyc.edges and duality.verify_hamilton(
                    dual_ab, cyc
                )
                n_edges += 1
        row["checks"]["avoid-edge"] = edges_ok
        row["eligible_edges"] = n_edges
    except Exception as exc:
        _failed(row, "avoid-edge", exc)
    if hyp:
        try:
            part, _ = treesplit.tree_partition_face_sparse(an)
            cyc = duality.tree_partition_to_hamilton(g, part, d)
            avoidance = duality.face_avoidance_report(an, cyc, d)
            back = duality.hamilton_to_tree_partition(g, cyc, d)
            row["checks"]["face-sparse"] = avoidance.ok
            row["checks"]["round-trip"] = duality.tree_partition_to_hamilton(
                g, back, d
            ).edges == cyc.edges
        except Exception as exc:
            _failed(row, "face-sparse", exc)
    return row


def _survey_multi4(seed: int) -> dict[str, Any]:
    """Colour soundness for one seeded family member; run in a worker.  Any
    exception fails the check and is recorded in the row."""
    row: dict[str, Any] = {"seed": seed, "checks": {}}
    try:
        g = gen.gen_multi4(16, seed)
        row["n"] = g.n
        bp = structure.bipartition_typed(g)
        a = {u: 1 + (i % 2) for i, u in enumerate(sorted(bp.alpha))}
        ok = True
        # gen_multi4 raises NotInFamilyH rather than return a non-member,
        # so membership is settled once for the whole row, and the graph
        # is prepared once for all its pins
        plan = colorizer.prepare(g, bp, check_family=False)
        for pin in sorted(bp.beta):
            for colour in (1, 2):
                b = plan.solve(a, pin, colour)
                rep = colorizer.verify_coloring(
                    g, bp, colorizer.combine(a, b.colour_of), pin, colour
                )
                ok &= rep.passed
        row["checks"]["coloring-sound"] = ok
    except Exception as exc:
        _failed(row, "coloring-sound", exc)
    return row


def cmd_survey(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ParseError(f"--jobs must be at least 1, got {args.jobs}")
    # check the sizes before any work: a bad one would only fail at the end
    if args.family == "multi4" and args.count < 1:
        raise ParseError(f"--count must be at least 1, got {args.count}")
    if args.family != "multi4" and not 4 <= args.n_max <= gen.MAX_TRI_N:
        raise ParseError(f"--n-max must be in [4, {gen.MAX_TRI_N}], got {args.n_max}")
    rep = Report(f"survey --family {args.family}", "-")
    if args.family == "multi4":
        tasks: list[Any] = list(range(args.seed, args.seed + args.count))
        worker: Callable[[Any], dict | None] = _survey_multi4
    else:
        tasks = [g.to_json() for n in range(4, args.n_max + 1)
                 for g in gen.gen_even_triangulations(n)]
        # the worker's analysis decides the hypothesis, so H is built once
        worker = partial(_survey_even_tri,
                         hypothesis_only=args.family == "barnette-hypothesis")
    rows = []
    # a pool forks all its workers on the first submit, so never ask for
    # more than there are tasks or CPUs
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()
    with pool:
        # each row prints as soon as it and all rows before it are done
        for row in (pool.map if workers > 1 else map)(worker, tasks):
            if row is None:
                continue
            print(json.dumps(row, sort_keys=True), flush=True)
            rows.append(row)
    all_ok = all(all(r["checks"].values()) for r in rows)
    rep.result(instances=len(rows))
    rep.check("all-instances-pass", all_ok,
              [r for r in rows if not all(r["checks"].values())] or None)
    return rep.emit()


# --- gen ------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    rep = Report(f"gen --family {args.family}", "-")
    count = 0
    if args.family == "bipyramid":
        print(gen.gen_bipyramid(args.size).to_json())
        count = 1
    elif args.family == "even-tri":
        for g in gen.gen_even_triangulations(args.size):
            print(g.to_json())
            count += 1
    elif args.family == "multi4":
        g = gen.gen_multi4(args.size, args.seed)
        print(json.dumps({"edges": g.edges()}))
        count = 1
    else:  # thm24-valid
        for g in gen.gen_thm24_instances(args.size, args.seed):
            print(g.to_json())
            count += 1
    rep.result(count=count)
    rep.check("generated", count > 0)
    # stdout carries only the instances, so it feeds straight back into
    # check, partition and hamilton
    return rep.emit(sys.stderr)


# --- entry point ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dualham",
        description="Tree partitions of even plane triangulations and "
        "Hamilton cycles in their duals.",
    )
    p.add_argument("--cap", type=int, default=DEFAULT_CYCLE_CAP,
                   help="cycle-enumeration budget of the membership checks in "
                   "check and color (the other commands ignore it)")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run a membership certificate")
    c.add_argument("path")
    c.add_argument("--family", required=True,
                   choices=["even-tri", "multi4", "barnette-hypothesis"])
    c.set_defaults(func=cmd_check)

    c = sub.add_parser("color", help="cycle-free 2-colouring of the beta side")
    c.add_argument("path")
    c.add_argument("--pin", help="force one beta vertex, as V=1 or V=2")
    c.set_defaults(func=cmd_color)

    c = sub.add_parser("partition", help="split the vertices into two trees")
    c.add_argument("path")
    grp = c.add_mutually_exclusive_group()
    grp.add_argument("--with-edge",
                     help="keep this primal edge inside a side (U,V, either order)")
    grp.add_argument("--face-sparse", action="store_true",
                     help="per-vertex neighbour-balance variant (default)")
    c.set_defaults(func=cmd_partition)

    c = sub.add_parser("hamilton", help="Hamilton cycle in the dual")
    c.add_argument("path")
    grp = c.add_mutually_exclusive_group()
    grp.add_argument("--avoid-edge", help="dual edge to avoid, as U,V")
    grp.add_argument("--face-sparse", action="store_true")
    c.set_defaults(func=cmd_hamilton)

    c = sub.add_parser("survey", help="run every certificate over a family")
    c.add_argument("--family", required=True,
                   choices=["even-tri", "multi4", "barnette-hypothesis"])
    c.add_argument("--n-max", type=int, default=10,
                   help=f"largest n for the even-tri families, 4 to {gen.MAX_TRI_N}")
    c.add_argument("--count", type=int, default=50,
                   help="number of seeds for randomized families, at least 1")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per task and per CPU")
    c.set_defaults(func=cmd_survey)

    c = sub.add_parser("gen", help="emit instances as JSON lines")
    c.add_argument("--family", required=True,
                   choices=["bipyramid", "even-tri", "multi4", "thm24-valid"])
    c.add_argument("--size", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_gen)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cap < 1:
            raise ParseError(f"--cap must be at least 1, got {args.cap}")
        return args.func(args)
    except (IoError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DualhamError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
