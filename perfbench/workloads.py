"""The four benchmark workloads.

Each `setup_*` function turns a seed into a `Prepared` workload: a fixed
list of ops (one pass) plus a description of its inputs.  An op calls the
library through module attributes, so the tracer's patches apply, and then
verifies the result; a failed check raises `OpFailed`.  Every check that
can be done without the library is done here too, so a broken library
verifier cannot pass a wrong answer.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from dualham import colorizer, duality, embed, gen, structure, treesplit
from dualham.ugraph import norm_edge

from grow import cyclomatic, eligible_edges

DATA = Path(__file__).parent / "data"

CORPUS_COUNTS = {6: 1, 7: 0, 8: 1, 9: 1, 10: 2, 11: 2, 12: 8}
CORPUS_AVOID_EDGES = 118
CORPUS_FACE_SPARSE = 10
A000109_10 = 233


class OpFailed(Exception):
    """An op's output, or a workload's input, failed verification."""


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]


@dataclass
class Prepared:
    ops: list[Op]
    info: dict = field(default_factory=dict)
    # op_ms.tail is the per-op median latency with this many ops above it
    tail_beyond: int = 10


# --- independent checks -----------------------------------------------------


@dataclass(frozen=True)
class CheckedDual:
    """A dual from the library, checked against the triangles read straight
    off the rotation system."""

    d: object
    abstract: object
    edges: frozenset[tuple[int, int]]


def checked_dual(g) -> CheckedDual:
    d = embed.dual(g)
    face_vertices = [frozenset(a for a, _ in walk) for walk in g.faces.faces]
    triangles = {frozenset((v, nb[i], nb[(i + 1) % len(nb)]))
                 for v, nb in enumerate(g.rotation) for i in range(len(nb))}
    if set(face_vertices) != triangles or len(face_vertices) != 2 * g.n - 4:
        raise OpFailed("faces are not the triangles of the rotation system")
    for (u, v), (f1, f2) in d.edge_map.items():
        if f1 == f2 or not {u, v} <= face_vertices[f1] & face_vertices[f2]:
            raise OpFailed(f"dual edge of {u},{v} joins the wrong faces")
    return CheckedDual(d, d.graph.abstract(), frozenset(d.edge_map.values()))


def _dual_cycle(cd: CheckedDual, h, forbidden=None) -> None:
    order = h.vertices
    steps = {norm_edge(order[i - 1], order[i]) for i in range(len(order))}
    if (sorted(order) != list(range(len(cd.abstract.adj)))
            or not steps <= cd.edges or len(steps) != len(order)):
        raise OpFailed("not a Hamilton cycle of the dual")
    if forbidden is not None and forbidden in steps:
        raise OpFailed(f"cycle uses the forbidden edge {forbidden}")
    if not duality.verify_hamilton(cd.abstract, h):
        raise OpFailed("verify_hamilton rejects the cycle")


def _pieces(nbrs, vertices) -> tuple[int, int]:
    """(edges, components) of the subgraph induced on `vertices`, where
    `nbrs[v]` lists the neighbours of v."""
    vs = set(vertices)
    edges = sum(1 for v in vs for u in nbrs[v] if u in vs) // 2
    comps, seen = 0, set()
    for s in vs:
        if s in seen:
            continue
        comps += 1
        seen.add(s)
        stack = [s]
        while stack:
            v = stack.pop()
            for u in nbrs[v]:
                if u in vs and u not in seen:
                    seen.add(u)
                    stack.append(u)
    return edges, comps


def _induces_tree(g, side) -> bool:
    return _pieces(g.rotation, side) == (len(side) - 1, 1)


def _forest(g, vertices) -> bool:
    edges, comps = _pieces(g.adj, vertices)
    return edges == len(set(vertices)) - comps


# --- with-edge-large --------------------------------------------------------

# ops per pass at each n=152 instance: edges with big w, with small w; and
# the first small-w edge at the n=302 instance
LARGE_BIG_W, LARGE_SMALL_W = 1, 3


def _avoid_op(label: str, g, cd: CheckedDual, v: int, w: int) -> Op:
    e_star = cd.d.edge_map[norm_edge(v, w)]

    def run():
        h = duality.hamilton_avoiding_edge(g, e_star)
        _dual_cycle(cd, h, forbidden=e_star)
        return h.vertices
    return Op(label, run)


def _certified_large(row: dict):
    """The frozen instance of `row`, certified even, with H in the mod-4
    family and its recorded sizes and eligible edges."""
    g = embed.EmbeddedGraph.build(row["rotation"])
    h, bs = gen.big_vertex_graph(g)
    got = {"n": g.n, "big": len(bs.big), "b3": len(bs.b_of(3)),
           "h_cyclomatic": cyclomatic(h)}
    if (not embed.is_even_triangulation(g) or not structure.is_multi4(h)
            or got != {k: row[k] for k in got}
            or list(eligible_edges(g)) != [row["big_w"], row["small_w"]]):
        raise OpFailed(f"frozen instance n={row['n']} seed={row['seed']} fails certification")
    return g


def setup_with_edge_large(seed: int) -> Prepared:
    rng = random.Random(seed)
    ops, instances = [], []
    rows = _jsonl("large.jsonl")
    for row in rows:
        g = _certified_large(row)
        cd = checked_dual(g)
        if row is rows[-1]:
            # the same op for every seed: it alone sets the tail, and an
            # n=302 op's cost depends on its edge
            picks = [("small", row["small_w"][0])]
        else:
            picks = [("big", p) for p in rng.sample(row["big_w"], LARGE_BIG_W)]
            picks += [("small", p) for p in rng.sample(row["small_w"], LARGE_SMALL_W)]
        ops += [_avoid_op(f"n={g.n} {kind}-w edge {v},{w}", g, cd, v, w) for kind, (v, w) in picks]
        instances.append({k: row[k] for k in ("n", "seed", "big", "b3", "h_cyclomatic")})
    # ten ops beyond would put the tail among the fastest of 13; it is the
    # slowest op, the n=302 one
    return Prepared(ops, {"instances": instances}, tail_beyond=0)


# --- corpus-12 ----------------------------------------------------------------


def _face_sparse_op(label: str, g, cd: CheckedDual) -> Op:
    def run():
        h, report = duality.hamilton_face_sparse(g)
        _dual_cycle(cd, h)
        if not report.ok:
            raise OpFailed("face-sparse cycle violates a colour-3 face")
        part = duality.hamilton_to_tree_partition(g, h, cd.d)
        if not (treesplit.verify_tree_partition(g.abstract(), part)
                and _induces_tree(g, part.s) and _induces_tree(g, part.t)):
            raise OpFailed("round trip does not give two induced trees")
        if duality.tree_partition_to_hamilton(g, part, cd.d).edges != h.edges:
            raise OpFailed("round trip does not return the same cycle")
        return h.vertices, tuple(f.pattern for f in report.faces), tuple(sorted(part.s))
    return Op(label, run)


def _jsonl(name: str) -> list[dict]:
    with open(DATA / name) as f:
        return [json.loads(line) for line in f if line.strip()]


def _corpus() -> tuple[list[dict], list]:
    """The frozen corpus rows and their graphs, checked by count and evenness."""
    rows = _jsonl("corpus12.jsonl")
    graphs = [embed.EmbeddedGraph.build(r["rotation"]) for r in rows]
    counts = {n: sum(1 for g in graphs if g.n == n) for n in CORPUS_COUNTS}
    if counts != CORPUS_COUNTS or not all(embed.is_even_triangulation(g) for g in graphs):
        raise OpFailed(f"corpus counts by n are {counts}, expected {CORPUS_COUNTS}")
    return rows, graphs


def setup_corpus_12(seed: int) -> Prepared:
    rows, graphs = _corpus()
    ops = []
    for i, (row, g) in enumerate(zip(rows, graphs)):
        cd = checked_dual(g)
        for v, w in row["avoid_edges"]:
            ops.append(_avoid_op(f"#{i} n={g.n} avoid {v},{w}", g, cd, v, w))
        if row["face_sparse"]:
            ops.append(_face_sparse_op(f"#{i} n={g.n} face-sparse", g, cd))
    kinds = sum(1 for r in rows for _ in r["avoid_edges"]), sum(r["face_sparse"] for r in rows)
    if kinds != (CORPUS_AVOID_EDGES, CORPUS_FACE_SPARSE):
        raise OpFailed(f"corpus has {kinds} avoid/face-sparse ops")
    random.Random(seed).shuffle(ops)
    return Prepared(ops, {"instances": len(graphs), "avoid_edge_ops": kinds[0],
                          "face_sparse_ops": kinds[1]})


# --- colour-sweep -------------------------------------------------------------

SWEEP_SIZES = (8, 10, 12, 14, 16)
SWEEP_GRAPHS_PER_SIZE = 16
SWEEP_OPS_PER_GRAPH = 8


def _alpha_colourings(bp, rng):
    """As in the acceptance sweep: all alpha colourings when there are at
    most 64, else 50 random ones."""
    vs = sorted(bp.alpha)
    if len(vs) <= 6:
        return [dict(zip(vs, bits)) for bits in itertools.product((1, 2), repeat=len(vs))]
    return [{v: rng.choice((1, 2)) for v in vs} for _ in range(50)]


def _colour_op(label: str, g, bp, a, pin: int, colour: int) -> Op:
    def run():
        b = colorizer.color_beta(g, bp, a, pin, colour)
        combined = colorizer.combine(a, b.colour_of)
        if set(b.colour_of) != set(bp.beta) or b.colour_of[pin] != colour:
            raise OpFailed("colouring misses beta vertices or the pin")
        for c in (1, 2):
            if not _forest(g, [v for v in g.adj if combined[v] == c]):
                raise OpFailed(f"monochromatic cycle in colour {c}")
        if not colorizer.verify_coloring(g, bp, combined, pin, colour).passed:
            raise OpFailed("verify_coloring rejects the colouring")
        return tuple(sorted(b.colour_of.items()))
    return Op(label, run)


def setup_colour_sweep(seed: int) -> Prepared:
    rng = random.Random(seed)
    ops = []
    for size in SWEEP_SIZES:
        made = 0
        while made < SWEEP_GRAPHS_PER_SIZE:
            gseed = rng.randrange(2**31)
            g = gen.gen_multi4(size, gseed)
            bp = structure.bipartition_typed(g)
            if not bp.beta:
                continue
            combos = [(a, pin, colour) for a in _alpha_colourings(bp, rng)
                      for pin in sorted(bp.beta) for colour in (1, 2)]
            for a, pin, colour in rng.sample(combos, min(SWEEP_OPS_PER_GRAPH, len(combos))):
                ops.append(_colour_op(f"multi4({size}, {gseed}) pin {pin}={colour}",
                                      g, bp, a, pin, colour))
            made += 1
    rng.shuffle(ops)
    return Prepared(ops, {"graphs": len(SWEEP_SIZES) * SWEEP_GRAPHS_PER_SIZE})


# --- gen-exhaustive -----------------------------------------------------------


def _degree_signature(g) -> tuple[int, ...]:
    return tuple(sorted(len(nb) for nb in g.rotation))


def setup_gen_exhaustive(seed: int) -> Prepared:
    """The op is the same for every seed: all triangulations on 10 vertices.
    The reference is the two even ones from the frozen corpus, by degree
    sequence and by canonical form."""
    even10 = [g for g in _corpus()[1] if g.n == 10]
    signatures = sorted(_degree_signature(g) for g in even10)
    forms = sorted(embed.canonical_form(g) for g in even10)

    def run():
        out = gen.gen_triangulations(10)
        if len(out) != A000109_10:
            raise OpFailed(f"{len(out)} triangulations on 10 vertices, expected {A000109_10}")
        if any(g.n != 10 or g.m != 3 * 10 - 6 for g in out):
            raise OpFailed("an output is not a 10-vertex triangulation")
        evens = [g for g in out if all(len(nb) % 2 == 0 for nb in g.rotation)]
        if (sorted(_degree_signature(g) for g in evens) != signatures
                or sorted(embed.canonical_form(g) for g in evens) != forms):
            raise OpFailed("even triangulations differ from the frozen corpus")
        return tuple(g.rotation for g in out)
    # one op, so its tail is its median
    return Prepared([Op("gen_triangulations(10)", run)], {"reference_even": len(even10)},
                    tail_beyond=0)


WORKLOADS = {
    "with-edge-large": setup_with_edge_large,
    "corpus-12": setup_corpus_12,
    "colour-sweep": setup_colour_sweep,
    "gen-exhaustive": setup_gen_exhaustive,
}
