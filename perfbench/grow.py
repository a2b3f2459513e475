"""Seeded large even triangulations, grown by an evenness-preserving move.

The move puts a triangle xyz inside a face abc, with a joined to y and z,
b to z and x, and c to x and y.  Every old degree on the face rises by 2
and the three new vertices have degree 4, so the result is again an even
triangulation; x, y and z take the colour classes of a, b and c.  A move
is kept only while the big-vertex graph H stays in the mod-4 cycle family.
Growth starts from the 8-vertex bipyramid, so n = 8 + 3k.

Which face a move uses depends on the library's face order, and whether a
move is kept on its `is_multi4`, so growing again after a library change
can give other instances.  The benchmark therefore reads the instances
frozen in `data/large.jsonl`; this script writes that file:

    python3 perfbench/grow.py
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dualham.embed import EmbeddedGraph, classify_big_small, is_even_triangulation, tri_partition
from dualham.errors import CycleCapExceeded
from dualham.gen import big_vertex_graph, gen_bipyramid
from dualham.structure import is_multi4

LARGE = Path(__file__).resolve().parent / "data" / "large.jsonl"
# (n, growth seed) of each frozen instance: three at n=152, so no one
# instance sets the median, and one at n=302
FROZEN = ((152, 1), (152, 2), (152, 3), (302, 4))

# membership is re-checked after every move; a larger H makes the cycle
# enumeration inside is_multi4 explode, so reject such moves early
MOVE_CYCLE_CAP = 20_000


@dataclass(frozen=True)
class GrownInstance:
    g: EmbeddedGraph
    seed: int
    moves: int
    rejected: int
    big: int
    b3: int
    h_cyclomatic: int

    def describe(self) -> dict:
        return {"n": self.g.n, "seed": self.seed, "big": self.big, "b3": self.b3,
                "h_cyclomatic": self.h_cyclomatic, "moves": self.moves,
                "rejected": self.rejected}


def insert_triangle(g: EmbeddedGraph, face: int) -> EmbeddedGraph:
    """Put a new triangle inside one face of a triangulation."""
    (a, b), (_, c), _ = g.faces.faces[face]
    x, y, z = g.n, g.n + 1, g.n + 2
    rot = [list(nb) for nb in g.rotation]
    # the face walk a->b->c puts c right after a in b's clockwise rotation,
    # a right after b at c, and b right after c at a
    for v, before, new in ((b, a, (z, x)), (c, b, (x, y)), (a, c, (y, z))):
        nb = rot[v]
        k = nb.index(before) + 1
        nb[k:k] = new
    rot += [[c, b, z, y], [a, c, x, z], [b, a, y, x]]
    return EmbeddedGraph.build(rot)


def cyclomatic(h) -> int:
    return h.m - h.n + len(h.components())


def grow(n: int, seed: int) -> GrownInstance:
    """An even triangulation on exactly n vertices (n = 8 + 3k), certified
    even and with H in the mod-4 cycle family."""
    if n < 8 or (n - 8) % 3:
        raise ValueError(f"n must be 8 + 3k, got {n}")
    rng = random.Random(seed)
    g = gen_bipyramid(3)
    moves = rejected = 0
    while g.n < n:
        cand = insert_triangle(g, rng.randrange(len(g.faces.faces)))
        h, _ = big_vertex_graph(cand)
        try:
            ok = is_multi4(h, cap=MOVE_CYCLE_CAP)
        except CycleCapExceeded:
            ok = False
        if ok:
            g = cand
            moves += 1
        else:
            rejected += 1
    h, bs = big_vertex_graph(g)
    if not is_even_triangulation(g) or not is_multi4(h):
        raise AssertionError(f"grown instance n={n} seed={seed} failed certification")
    return GrownInstance(g, seed, moves, rejected, len(bs.big), len(bs.b_of(3)),
                         cyclomatic(h))


def eligible_edges(g: EmbeddedGraph) -> tuple[list[list[int]], list[list[int]]]:
    """The edges vw at a big class-3 vertex v, split into those with w big
    and those with w small; each list sorted."""
    bs = classify_big_small(g, tri_partition(g))
    pairs = sorted([v, w] for v in bs.b_of(3) for w in g.rotation[v])
    return [p for p in pairs if p[1] in bs.big], [p for p in pairs if p[1] not in bs.big]


def main() -> None:
    with open(LARGE, "w") as f:
        for n, seed in FROZEN:
            inst = grow(n, seed)
            big_w, small_w = eligible_edges(inst.g)
            row = {**inst.describe(), "rotation": [list(nb) for nb in inst.g.rotation],
                   "big_w": big_w, "small_w": small_w}
            f.write(json.dumps(row, separators=(",", ":")) + "\n")
            print(json.dumps(inst.describe()))


if __name__ == "__main__":
    main()
