"""Structure theory of graphs whose every cycle has length 0 mod 4.

Such graphs are bipartite; the two sides are the "types" alpha and beta.
This module decides membership and finds what the colourer splits a
mixed block along: cut paths (degree-2 interior, mixed-type ends of
degree >= 3) and pairs of them that split the graph into two determined
sides, of which the colourer takes an inclusion-minimal one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import CaseUnmatched, NoCutPath, NotBipartite
from .ugraph import DEFAULT_CYCLE_CAP, Graph


@dataclass(frozen=True)
class TypedBipartition:
    """The two colour classes of a bipartite graph."""

    alpha: frozenset[int]
    beta: frozenset[int]

    def is_beta(self, v: int) -> bool:
        return v in self.beta

    def same_type(self, u: int, v: int) -> bool:
        return (u in self.beta) == (v in self.beta)


def bipartition_typed(g: Graph) -> TypedBipartition:
    """2-colour by type; the lowest vertex of each component gets alpha.

    A depth-first search starts at each vertex still unvisited, in
    ascending order.  Lemma: such a vertex is the lowest of its component,
    since a lower vertex of the same component would have reached it.
    """
    side: dict[int, int] = {}
    for root in sorted(g.adj):
        if root in side:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if w not in side:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    raise NotBipartite(f"odd cycle through edge {u}-{w}")
    return TypedBipartition(
        alpha=frozenset(v for v, s in side.items() if s == 0),
        beta=frozenset(v for v, s in side.items() if s == 1),
    )


@dataclass(frozen=True)
class PathRec:
    """A path as a vertex sequence.

    The "interior" that gets subtracted from the graph is the inner vertex
    set when the path has length >= 2, and the single edge itself when the
    path has length 1.
    """

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = self.vertices
        if len(vs) < 2 or len(set(vs)) != len(vs):
            raise ValueError(f"not a path: {vs}")

    @property
    def x(self) -> int:
        return self.vertices[0]

    @property
    def y(self) -> int:
        return self.vertices[-1]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def interior(self) -> tuple[int, ...]:
        return self.vertices[1:-1]

    def reversed(self) -> "PathRec":
        return PathRec(self.vertices[::-1])


def satisfies_cut_path_condition(g: Graph, bp: TypedBipartition, p: PathRec) -> bool:
    """Degree-2 interior, ends of different types with degree >= 3."""
    if any(g.degree(v) != 2 for v in p.interior):
        return False
    if g.degree(p.x) < 3 or g.degree(p.y) < 3:
        return False
    return not bp.same_type(p.x, p.y)


@dataclass(frozen=True)
class CutPair:
    """Two disjoint cut paths whose interior removal leaves two components."""

    p: PathRec
    q: PathRec
    side_c: frozenset[int]
    side_d: frozenset[int]


# --- family membership ---------------------------------------------------


def is_multi4(
    g: Graph, cap: int = DEFAULT_CYCLE_CAP, blocks: Iterable[Graph] | None = None
) -> bool:
    """True iff every simple cycle has length congruent to 0 mod 4."""
    return multi4_witness(g, cap, blocks) is None


def multi4_witness(
    g: Graph, cap: int = DEFAULT_CYCLE_CAP, blocks: Iterable[Graph] | None = None
) -> list[int] | None:
    """A simple cycle whose length is not 0 mod 4, or None if there is none.

    A fast necessary filter runs first: one depth-first pass checks the
    fundamental cycles of a DFS forest (`_bad_fundamental_cycle`); an odd
    cycle implies an odd fundamental cycle.  The complete per-block cycle
    enumeration settles the answer, returning its first cycle of bad
    length.  Raises CycleCapExceeded when enumeration passes `cap` cycles.

    `blocks`, when given, are the subgraphs of g's blocks with >= 3
    vertices, in `g.blocks()` order (the colourer's prepare step passes
    the ones it built); otherwise they are found and built here, one at a
    time, after the filter.
    """
    cyc = _bad_fundamental_cycle(g)
    if cyc is not None:
        return cyc
    if blocks is None:
        comps, _ = g.blocks()
        blocks = (g if len(c) == g.n else g.subgraph(c) for c in comps if len(c) >= 3)
    for sub in blocks:
        for cyc in sub.simple_cycles(cap=cap):
            if len(cyc) % 4 != 0:
                return cyc
    return None


def _bad_fundamental_cycle(g: Graph) -> list[int] | None:
    """A fundamental cycle of a DFS forest of g whose length is not 0 mod
    4, or None if every one has length 0 mod 4.

    Lemma: a depth-first forest has no cross edges, so each non-tree edge
    u-w joins u to a proper ancestor w, and its fundamental cycle is the
    tree path from w down to u plus the edge: depth[u] - depth[w] + 1
    edges.  Seen from u, w is a visited neighbour with depth[w] <
    depth[u] - 1 (u's parent is the only ancestor one level up), and each
    back edge is seen from its lower end exactly once.  The DFS stack is
    the tree path from the root to u, with entry i at depth i, so the
    cycle is the stack's vertices from depth[w] on.
    """
    depth: dict[int, int] = {}
    for root in g.adj:
        if root in depth:
            continue
        depth[root] = 0
        stack = [(root, iter(g.adj[root]))]
        while stack:
            u, it = stack[-1]
            du = depth[u]
            for w in it:
                dw = depth.get(w)
                if dw is None:
                    depth[w] = du + 1
                    stack.append((w, iter(g.adj[w])))
                    break
                if dw < du - 1 and (du - dw + 1) % 4:
                    return [x for x, _ in stack[dw:]]
            else:
                stack.pop()
    return None


# --- cut pairs -----------------------------------------------------------


def cut_path_candidates(g: Graph, bp: TypedBipartition) -> list[PathRec]:
    """All paths satisfying the cut-path condition.

    They are exactly the maximal degree-2 chains whose two anchors have
    degree >= 3 and different types.
    """
    out = []
    for walk in g.chains():
        if walk[0] == walk[-1]:
            continue
        if g.degree(walk[0]) < 3 or g.degree(walk[-1]) < 3:
            continue
        if bp.same_type(walk[0], walk[-1]):
            continue
        out.append(PathRec(tuple(walk)))
    out.sort(key=lambda p: p.vertices)
    return out


def cuts_graph(
    g: Graph, bp: TypedBipartition, p: PathRec, q: PathRec
) -> tuple[frozenset[int], frozenset[int]] | None:
    """Check the cut-pair definition directly; return the two determined
    sides (p.x's side first) or None.
    """
    if set(p.vertices) & set(q.vertices):
        return None
    if not (
        satisfies_cut_path_condition(g, bp, p)
        and satisfies_cut_path_condition(g, bp, q)
    ):
        return None
    # delete both interiors: the inner vertices, and the edge of a path of
    # length 1; `subgraph` builds fresh adjacency sets, so g is untouched
    h = g.subgraph(set(g.adj) - set(p.interior) - set(q.interior))
    for r in (p, q):
        if r.length == 1:
            h.adj[r.x].discard(r.y)
            h.adj[r.y].discard(r.x)
    comps = h.components()
    if len(comps) != 2:
        return None
    c = next(comp for comp in comps if p.x in comp)
    d = next(comp for comp in comps if p.x not in comp)
    ends_ok = (
        q.x in c or q.y in c
    ) and (q.x in d or q.y in d) and p.y in d
    if not ends_ok:
        return None
    qc = q.x if q.x in c else q.y
    qd = q.y if qc == q.x else q.x
    if not (bp.same_type(p.x, qc) and bp.same_type(p.y, qd)):
        return None
    return frozenset(c), frozenset(d)


def minimal_determined_side(g: Graph, bp: TypedBipartition) -> CutPair:
    """The cut pair with an inclusion-minimal determined side, as side_c.

    Tries every pair of cut-path candidates with `cuts_graph`, and keeps
    the least side of any pair by (size, sorted side, p, q).  That side is
    inclusion-minimal: a side strictly inside it would be smaller.  All
    degree->=3 vertices of side_c share one type, and both paths start
    in side_c.
    """
    candidates = cut_path_candidates(g, bp)
    if not candidates:
        raise NoCutPath("no path satisfies the cut-path condition")
    best = None   # (key, side, other side, p, q)
    for p, q in itertools.combinations(candidates, 2):
        got = cuts_graph(g, bp, p, q)
        if got is None:
            continue
        for side, other in (got, got[::-1]):
            key = (len(side), sorted(side), p.vertices, q.vertices)
            if best is None or key < best[0]:
                best = (key, side, other, p, q)
    if best is None:
        raise NoCutPath("no pair of cut paths splits the graph")
    _, side, other, p, q = best
    # orient both paths so their first ends sit in the minimal side
    if p.x not in side:
        p = p.reversed()
    if q.x not in side:
        q = q.reversed()
    deg3_types = {bp.is_beta(v) for v in side if g.degree(v) >= 3}
    if len(deg3_types) > 1:
        raise CaseUnmatched(
            "minimal determined side has branching vertices of both types"
        )
    return CutPair(p, q, side, other)
