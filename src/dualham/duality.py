"""Tree partitions versus Hamilton cycles in the dual.

A partition of a plane triangulation's vertices into two induced trees
meets the dual in a Hamilton cycle: the dual edges of the cut between the
two sides visit every face exactly once.  The correspondence runs both
ways.  On top of it sit the two pipelines stated in terms of the cubic
dual: a Hamilton cycle avoiding one chosen edge, and one that is sparse
on every large face of colour 3, with a per-face report.

The bond-cycle lemma, which makes the dual Hamilton check the
correspondence's only audit (bond-cycle duality; Diestel, Graph Theory,
section 4.6).  Let g be a connected plane graph and (S, T) a partition of
its vertices, with cut delta(S) and dual edge set delta(S)*.
- If g[S] and g[T] are trees, delta(S) is a bond, because both sides are
  connected, so delta(S)* is a cycle of g*.  The trees keep n - 2 edges,
  so the cycle has |E| - (n - 2) = f edges by Euler's formula: it passes
  through every face.
- If delta(S)* is a Hamilton cycle of g*, delta(S) is a bond, so both
  sides are connected.  If g[S] had a cycle Z, some faces would lie
  inside Z and some outside; the Hamilton cycle visits them all, so it
  would cross Z through the dual of an edge of Z.  But no edge of Z is in
  the cut.  So both sides are trees.
So a partition is two induced trees exactly when its cut closes into one
Hamilton cycle of the dual, and checking that cycle checks the partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .embed import DualGraph, EmbeddedGraph, dual
from .errors import BadEdge, NotHamilton, NotTreePartition
from .treesplit import (
    Instance,
    TreePartition,
    analyse,
    tree_partition_face_sparse,
    tree_partition_with_edge,
)
from .ugraph import Graph, norm_edge


@dataclass(frozen=True)
class HamiltonCycle:
    """Closed vertex order visiting every vertex once, stored canonically:
    lowest vertex first, second vertex the smaller of its two neighbours."""

    vertices: tuple[int, ...]

    @staticmethod
    def of(order: Sequence[int]) -> "HamiltonCycle":
        if len(set(order)) != len(order) or len(order) < 3:
            raise NotHamilton(f"not a simple cycle order: {order}")
        k = list(order).index(min(order))
        rot = list(order[k:]) + list(order[:k])
        if rot[-1] < rot[1]:
            rot = [rot[0]] + rot[1:][::-1]
        return HamiltonCycle(tuple(rot))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        n = len(self.vertices)
        return frozenset(
            norm_edge(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)
        )


def verify_hamilton(g: Graph, h: HamiltonCycle) -> bool:
    """Visits every vertex of g once, consecutive vertices adjacent."""
    vs = h.vertices
    if set(vs) != set(g.adj):
        return False
    n = len(vs)
    return all(g.has_edge(vs[i], vs[(i + 1) % n]) for i in range(n))


def _hamilton_in_rotation(d: DualGraph, h: HamiltonCycle) -> bool:
    """`verify_hamilton`'s test read off the dual's rotation system, so
    that the dual's abstract graph need not be built."""
    rot, vs = d.graph.rotation, h.vertices
    if len(vs) != len(rot) or set(vs) != set(range(len(rot))):
        return False
    return all(vs[i] in rot[vs[i - 1]] for i in range(len(vs)))


# --- the correspondence ---------------------------------------------------


def tree_partition_to_hamilton(
    g: EmbeddedGraph, p: TreePartition, d: DualGraph
) -> HamiltonCycle:
    """The dual edges of the cut between the two tree sides, ordered into a
    Hamilton cycle of the dual d of g.

    The sides need not be checked as trees: by the bond-cycle lemma they
    are two trees exactly when the cut closes into one Hamilton cycle, so
    a cut that is not 2-regular on the faces, or that closes early, raises
    `NotTreePartition`, as does a pair of sides that is not an exact cover
    of g's vertices.  `_hamilton_in_rotation` audits the returned cycle.
    """
    s, edge_map = p.s, d.edge_map
    if not s.isdisjoint(p.t) or s | p.t != set(range(g.n)):
        raise NotTreePartition("input sides are not an exact cover of the vertices")
    # each cut edge read once, from its end on the s side
    adj: list[list[int]] = [[] for _ in range(d.graph.n)]
    for v in s:
        for u in g.rotation[v]:
            if u not in s:
                a, b = edge_map[(v, u) if v < u else (u, v)]
                adj[a].append(b)
                adj[b].append(a)
    if any(len(nb) != 2 for nb in adj):
        raise NotTreePartition("cut does not meet every face exactly twice: not two trees")
    order = [0, min(adj[0])]
    while len(order) < d.graph.n:
        a, b = adj[order[-1]]
        nxt = a if a != order[-2] else b
        if nxt == 0:
            raise NotTreePartition("cut closes into more than one cycle: not two trees")
        order.append(nxt)
    h = HamiltonCycle.of(order)
    if not _hamilton_in_rotation(d, h):
        raise NotHamilton("cut edges do not close into one Hamilton cycle")
    return h


def hamilton_to_tree_partition(
    g: EmbeddedGraph, h: HamiltonCycle, d: DualGraph
) -> TreePartition:
    """The two sides of a Hamilton cycle of the dual d of g, read back
    through the face-vertex bijection.  The side holding the lowest primal
    vertex comes first.  Both sides are trees by the bond-cycle lemma, so
    only the cycle is checked."""
    if not _hamilton_in_rotation(d, h):
        raise NotHamilton("input is not a Hamilton cycle of the dual")
    cycle_edges = h.edges
    # primal vertices are glued exactly across primal edges whose dual edge
    # the cycle does not use
    keep = [e for e, de in d.edge_map.items() if de not in cycle_edges]
    side_graph = Graph.from_edges(keep, range(g.n))
    comps = side_graph.components()
    if len(comps) != 2:
        raise NotHamilton(
            f"cycle complement splits the faces into {len(comps)} groups, expected 2"
        )
    first = comps[0] if 0 in comps[0] else comps[1]
    second = comps[1] if first is comps[0] else comps[0]
    return TreePartition(frozenset(first), frozenset(second))


# --- dual statements of the two partition theorems ------------------------


def primal_edge_of(d: DualGraph, e_star: tuple[int, int]) -> tuple[int, int]:
    """Invert the edge bijection."""
    target = norm_edge(*e_star)
    for e, de in d.edge_map.items():
        if de == target:
            return e
    raise BadEdge(f"{e_star} is not an edge of the dual")


def hamilton_avoiding_edge(
    g: EmbeddedGraph, e_star: tuple[int, int], d: DualGraph | None = None
) -> HamiltonCycle:
    """A Hamilton cycle of the dual avoiding the chosen edge.

    The edge must lie on a dual face of colour 3 and size >= 6, i.e. its
    primal edge must join a big class-3 vertex to a neighbour; keeping
    both primal ends on one side of the tree partition removes the edge
    from the cut.  Any other edge raises `BadEdge`.
    """
    if d is None:
        d = dual(g)
    u, w = primal_edge_of(d, e_star)
    part = tree_partition_with_edge(analyse(g), u, w)
    h = tree_partition_to_hamilton(g, part, d)
    if d.edge_map[norm_edge(u, w)] in h.edges:
        raise NotHamilton(f"cycle uses the dual edge {e_star} it should avoid")
    return h


@dataclass(frozen=True)
class FaceAvoidance:
    """How a dual Hamilton cycle treats one dual face of colour 3."""

    primal_vertex: int
    size: int
    avoided: tuple[tuple[int, int], ...]
    pattern: str  # "every-second" | "at-most-two" | "violation"


@dataclass(frozen=True)
class AvoidanceReport:
    faces: tuple[FaceAvoidance, ...]

    @property
    def ok(self) -> bool:
        return all(f.pattern != "violation" for f in self.faces)


def face_avoidance_report(
    an: Instance, h: HamiltonCycle, d: DualGraph
) -> AvoidanceReport:
    """Classify every dual face of colour 3 and size >= 6 against the
    cycle h of the dual d of the analysed triangulation: either exactly
    every second boundary edge is avoided, or at most two are."""
    cycle_edges = h.edges
    rows = []
    for v in sorted(an.bs.b_of(3)):
        boundary = [
            d.edge_map[norm_edge(v, u)] for u in an.g.rotation[v]
        ]
        avoided = [i for i, e in enumerate(boundary) if e not in cycle_edges]
        size = len(boundary)
        parities = {i % 2 for i in avoided}
        if len(avoided) == size // 2 and len(parities) == 1:
            pattern = "every-second"
        elif len(avoided) <= 2:
            pattern = "at-most-two"
        else:
            pattern = "violation"
        rows.append(
            FaceAvoidance(v, size, tuple(boundary[i] for i in avoided), pattern)
        )
    return AvoidanceReport(tuple(rows))


def hamilton_face_sparse(
    g: EmbeddedGraph, d: DualGraph | None = None
) -> tuple[HamiltonCycle, AvoidanceReport]:
    """A Hamilton cycle of the dual that is sparse on every large face of
    colour 3, with the per-face classification."""
    if d is None:
        d = dual(g)
    an = analyse(g)
    part, _ = tree_partition_face_sparse(an)
    h = tree_partition_to_hamilton(g, part, d)
    return h, face_avoidance_report(an, h, d)
