"""Lemma checkers for graphs whose every cycle has length 0 mod 4, a
2-connectivity test, and an exhaustive generator of small 2-connected
members of that family.

The checkers are falsification targets: the colourer does not call them,
the tests run them on every member they build.  The generator needs
networkx for isomorphism; callers skip without it.
"""

from __future__ import annotations

import itertools

from dualham.errors import DualhamError
from dualham.structure import PathRec, TypedBipartition, is_multi4
from dualham.ugraph import Graph


class NotCPath(DualhamError):
    """Path does not meet the subgraph exactly in its two ends."""


def cpath_type_check(g: Graph, bp: TypedBipartition, c: Graph, p: PathRec) -> bool:
    """For a path meeting the 2-connected subgraph c exactly in its ends:
    do the two ends have equal type?  Must hold whenever every cycle of g
    has length 0 mod 4.
    """
    for a, b in zip(p.vertices, p.vertices[1:]):
        if not g.has_edge(a, b):
            raise ValueError(f"missing edge {a}-{b}")
    if p.x not in c or p.y not in c:
        raise NotCPath("path ends must lie in the subgraph")
    if any(v in c for v in p.interior):
        raise NotCPath("path interior meets the subgraph")
    if p.length == 1 and c.has_edge(p.x, p.y):
        raise NotCPath("path is an edge of the subgraph")
    return bp.same_type(p.x, p.y)


def heavy_4cycle_check(g: Graph, bp: TypedBipartition) -> bool:
    """No 4-cycle may carry an edge with both ends of degree >= 3.

    Always true on 2-connected graphs whose cycles all have length 0 mod 4.
    """
    verts = g.vertices
    for u, v in itertools.combinations(verts, 2):
        common = sorted(g.adj[u] & g.adj[v])
        for x, z in itertools.combinations(common, 2):
            cycle = [u, x, v, z]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if g.degree(a) >= 3 and g.degree(b) >= 3:
                    return False
    return True


def opposite_pairs(g: Graph) -> list[tuple[int, int]]:
    """The pairs of opposite corners of g's 4-cycles: two vertices with at
    least two common neighbours."""
    return [(u, v) for u, v in itertools.combinations(g.vertices, 2)
            if len(g.adj[u] & g.adj[v]) >= 2]


def opposite_corners_check(g: Graph) -> bool:
    """Opposite corners of every 4-cycle both branch or both have degree 2.

    Always true on 2-connected graphs whose cycles all have length 0 mod 4
    (the opposite-corner lemma of `dualham.treesplit`).
    """
    return all((g.degree(u) >= 3) == (g.degree(v) >= 3) for u, v in opposite_pairs(g))


def is_biconnected(g: Graph) -> bool:
    """True for graphs on >= 3 vertices with a single block.

    One block on >= 3 vertices is the whole graph, connected and with no
    cut vertex: every vertex lies in a block, and a cut vertex in two.
    """
    return g.n >= 3 and len(g.blocks()[0]) == 1


def ear_grown_members(n_max: int) -> list[Graph]:
    """Every 2-connected family member on at most n_max vertices, one per
    isomorphism class, ordered by vertex count.

    Grown from the cycles C4, C8, ... by adding ears (paths between two
    vertices, with new inner vertices), keeping a graph only while it is
    in the family.  Complete: a 2-connected graph has an ear decomposition
    from any of its cycles, and every stage is a subgraph of the final
    graph, hence a 2-connected member itself.
    """
    import networkx as nx

    classes: dict[tuple, list] = {}
    found: list[Graph] = []

    def keep(g: Graph) -> None:
        key = (g.n, g.m, tuple(sorted(g.degree(v) for v in g.adj)))
        ng = nx.Graph(g.edges())
        if not any(nx.is_isomorphic(ng, other) for other in classes.get(key, ())):
            classes.setdefault(key, []).append(ng)
            found.append(g)

    for k in range(4, n_max + 1, 4):
        keep(Graph.from_edges([(i, (i + 1) % k) for i in range(k)]))
    i = 0
    while i < len(found):
        g = found[i]
        i += 1
        for u, v in itertools.combinations(g.vertices, 2):
            dist = g.bfs_dist(u)[v]
            # the new cycle through the shortest u-v path needs length 0 mod 4
            for length in range((-dist) % 4 or 4, n_max - g.n + 2, 4):
                if length == 1 and g.has_edge(u, v):
                    continue
                inner = list(range(g.n, g.n + length - 1))
                path = [u, *inner, v]
                h = g.union(Graph.from_edges(zip(path, path[1:])))
                if is_multi4(h):
                    keep(h)
    found.sort(key=lambda g: g.n)
    return found
