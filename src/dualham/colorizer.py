"""Constructive 2-colourings with no monochromatic cycle.

Given a graph whose cycles all have length 0 mod 4, a fixed colouring `a`
of the alpha side and a pinned beta vertex, build a colouring `b` of the
beta side so that under the combined colouring no cycle is monochromatic
and degree-2 beta-to-beta stretches alternate.

The construction is recursive: glue over the block-cut tree, handle blocks
whose branching vertices are all beta by distance parity, blocks whose
branching vertices are all alpha by chain alternation, and split mixed
blocks along a minimal determined side of a cut pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import CaseUnmatched, NoCutPath, NotInFamilyH
from .structure import TypedBipartition, is_multi4, minimal_determined_side
from .ugraph import DEFAULT_CYCLE_CAP, Graph


@dataclass(frozen=True)
class TwoColoring:
    """Colour map of the beta side."""

    colour_of: Mapping[int, int]

    def __getitem__(self, v: int) -> int:
        return self.colour_of[v]


def combine(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """The combined colouring: a on the alpha side, b on the beta side."""
    out = dict(a)
    out.update(b)
    return out


def mono_cycle(g: Graph, colours: Mapping[int, int]) -> list[int] | None:
    """A cycle of g whose vertices all have colour 1, else one in colour 2,
    else None.  Uncoloured vertices lie on no such cycle."""
    for c in (1, 2):
        cyc = g.subgraph({v for v in g.adj if colours.get(v) == c}).find_cycle()
        if cyc is not None:
            return cyc
    return None


def color_beta(
    g: Graph,
    bp: TypedBipartition,
    a: Mapping[int, int],
    pin_vertex: int,
    pin_colour: int,
    *,
    check_family: bool = True,
    cap: int = DEFAULT_CYCLE_CAP,
) -> TwoColoring:
    """Colour the beta side so no cycle is monochromatic and the pin holds."""
    if pin_vertex not in bp.beta:
        raise ValueError(f"pin vertex {pin_vertex} is not on the beta side")
    if pin_colour not in (1, 2):
        raise ValueError("pin colour must be 1 or 2")
    missing = bp.alpha - set(a)
    if missing:
        raise ValueError(f"alpha colouring misses {sorted(missing)}")
    if check_family and not is_multi4(g, cap=cap):
        raise NotInFamilyH("a cycle has length not congruent to 0 mod 4")
    b: dict[int, int] = {}
    for comp in sorted(g.components(), key=min):
        sub = g.subgraph(comp)
        if pin_vertex in comp:
            b.update(_color_connected(sub, bp, a, pin_vertex, pin_colour))
        else:
            b.update(_color_connected(sub, bp, a, None, None))
    return TwoColoring(b)


# --- recursive machinery -------------------------------------------------


def _color_connected(
    g: Graph,
    bp: TypedBipartition,
    a: Mapping[int, int],
    pin_v: int | None,
    pin_c: int | None,
) -> dict[int, int]:
    """Colour a connected graph by gluing block colourings over the cut tree."""
    betas = set(g.adj) & bp.beta
    if not betas:
        return {}
    if pin_v is None:
        pin_v, pin_c = min(betas), 1
    comps, cuts = g.blocks()
    comps = [frozenset(c) for c in comps]
    root = min((i for i, c in enumerate(comps) if pin_v in c),
               key=lambda i: sorted(comps[i]))
    return _glue_blocks(g, bp, a, comps, root, pin_v, pin_c, None)


def _glue_blocks(
    g: Graph,
    bp: TypedBipartition,
    a: Mapping[int, int],
    comps: list[frozenset[int]],
    root: int,
    pin_v: int | None,
    pin_c: int | None,
    root_colours: dict[int, int] | None,
) -> dict[int, int]:
    """BFS the block tree outward from `root`, pinning each new block at the
    cut vertex it hangs from (or, for a degree-2 alpha cut vertex, at the
    beta neighbour just past it, to keep chain alternation intact).
    """
    b: dict[int, int] = {}
    if root_colours is not None:
        b.update(root_colours)
    else:
        b.update(_color_block(g.subgraph(comps[root]), bp, a, pin_v, pin_c))
    done = {root}
    frontier = [root]
    while frontier:
        nxt: list[int] = []
        for i in frontier:
            for j in range(len(comps)):
                if j in done:
                    continue
                shared = comps[i] & comps[j]
                if not shared:
                    continue
                (c,) = shared
                block = g.subgraph(comps[j])
                if c in bp.beta:
                    sub_pin, sub_col = c, b[c]
                elif g.degree(c) == 2:
                    # degree-2 alpha cut vertex: both incident blocks are
                    # bridges; keep the two beta neighbours apart
                    prev = next(w for w in g.adj[c] if w in comps[i])
                    here = next(w for w in g.adj[c] if w in comps[j])
                    sub_pin, sub_col = here, 3 - b[prev]
                else:
                    block_betas = set(block.adj) & bp.beta
                    sub_pin, sub_col = (min(block_betas), 1) if block_betas else (None, None)
                if sub_pin is not None:
                    sub = _color_block(block, bp, a, sub_pin, sub_col)
                    for v, col in sub.items():
                        if v in b and b[v] != col:
                            raise CaseUnmatched(f"block gluing conflict at {v}")
                    b.update(sub)
                done.add(j)
                nxt.append(j)
        frontier = nxt
    return b


def _color_block(
    g: Graph,
    bp: TypedBipartition,
    a: Mapping[int, int],
    pin_v: int | None,
    pin_c: int | None,
) -> dict[int, int]:
    """Colour one block (2-connected, or a bridge edge)."""
    betas = set(g.adj) & bp.beta
    if not betas:
        return {}
    if pin_v is None:
        pin_v, pin_c = min(betas), 1
    if g.m <= 1:
        return {v: (pin_c if v == pin_v else 1) for v in betas}
    branch_beta = any(g.degree(v) >= 3 for v in betas)
    branch_alpha = any(g.degree(v) >= 3 and v not in bp.beta for v in g.adj)
    if branch_beta and branch_alpha:
        return _split_on_cut_pair(g, bp, a, pin_v, pin_c)
    if branch_alpha:
        return _procedure_chain_alternate(g, g, bp, a, pin_v, pin_c)
    return _procedure_distance_parity(g, bp, pin_v, pin_c)


def _procedure_distance_parity(
    g: Graph, bp: TypedBipartition, pin_v: int | None, pin_c: int | None
) -> dict[int, int]:
    """All branching vertices beta: colour by parity of beta-to-beta distance.

    Well defined because any two paths between the same ends have lengths
    congruent mod 4.
    """
    betas = sorted(set(g.adj) & bp.beta)
    if not betas:
        return {}
    w = betas[0]
    dist = g.bfs_dist(w)
    b = {u: 1 + (dist[u] // 2) % 2 for u in betas}
    if pin_v is not None and b[pin_v] != pin_c:
        b = {u: 3 - col for u, col in b.items()}
    return b


def _procedure_chain_alternate(
    l_graph: Graph,
    ambient: Graph,
    bp: TypedBipartition,
    a: Mapping[int, int],
    pin_v: int | None,
    pin_c: int | None,
) -> dict[int, int]:
    """All branching vertices alpha: alternate beta colours along each
    degree-2 chain; a chain carrying a single beta vertex is coloured away
    from its lower-id branching end.

    Degrees that decide what counts as a chain are taken in `ambient`
    (the graph the recursion is currently working inside), which may be a
    supergraph of `l_graph`.
    """
    b: dict[int, int] = {}
    deg2 = {v for v in l_graph.adj if ambient.degree(v) == 2}
    seen: set[int] = set()
    walks: list[tuple[list[int], bool]] = []  # (walk, closed)
    for v in sorted(deg2):
        if v in seen:
            continue
        walk = _chain_walk(l_graph, deg2, v)
        closed = walk[0] == walk[-1] and len(walk) > 2
        seen.update(w for w in walk if w in deg2)
        walks.append((walk, closed))
    # isolated beta vertices of degree != 2 in ambient but <= 2 in l_graph:
    # in this procedure every beta vertex has ambient degree <= 2, so the
    # walks cover all betas except ambient-degree-<2 strays
    for walk, closed in walks:
        beta_seq = [v for v in walk if v in bp.beta]
        if closed and walk[0] == walk[-1] and walk[0] in bp.beta:
            beta_seq = beta_seq[:-1]
        if not beta_seq:
            continue
        if len(beta_seq) == 1:
            (u,) = beta_seq
            if u == pin_v:
                b[u] = pin_c
                continue
            ends = [walk[0], walk[-1]]
            if all(ambient.degree(e) >= 3 for e in ends) and not closed:
                b[u] = 3 - a[min(ends)]
            else:
                b[u] = 1
            continue
        colours = {v: 1 + i % 2 for i, v in enumerate(beta_seq)}
        if pin_v in colours and colours[pin_v] != pin_c:
            colours = {v: 3 - col for v, col in colours.items()}
        for u, col in colours.items():
            if u in b and b[u] != col:
                raise CaseUnmatched(f"chain alternation conflict at {u}")
        b.update(colours)
    # beta strays not on any chain (ambient degree <= 1)
    for v in (set(l_graph.adj) & bp.beta) - set(b):
        b[v] = pin_c if v == pin_v else 1
    if pin_v is not None and pin_v in b and b[pin_v] != pin_c:
        raise CaseUnmatched(f"pin {pin_v} unreachable in chain procedure")
    return b


def _chain_walk(g: Graph, deg2: set[int], v: int) -> list[int]:
    """Maximal walk through degree-2 vertices containing v; may be closed."""
    left = [v]
    prev = None
    cur = v
    while cur in deg2:
        nbs = sorted(w for w in g.adj[cur] if w != prev)
        if not nbs:
            break
        prev, cur = cur, nbs[0]
        left.append(cur)
        if cur == v:
            return left  # closed cycle
    right: list[int] = []
    prev = left[1] if len(left) > 1 else None
    cur = v
    while cur in deg2:
        nbs = [w for w in g.adj[cur] if w != prev]
        if not nbs:
            break
        prev, cur = cur, nbs[0]
        right.append(cur)
    return left[::-1][:-1] + [v] + right if right else left[::-1]


def _split_on_cut_pair(
    g: Graph,
    bp: TypedBipartition,
    a: Mapping[int, int],
    pin_v: int,
    pin_c: int,
) -> dict[int, int]:
    """Mixed branching types: split along a minimal determined side."""
    try:
        pair, side = minimal_determined_side(g, bp)
    except NoCutPath:
        raise CaseUnmatched(
            "2-connected block with branching vertices of both types but "
            "no cut path; impossible in the mod-4 family"
        )
    c_side, d_side = pair.side_c, pair.side_d
    p, q = pair.p, pair.q
    x1, y1, x2, y2 = p.x, p.y, q.x, q.y
    path_edges = [
        (u, v)
        for pr in (p, q)
        for u, v in zip(pr.vertices, pr.vertices[1:])
    ]
    side_is_beta = all(
        bp.is_beta(v) for v in c_side if g.degree(v) >= 3
    )
    if side_is_beta:
        # near side beta: colour C plus both paths by distance parity,
        # the far component independently
        k_vertices = set(c_side) | set(p.vertices) | set(q.vertices)
        k_edges = [e for e in g.subgraph(c_side).edges()] + path_edges
        k_graph = Graph.from_edges(k_edges, k_vertices)
        for v in k_graph.adj:
            if k_graph.degree(v) >= 3 and not bp.is_beta(v):
                raise CaseUnmatched(
                    f"alpha branching vertex {v} inside the beta-side union"
                )
        d_graph = g.subgraph(d_side)
        if pin_v in bp.beta & set(k_graph.adj):
            k = _procedure_distance_parity(k_graph, bp, pin_v, pin_c)
            d = _color_connected(d_graph, bp, a, None, None)
        else:
            k = _procedure_distance_parity(k_graph, bp, None, None)
            d = _color_connected(d_graph, bp, a, pin_v, pin_c)
        return _merge_disjoint(k, d)
    # near side alpha: colour C by chain alternation, recurse on the far
    # component together with both paths
    l_graph = g.subgraph(c_side)
    dpq_vertices = set(d_side) | set(p.vertices) | set(q.vertices)
    dpq_edges = [e for e in g.subgraph(d_side).edges()] + path_edges
    dpq_graph = Graph.from_edges(dpq_edges, dpq_vertices)
    if pin_v in set(dpq_graph.adj) & bp.beta:
        c1 = _color_connected(dpq_graph, bp, a, pin_v, pin_c)
        l = _procedure_chain_alternate(l_graph, g, bp, a, None, None)
    else:
        c2 = _color_connected(dpq_graph, bp, a, y1, 3 - a[x1])
        l = _procedure_chain_alternate(l_graph, g, bp, a, pin_v, pin_c)
        c1 = c2
    return _merge_disjoint(l, c1)


def _merge_disjoint(u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
    overlap = set(u) & set(v)
    if any(u[w] != v[w] for w in overlap):
        raise CaseUnmatched(f"colouring merge conflict on {sorted(overlap)}")
    out = dict(u)
    out.update(v)
    return out


# --- the opposite-pair variant -------------------------------------------


def color_beta_4cycle(
    g: Graph,
    bp: TypedBipartition,
    a: Mapping[int, int],
    v: int,
    y: int,
    v_colour: int = 1,
    *,
    check_family: bool = True,
    cap: int = DEFAULT_CYCLE_CAP,
) -> TwoColoring:
    """Colour the beta side so no cycle is monochromatic, with the two beta
    vertices of a 4-cycle forced to opposite colours (b(v) = v_colour).
    """
    from .errors import NotOn4Cycle

    if v == y or y not in bp.beta or v not in bp.beta:
        raise NotOn4Cycle("need two distinct beta vertices")
    common = sorted(g.adj[v] & g.adj[y])
    if len(common) < 2:
        raise NotOn4Cycle(f"{v} and {y} are not opposite on a 4-cycle")
    if check_family and not is_multi4(g, cap=cap):
        raise NotInFamilyH("a cycle has length not congruent to 0 mod 4")
    x, z = common[0], common[1]
    comps, cuts = g.blocks()
    comps = [frozenset(c) for c in comps]
    root = next(i for i, c in enumerate(comps) if {v, x, y, z} <= c)
    block = g.subgraph(comps[root])
    b0 = _orient_opposite_pair(block, bp, a, v, y, x, z, v_colour)
    b: dict[int, int] = dict(b0)
    for comp in sorted(g.components(), key=min):
        if v in comp:
            local = [c for c in comps if c <= comp]
            b.update(
                _glue_blocks(g.subgraph(comp), bp, a, local,
                             local.index(comps[root]), None, None, b0)
            )
        else:
            b.update(_color_connected(g.subgraph(comp), bp, a, None, None))
    return TwoColoring(b)


def _orient_opposite_pair(
    block: Graph,
    bp: TypedBipartition,
    a: Mapping[int, int],
    v: int,
    y: int,
    x: int,
    z: int,
    v_colour: int,
) -> dict[int, int]:
    """Colour the 4-cycle's block with b(v) = v_colour != b(y).

    Pin one of the pair and repair the other by recolouring when it has
    degree 2 (then every cycle through it passes both 4-cycle corners);
    fall back to pinning the other end.  Every branch is verified before
    being returned.
    """
    y_colour = 3 - v_colour

    def ok(b: dict[int, int]) -> bool:
        return mono_cycle(block, combine(a, b)) is None

    b1 = _color_block(block, bp, a, v, v_colour)
    if b1[y] == y_colour and ok(b1):
        return b1
    if block.degree(y) == 2:
        b1 = dict(b1)
        b1[y] = y_colour
        if ok(b1):
            return b1
    b2 = _color_block(block, bp, a, y, y_colour)
    if b2[v] == v_colour and ok(b2):
        return b2
    if block.degree(v) == 2:
        b2 = dict(b2)
        b2[v] = v_colour
        if ok(b2):
            return b2
    raise CaseUnmatched(
        f"could not orient beta pair ({v}, {y}) on its 4-cycle"
    )


# --- verification --------------------------------------------------------


@dataclass(frozen=True)
class ColoringReport:
    cycle_free: bool
    alternation_ok: bool
    pin_ok: bool
    witness_cycle: tuple[int, ...] | None = None
    witness_path: tuple[int, ...] | None = None

    @property
    def passed(self) -> bool:
        return self.cycle_free and self.alternation_ok and self.pin_ok


def verify_coloring(
    g: Graph,
    bp: TypedBipartition,
    combined: Mapping[int, int],
    pin_vertex: int | None = None,
    pin_colour: int | None = None,
) -> ColoringReport:
    """Check the three output conditions on a total combined colouring."""
    missing = set(g.adj) - set(combined)
    if missing:
        raise ValueError(f"combined colouring misses {sorted(missing)}")
    cyc = mono_cycle(g, combined)
    witness_cycle = tuple(cyc) if cyc is not None else None
    witness_path = None
    for walk in g.chains():
        closed = walk[0] == walk[-1] and len(walk) > 2
        seq = [(i, v) for i, v in enumerate(walk) if v in bp.beta]
        if closed and seq and seq[0][1] == walk[0] == walk[-1]:
            seq = seq[:-1] if walk[-1] in bp.beta and seq[-1][0] == len(walk) - 1 else seq
        pairs = list(zip(seq, seq[1:]))
        if closed and len(seq) > 1:
            pairs.append((seq[-1], seq[0]))
        for (i, u), (j, w) in pairs:
            if combined[u] == combined[w]:
                witness_path = tuple(walk[min(i, j): max(i, j) + 1]) or (u, w)
                break
        if witness_path:
            break
    pin_ok = True
    if pin_vertex is not None:
        pin_ok = combined.get(pin_vertex) == pin_colour
    return ColoringReport(
        cycle_free=witness_cycle is None,
        alternation_ok=witness_path is None,
        pin_ok=pin_ok,
        witness_cycle=witness_cycle,
        witness_path=witness_path,
    )
