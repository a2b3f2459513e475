"""Constructive 2-colourings with no monochromatic cycle.

Given a graph whose cycles all have length 0 mod 4, a fixed colouring `a`
of the alpha side and a pinned beta vertex, build a colouring `b` of the
beta side so that under the combined colouring no cycle is monochromatic
and degree-2 beta-to-beta stretches alternate.

The construction walks the block-cut tree of each component outward from
the block that holds the anchor (the pin, or the 4-cycle of
`color_beta_4cycle`).  A block whose branching vertices are all beta is
coloured by distance parity, one whose branching vertices are all alpha
by chain alternation, and a mixed block is split along a minimal
determined side of a cut pair.

Every edge joins alpha to beta, so every block with an edge holds a beta
vertex.  The branches left out rest on one lemma:

- A block with >= 3 vertices is 2-connected.  So every vertex in it has
  degree >= 2, and a block with a branching vertex is not a cycle.
- Chain alternation runs in two places: on a block whose branching
  vertices are all alpha, and on the alpha side C of a cut pair.  A chain
  in C ends at vertices that branch in g and never leaves C.
- In both places every beta vertex has ambient degree 2 and lies inside
  exactly one chain, and every chain is open, has two branching ends and
  carries at least one beta vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import CaseUnmatched, NoCutPath, NotInFamilyH, NotOn4Cycle
from .structure import TypedBipartition, is_multi4, minimal_determined_side
from .ugraph import Graph


@dataclass(frozen=True)
class TwoColoring:
    """Colour map of the beta side."""

    colour_of: Mapping[int, int]


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
) -> TwoColoring:
    """Colour the beta side so no cycle is monochromatic and the pin holds."""
    if pin_vertex not in bp.beta:
        raise ValueError(f"pin vertex {pin_vertex} is not on the beta side")
    if pin_vertex not in g.adj:
        raise ValueError(f"pin vertex {pin_vertex} is not in the graph")
    if pin_colour not in (1, 2):
        raise ValueError("pin colour must be 1 or 2")
    missing = bp.alpha - set(a)
    if missing:
        raise ValueError(f"alpha colouring misses {sorted(missing)}")
    if check_family and not is_multi4(g):
        raise NotInFamilyH("a cycle has length not congruent to 0 mod 4")
    return TwoColoring(_color_pinned(g, bp, a, pin_vertex, pin_colour))


# --- recursive machinery -------------------------------------------------


RootColouring = Callable[[Graph], dict[int, int]]


def _color_pinned(
    g: Graph, bp: TypedBipartition, a: Mapping[int, int], pin_v: int, pin_c: int
) -> dict[int, int]:
    """Colour g with the beta vertex pin_v at colour pin_c."""
    return _glue_blocks(
        g, bp, a, {pin_v}, lambda block: _color_block(block, bp, a, pin_v, pin_c)
    )


def _glue_blocks(
    g: Graph,
    bp: TypedBipartition,
    a: Mapping[int, int],
    anchor: set[int],
    colour_root: RootColouring,
) -> dict[int, int]:
    """Colour g, which may be disconnected, by one walk over its block
    forest: one `blocks()` call and no separate component pass.

    Each component's block tree is walked from one root block.  The
    anchor's component goes first, from the lowest block holding `anchor`,
    coloured by `colour_root`.  Every other component with a beta vertex
    goes from the lowest block holding its least beta vertex, pinned to 1.
    The walk is breadth first, pinning each new block at the cut vertex it
    hangs from (or, for a degree-2 alpha cut vertex, at the beta neighbour
    just past it, to keep chain alternation intact).

    Lemma: the walk from a block reaches exactly the blocks of its
    component, so a beta vertex that no walk has reached when the
    ascending scan comes to it is the least beta vertex of its component.
    A block's neighbours are the blocks at its cut vertices, taken in
    block order; each cut vertex is passed once, so the walk is linear in
    the size of the block forest.
    """
    blocks, cuts = g.blocks()
    comps = [frozenset(c) for c in blocks]
    home = {v: i for i, comp in enumerate(comps) for v in comp}
    at_cut: dict[int, list[int]] = {c: [] for c in cuts}
    for i, comp in enumerate(comps):
        for c in comp & cuts:
            at_cut[c].append(i)
    b: dict[int, int] = {}
    walked: set[int] = set()

    def walk(v: int, held: set[int], colour: RootColouring) -> None:
        root = min((i for i in at_cut.get(v, [home[v]]) if held <= comps[i]),
                   key=lambda i: sorted(comps[i]))
        b.update(colour(g.subgraph(comps[root])))
        walked.add(root)
        frontier = [root]
        while frontier:
            nxt: list[int] = []
            for i in frontier:
                # a cut vertex is first passed from its parent block, i;
                # the other blocks at it are its children, and popping it
                # passes it once
                shared_at = {j: c for c in comps[i] & cuts
                             for j in at_cut.pop(c, ()) if j != i}
                for j in sorted(shared_at):
                    c = shared_at[j]
                    block = g.subgraph(comps[j])
                    if c in bp.beta:
                        sub_pin, sub_col = c, b[c]
                    elif g.degree(c) == 2:
                        # degree-2 alpha cut vertex: both incident blocks
                        # are bridges; keep the two beta neighbours apart
                        prev = next(w for w in g.adj[c] if w in comps[i])
                        here = next(w for w in g.adj[c] if w in comps[j])
                        sub_pin, sub_col = here, 3 - b[prev]
                    else:
                        sub_pin, sub_col = min(set(block.adj) & bp.beta), 1
                    sub = _color_block(block, bp, a, sub_pin, sub_col)
                    for w, col in sub.items():
                        if w in b and b[w] != col:
                            raise CaseUnmatched(f"block gluing conflict at {w}")
                    b.update(sub)
                    walked.add(j)
                    nxt.append(j)
            frontier = nxt

    walk(min(anchor), anchor, colour_root)
    for v in sorted(u for u in g.adj if u in bp.beta):
        if home[v] not in walked:
            walk(v, {v}, lambda block: _color_block(block, bp, a, v, 1))
    return b


def _color_block(
    g: Graph,
    bp: TypedBipartition,
    a: Mapping[int, int],
    pin_v: int,
    pin_c: int,
) -> dict[int, int]:
    """Colour one block (2-connected, a bridge edge or a lone vertex) with
    its beta vertex pin_v at colour pin_c."""
    betas = set(g.adj) & bp.beta
    if len(g.adj) <= 2:
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
    dist = g.bfs_dist(betas[0])
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
    supergraph of `l_graph`.  By the module's lemma the chains are open,
    end at branching vertices and hold every beta vertex exactly once.
    """
    b: dict[int, int] = {}
    deg2 = {v for v in l_graph.adj if ambient.degree(v) == 2}
    seen: set[int] = set()
    for v in sorted(deg2):
        if v in seen:
            continue
        walk = _chain_walk(l_graph, deg2, v)
        seen.update(walk)
        beta_seq = [u for u in walk if u in bp.beta]
        if len(beta_seq) == 1 and beta_seq[0] != pin_v:
            b[beta_seq[0]] = 3 - a[min(walk[0], walk[-1])]
            continue
        colours = {u: 1 + i % 2 for i, u in enumerate(beta_seq)}
        if pin_v in colours and colours[pin_v] != pin_c:
            colours = {u: 3 - col for u, col in colours.items()}
        b.update(colours)
    return b


def _chain_walk(g: Graph, deg2: set[int], v: int) -> list[int]:
    """The chain through v, from the end past v's lower neighbour to the
    end past its higher one."""
    lo, hi = sorted(g.adj[v])
    return _run_to_end(g, deg2, v, lo)[::-1] + [v] + _run_to_end(g, deg2, v, hi)


def _run_to_end(g: Graph, deg2: set[int], prev: int, cur: int) -> list[int]:
    """The walk from prev's neighbour cur on to the first vertex not in deg2."""
    out = [cur]
    while cur in deg2:
        prev, cur = cur, next(w for w in g.adj[cur] if w != prev)
        out.append(cur)
    return out


def _split_on_cut_pair(
    g: Graph,
    bp: TypedBipartition,
    a: Mapping[int, int],
    pin_v: int,
    pin_c: int,
) -> dict[int, int]:
    """Mixed branching types: split along a minimal determined side.

    A side goes with both cut paths as the subgraph g induces on them,
    which adds no edge beyond the paths' own.  Lemma: once the interiors
    are removed, only path edges join C to D; inner path vertices have
    degree 2; the near ends share a type and so do the far ends, so
    neither pair is adjacent.
    """
    try:
        pair = minimal_determined_side(g, bp)
    except NoCutPath:
        raise CaseUnmatched(
            "2-connected block with branching vertices of both types but "
            "no cut path; impossible in the mod-4 family"
        )
    c_side, d_side = pair.side_c, pair.side_d
    p, q = pair.p, pair.q
    paths = set(p.vertices) | set(q.vertices)
    if all(bp.is_beta(v) for v in c_side if g.degree(v) >= 3):
        # near side beta: colour C plus both paths by distance parity,
        # the far component independently
        k_graph = g.subgraph(c_side | paths)
        d_graph = g.subgraph(d_side)
        if pin_v in k_graph.adj:
            k = _procedure_distance_parity(k_graph, bp, pin_v, pin_c)
            d = _color_pinned(d_graph, bp, a, min(d_side & bp.beta), 1)
        else:
            k = _procedure_distance_parity(k_graph, bp, None, None)
            d = _color_pinned(d_graph, bp, a, pin_v, pin_c)
        return _merge_disjoint(k, d)
    # near side alpha: colour C by chain alternation, recurse on the far
    # component together with both paths
    l_graph = g.subgraph(c_side)
    dpq_graph = g.subgraph(d_side | paths)
    if pin_v in dpq_graph.adj:
        c1 = _color_pinned(dpq_graph, bp, a, pin_v, pin_c)
        l = _procedure_chain_alternate(l_graph, g, bp, a, None, None)
    else:
        c1 = _color_pinned(dpq_graph, bp, a, p.y, 3 - a[p.x])
        l = _procedure_chain_alternate(l_graph, g, bp, a, pin_v, pin_c)
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
    v_colour: int,
) -> TwoColoring:
    """Colour the beta side so no cycle is monochromatic, with the two beta
    vertices of a 4-cycle forced to opposite colours (b(v) = v_colour).

    Membership of g in the family is not checked here: the base colouring,
    the one caller, runs only once H is known to be in it.
    """
    if v == y or y not in bp.beta or v not in bp.beta:
        raise NotOn4Cycle("need two distinct beta vertices")
    if len(g.adj[v] & g.adj[y]) < 2:
        raise NotOn4Cycle(f"{v} and {y} are not opposite on a 4-cycle")
    # v and y lie on a common cycle, so exactly one block holds both
    return TwoColoring(_glue_blocks(
        g, bp, a, {v, y},
        lambda block: _orient_opposite_pair(block, bp, a, v, y, v_colour),
    ))


def _orient_opposite_pair(
    block: Graph,
    bp: TypedBipartition,
    a: Mapping[int, int],
    v: int,
    y: int,
    v_colour: int,
) -> dict[int, int]:
    """Colour the 4-cycle's block with b(v) = v_colour != b(y).

    Pin v; if y then shares v's colour and has degree 2, recolour y (every
    cycle through it passes both 4-cycle corners).  The result is verified
    before it is returned.
    """
    b = _color_block(block, bp, a, v, v_colour)
    if b[y] == v_colour and block.degree(y) == 2:
        b[y] = 3 - v_colour
    if b[y] != v_colour and mono_cycle(block, combine(a, b)) is None:
        return b
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
