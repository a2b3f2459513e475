"""Constructive 2-colourings with no monochromatic cycle.

Given a graph whose cycles all have length 0 mod 4, a fixed colouring `a`
of the alpha side and a pinned beta vertex, build a colouring `b` of the
beta side so that under the combined colouring no cycle is monochromatic
and degree-2 beta-to-beta stretches alternate.

The work is split in two.  `prepare(g, bp)` makes one `blocks()` call and
prepares each block of g: its vertex set, its subgraph (only for 3 or
more vertices), its cut vertices and its rule.  A block whose branching
vertices are all beta is coloured by distance parity, one whose branching
vertices are all alpha by chain alternation, and a mixed block is split
along a minimal determined side of a cut pair into parts prepared the same
way.  None of this depends on (a, pin, colour): the block forest, the
block subgraphs and the block kinds depend on g and the typing alone, and
so do the parity colouring of a parity block (up to a swap), the chains of
a chain block and the minimal side of a mixed block.  `ColourPlan.solve`
and `ColourPlan.solve_4cycle` then walk the prepared forest outward from
the block that holds the anchor (the pin, or the 4-cycle of
`solve_4cycle`) for one (a, pin, colour) or one opposite pair.
`color_beta` and `color_beta_4cycle` are one prepare and one solve.

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
from .ugraph import DEFAULT_CYCLE_CAP, Graph


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
    else None.  Uncoloured vertices lie on no such cycle.

    Lemma: the subgraph a colour class induces has exactly the edges of g
    whose two ends have that colour.  So no class holds a cycle iff one
    union-find pass over those edges never meets an edge whose ends are
    joined already, and that pass copies nothing.  Only when it meets one
    is a class's subgraph built, colour 1 first, for `find_cycle`'s
    witness.
    """
    parent: dict[int, int] = {}   # non-roots only

    def root(v: int) -> int:
        while v in parent:
            up = parent[v]
            if up in parent:
                parent[v] = up = parent[up]   # path halving
            v = up
        return v

    for u, nbrs in g.adj.items():
        c = colours.get(u)
        if c != 1 and c != 2:
            continue
        for w in nbrs:
            if u < w and colours.get(w) == c:
                ru, rw = root(u), root(w)
                if ru == rw:
                    return _class_cycle(g, colours)
                parent[ru] = rw
    return None


def _class_cycle(g: Graph, colours: Mapping[int, int]) -> list[int] | None:
    """`find_cycle` on the subgraph of colour 1, else of colour 2."""
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
    """Colour the beta side so no cycle is monochromatic and the pin holds:
    one `prepare` and one `ColourPlan.solve`."""
    return prepare(g, bp, check_family=check_family).solve(a, pin_vertex, pin_colour)


def color_beta_4cycle(
    g: Graph,
    bp: TypedBipartition,
    a: Mapping[int, int],
    v: int,
    y: int,
    v_colour: int,
) -> TwoColoring:
    """Colour the beta side so no cycle is monochromatic, with the two beta
    vertices of a 4-cycle forced to opposite colours (b(v) = v_colour): one
    `prepare` and one `ColourPlan.solve_4cycle`.

    Membership of g in the family is not checked here: the base colouring,
    the one caller, runs only once H is known to be in it.
    """
    return prepare(g, bp, check_family=False).solve_4cycle(a, v, y, v_colour)


# --- the prepare step ----------------------------------------------------


def prepare(
    g: Graph,
    bp: TypedBipartition,
    *,
    check_family: bool = True,
    cap: int = DEFAULT_CYCLE_CAP,
) -> ColourPlan:
    """Everything colouring g needs that does not depend on (a, pin,
    colour), from one `blocks()` call.

    With `check_family`, `is_multi4` (with `cap`) reads the block
    subgraphs built here and raises NotInFamilyH for a non-member before
    any block gets its rule, since the rules rest on the family's lemmas.
    """
    comps, cuts = g.blocks()
    graphs = [None if len(c) < 3 else g if len(c) == g.n else g.subgraph(c) for c in comps]
    if check_family and not is_multi4(
            g, cap=cap, blocks=[sub for sub in graphs if sub is not None]):
        raise NotInFamilyH("a cycle has length not congruent to 0 mod 4")
    return ColourPlan(g, bp, comps, cuts, graphs)


class ColourPlan:
    """A graph's block forest prepared for colouring; made by `prepare`."""

    __slots__ = ("g", "bp", "blocks", "home", "at_cut", "betas")

    def __init__(self, g: Graph, bp: TypedBipartition, comps: list[set[int]],
                 cuts: set[int], graphs: list[Graph | None]):
        self.g, self.bp = g, bp
        self.blocks = [_Block(c, sub, c & cuts, bp) for c, sub in zip(comps, graphs)]
        self.home = {v: i for i, c in enumerate(comps) for v in c}
        self.at_cut: dict[int, list[int]] = {c: [] for c in cuts}
        for i, block in enumerate(self.blocks):
            for c in block.cuts:
                self.at_cut[c].append(i)
        self.betas = sorted(v for v in g.adj if v in bp.beta)

    def solve(self, a: Mapping[int, int], pin_vertex: int, pin_colour: int) -> TwoColoring:
        """Colour the beta side so no cycle is monochromatic and the pin
        holds."""
        bp = self.bp
        if pin_vertex not in bp.beta:
            raise ValueError(f"pin vertex {pin_vertex} is not on the beta side")
        if pin_vertex not in self.g.adj:
            raise ValueError(f"pin vertex {pin_vertex} is not in the graph")
        if pin_colour not in (1, 2):
            raise ValueError("pin colour must be 1 or 2")
        missing = bp.alpha - set(a)
        if missing:
            raise ValueError(f"alpha colouring misses {sorted(missing)}")
        return TwoColoring(_pinned(self, a, pin_vertex, pin_colour))

    def solve_4cycle(self, a: Mapping[int, int], v: int, y: int, v_colour: int) -> TwoColoring:
        """Colour the beta side so no cycle is monochromatic, with the beta
        corners v and y of a 4-cycle at opposite colours, b(v) = v_colour."""
        g, bp = self.g, self.bp
        if v == y or y not in bp.beta or v not in bp.beta:
            raise NotOn4Cycle("need two distinct beta vertices")
        if len(g.adj[v] & g.adj[y]) < 2:
            raise NotOn4Cycle(f"{v} and {y} are not opposite on a 4-cycle")
        # v and y lie on a common cycle, so exactly one block holds both
        return TwoColoring(_walk(
            self, a, {v, y},
            lambda block: _orient_opposite_pair(block, a, v, y, v_colour),
        ))


class _Block:
    """One block: its vertices, its subgraph (None under 3 vertices), its
    cut vertices and the rule that colours it."""

    __slots__ = ("verts", "graph", "cuts", "rule")

    def __init__(self, verts: set[int], graph: Graph | None, cuts: set[int],
                 bp: TypedBipartition):
        self.verts, self.graph, self.cuts = verts, graph, cuts
        self.rule = _Tiny(verts & bp.beta) if graph is None else _rule(graph, bp)


def _rule(block: Graph, bp: TypedBipartition) -> Rule:
    """The rule of a block with >= 3 vertices, by its branching vertices'
    types."""
    types = {v in bp.beta for v, nbrs in block.adj.items() if len(nbrs) >= 3}
    if len(types) == 2:
        return _Split(block, bp)
    if types == {False}:
        return _Chains(block, block, bp)
    return _Parity(block, bp)


# --- the rules: each colours its part for one (a, pin, colour) ------------


class _Tiny:
    """A bridge or a lone vertex: the pin takes its colour, any other beta
    vertex colour 1."""

    __slots__ = ("betas",)

    def __init__(self, betas: set[int]):
        self.betas = betas

    def colour(self, a: Mapping[int, int], pin_v: int | None, pin_c: int | None) -> dict[int, int]:
        return {v: (pin_c if v == pin_v else 1) for v in self.betas}


class _Parity:
    """All branching vertices beta: colour by parity of beta-to-beta
    distance, swapped if the pin needs it.

    Well defined because any two paths between the same ends have lengths
    congruent mod 4.
    """

    __slots__ = ("base",)

    def __init__(self, g: Graph, bp: TypedBipartition):
        betas = sorted(set(g.adj) & bp.beta)
        dist = g.bfs_dist(betas[0])
        self.base = {u: 1 + (dist[u] // 2) % 2 for u in betas}

    def colour(self, a: Mapping[int, int], pin_v: int | None, pin_c: int | None) -> dict[int, int]:
        if pin_v is not None and self.base[pin_v] != pin_c:
            return {u: 3 - col for u, col in self.base.items()}
        return dict(self.base)


class _Chains:
    """All branching vertices alpha: alternate beta colours along each
    degree-2 chain; a chain carrying a single beta vertex is coloured away
    from its lower-id branching end.

    Degrees that decide what counts as a chain are taken in `ambient`
    (the block itself, or the block whose near side `l_graph` is), which
    may be a supergraph of `l_graph`.  By
    the module's lemma the chains are open, end at branching vertices and
    hold every beta vertex exactly once.  Each chain is kept as its
    lower-id end and its beta vertices in walk order.
    """

    __slots__ = ("chains",)

    def __init__(self, l_graph: Graph, ambient: Graph, bp: TypedBipartition):
        self.chains: list[tuple[int, list[int]]] = []
        deg2 = {v for v in l_graph.adj if ambient.degree(v) == 2}
        seen: set[int] = set()
        for v in sorted(deg2):
            if v in seen:
                continue
            walk = _chain_walk(l_graph, deg2, v)
            seen.update(walk)
            self.chains.append((min(walk[0], walk[-1]), [u for u in walk if u in bp.beta]))

    def colour(self, a: Mapping[int, int], pin_v: int | None, pin_c: int | None) -> dict[int, int]:
        b: dict[int, int] = {}
        for end, beta_seq in self.chains:
            if len(beta_seq) == 1 and beta_seq[0] != pin_v:
                b[beta_seq[0]] = 3 - a[end]
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


class _Split:
    """Mixed branching types: split along a minimal determined side into a
    near part, coloured by one rule, and a far part, prepared as a graph.

    A near side of beta type goes with both cut paths into distance
    parity, and the far side is coloured on its own.  A near side of alpha
    type is coloured by chain alternation, and the far side goes with both
    paths.  A side goes with the paths as the subgraph the block induces
    on them, which adds no edge beyond the paths' own.  Lemma: once the
    interiors are removed, only path edges join C to D; inner path
    vertices have degree 2; the near ends share a type and so do the far
    ends, so neither pair is adjacent.  The pin lies in exactly one part
    (the two share only alpha path ends); the part without it is coloured
    unpinned (near) or from its default pin (far).
    """

    __slots__ = ("near", "far", "near_beta", "p")

    def __init__(self, g: Graph, bp: TypedBipartition):
        try:
            pair = minimal_determined_side(g, bp)
        except NoCutPath:
            raise CaseUnmatched(
                "2-connected block with branching vertices of both types but "
                "no cut path; impossible in the mod-4 family"
            )
        c_side, d_side, self.p = pair.side_c, pair.side_d, pair.p
        paths = set(pair.p.vertices) | set(pair.q.vertices)
        self.near_beta = all(bp.is_beta(v) for v in c_side if g.degree(v) >= 3)
        if self.near_beta:
            self.near: Rule = _Parity(g.subgraph(c_side | paths), bp)
            far = g.subgraph(d_side)
        else:
            self.near = _Chains(g.subgraph(c_side), g, bp)
            far = g.subgraph(d_side | paths)
        self.far = prepare(far, bp, check_family=False)

    def colour(self, a: Mapping[int, int], pin_v: int | None, pin_c: int | None) -> dict[int, int]:
        if pin_v in self.far.g.adj:
            far = _pinned(self.far, a, pin_v, pin_c)
            near = self.near.colour(a, None, None)
        else:
            if self.near_beta:
                far = _pinned(self.far, a, min(self.far.betas), 1)
            else:
                far = _pinned(self.far, a, self.p.y, 3 - a[self.p.x])
            near = self.near.colour(a, pin_v, pin_c)
        return _merge_disjoint(near, far)


Rule = _Tiny | _Parity | _Chains | _Split


def _merge_disjoint(u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
    overlap = set(u) & set(v)
    if any(u[w] != v[w] for w in overlap):
        raise CaseUnmatched(f"colouring merge conflict on {sorted(overlap)}")
    out = dict(u)
    out.update(v)
    return out


# --- the solve step ------------------------------------------------------


RootColouring = Callable[[_Block], dict[int, int]]


def _pinned(plan: ColourPlan, a: Mapping[int, int], pin_v: int, pin_c: int) -> dict[int, int]:
    """Colour the plan's graph with the beta vertex pin_v at colour pin_c."""
    return _walk(plan, a, {pin_v}, lambda block: block.rule.colour(a, pin_v, pin_c))


def _walk(
    plan: ColourPlan,
    a: Mapping[int, int],
    anchor: set[int],
    colour_root: RootColouring,
) -> dict[int, int]:
    """Colour the plan's graph, which may be disconnected, by one walk over
    its prepared block forest.

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
    g, beta, blocks, at_cut = plan.g, plan.bp.beta, plan.blocks, plan.at_cut
    b: dict[int, int] = {}
    walked: set[int] = set()
    passed: set[int] = set()

    def walk(v: int, held: set[int], colour: RootColouring) -> None:
        root = min((i for i in at_cut.get(v, [plan.home[v]]) if held <= blocks[i].verts),
                   key=lambda i: sorted(blocks[i].verts))
        b.update(colour(blocks[root]))
        walked.add(root)
        frontier = [root]
        while frontier:
            nxt: list[int] = []
            for i in frontier:
                # a cut vertex is first passed from its parent block, i;
                # the other blocks at it are its children
                shared_at = {}
                for c in blocks[i].cuts - passed:
                    passed.add(c)
                    for j in at_cut[c]:
                        if j != i:
                            shared_at[j] = c
                for j in sorted(shared_at):
                    c = shared_at[j]
                    block = blocks[j]
                    if c in beta:
                        sub_pin, sub_col = c, b[c]
                    elif g.degree(c) == 2:
                        # degree-2 alpha cut vertex: both incident blocks
                        # are bridges; keep the two beta neighbours apart
                        prev = next(w for w in g.adj[c] if w in blocks[i].verts)
                        here = next(w for w in g.adj[c] if w in block.verts)
                        sub_pin, sub_col = here, 3 - b[prev]
                    else:
                        sub_pin, sub_col = min(block.verts & beta), 1
                    sub = block.rule.colour(a, sub_pin, sub_col)
                    for w, col in sub.items():
                        if w in b and b[w] != col:
                            raise CaseUnmatched(f"block gluing conflict at {w}")
                    b.update(sub)
                    walked.add(j)
                    nxt.append(j)
            frontier = nxt

    walk(min(anchor), anchor, colour_root)
    for v in plan.betas:
        if plan.home[v] not in walked:
            walk(v, {v}, lambda block: block.rule.colour(a, v, 1))
    return b


def _orient_opposite_pair(
    block: _Block,
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
    b = block.rule.colour(a, v, v_colour)
    if b[y] == v_colour and block.graph.degree(y) == 2:
        b[y] = 3 - v_colour
    if b[y] != v_colour and mono_cycle(block.graph, combine(a, b)) is None:
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
