"""The cycle-free beta colouring: construction, pins, and the verifier."""

import hashlib
import itertools
import json
import random
from collections import Counter
from pathlib import Path
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualham.colorizer import (
    color_beta,
    color_beta_4cycle,
    combine,
    mono_cycle,
    prepare,
    verify_coloring,
)
from dualham.embed import EmbeddedGraph
from dualham.errors import CaseUnmatched, NoCutPath, NotBipartite, NotOn4Cycle
from dualham.gen import gen_multi4
from dualham.structure import TypedBipartition, bipartition_typed, minimal_determined_side
from dualham.treesplit import analyse
from dualham.ugraph import Graph, norm_edge
from oracles import golden_two_squares

GOLDEN = Path(__file__).parent / "data" / "with_edge_golden.jsonl"


def cycle(k: int) -> Graph:
    return Graph.from_edges([(i, (i + 1) % k) for i in range(k)])


def theta_4_4_4() -> Graph:
    """Two hubs joined by three length-4 paths; every cycle has length 8."""
    edges = []
    nxt = 2
    for _ in range(3):
        path = [0, nxt, nxt + 1, nxt + 2, 1]
        edges += list(zip(path, path[1:]))
        nxt += 3
    return Graph.from_edges(edges)


def bridged() -> Graph:
    """Two squares joined by a bridge path of length 2."""
    return Graph.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 8), (8, 4),
         (4, 5), (5, 6), (6, 7), (7, 4)]
    )


FAMILIES = [cycle(4), cycle(8), theta_4_4_4(), bridged()]


def all_alpha_colourings(bp):
    vs = sorted(bp.alpha)
    for bits in itertools.product((1, 2), repeat=len(vs)):
        yield dict(zip(vs, bits))


@pytest.mark.parametrize("g", FAMILIES, ids=["c4", "c8", "theta444", "bridged"])
def test_exhaustive_soundness(g):
    bp = bipartition_typed(g)
    for a in all_alpha_colourings(bp):
        for pin in sorted(bp.beta):
            for colour in (1, 2):
                b = color_beta(g, bp, a, pin, colour)
                rep = verify_coloring(g, bp, combine(a, b.colour_of), pin, colour)
                assert rep.passed, (a, pin, colour, dict(b.colour_of), rep)


def test_two_squares_instance(two_squares):
    bp = bipartition_typed(two_squares)
    for a in all_alpha_colourings(bp):
        for pin in sorted(bp.beta):
            b = color_beta(two_squares, bp, a, pin, 2)
            rep = verify_coloring(
                two_squares, bp, combine(a, b.colour_of), pin, 2
            )
            assert rep.passed


def test_k34_has_no_good_colouring():
    # the classic negative control: brute force over every beta colouring
    # finds a monochromatic cycle each time
    g = Graph.from_edges([(i, j) for i in range(3) for j in range(3, 7)])
    bp = TypedBipartition(alpha=frozenset({3, 4, 5, 6}), beta=frozenset({0, 1, 2}))
    a = {3: 1, 4: 1, 5: 2, 6: 2}
    for bits in itertools.product((1, 2), repeat=3):
        combined = combine(a, dict(zip((0, 1, 2), bits)))
        rep = verify_coloring(g, bp, combined)
        assert not rep.cycle_free, bits


def test_pin_outside_the_graph_rejected():
    # 9 is on the record's beta side but is no vertex of the 4-cycle, so
    # no colouring of the graph can hold the pin
    g = cycle(4)
    bp = TypedBipartition(alpha=frozenset({0, 2}), beta=frozenset({1, 3, 9}))
    with pytest.raises(ValueError, match="not in the graph"):
        color_beta(g, bp, {0: 1, 2: 2}, 9, 2)


class Test4Cycle:
    def test_both_orientations(self, two_squares):
        bp = bipartition_typed(two_squares)
        # 1 and 3 are opposite corners of the square 0-1-2-3
        v, y = (1, 3) if bp.is_beta(1) else (0, 2)
        a = {u: 1 + (i % 2) for i, u in enumerate(sorted(bp.alpha))}
        for colour in (1, 2):
            b = color_beta_4cycle(two_squares, bp, a, v, y, colour)
            assert b.colour_of[v] == colour
            assert b.colour_of[y] == 3 - colour
            rep = verify_coloring(two_squares, bp, combine(a, b.colour_of))
            assert rep.cycle_free

    def test_theta_corners(self):
        g = theta_4_4_4()
        bp = bipartition_typed(g)
        beta_mid = [v for v in bp.beta if g.degree(v) == 2]
        # hubs 0,1 share no 4-cycle with anything here
        with pytest.raises(NotOn4Cycle):
            a = {u: 1 for u in bp.alpha}
            color_beta_4cycle(g, bp, a, beta_mid[0], beta_mid[1], 1)


class TestVerifier:
    def test_detects_monochromatic_cycle(self):
        g = cycle(4)
        bp = bipartition_typed(g)
        combined = {0: 1, 1: 1, 2: 1, 3: 1}
        rep = verify_coloring(g, bp, combined)
        assert not rep.cycle_free
        assert rep.witness_cycle is not None

    def test_detects_pin_violation(self):
        g = cycle(4)
        bp = bipartition_typed(g)
        b = color_beta(g, bp, {0: 1, 2: 2}, min(bp.beta), 1)
        rep = verify_coloring(
            g, bp, combine({0: 1, 2: 2}, b.colour_of), min(bp.beta), 2
        )
        assert not rep.pin_ok


@st.composite
def partly_coloured_graphs(draw):
    """A random graph on 1-10 vertices, often disconnected and with
    isolated vertices, and a colouring that may leave vertices out."""
    n = draw(st.integers(1, 10))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    colours = draw(st.lists(st.sampled_from([None, 1, 2]), min_size=n, max_size=n))
    return (Graph.from_edges(edges, range(n)),
            {v: c for v, c in enumerate(colours) if c is not None})


@settings(max_examples=300, deadline=None)
@given(partly_coloured_graphs())
def test_mono_cycle_decides_each_colour_class(case):
    g, colours = case
    classes = [g.subgraph({v for v in g.adj if colours.get(v) == c}) for c in (1, 2)]
    # a graph is a forest iff it has (vertices - components) edges
    forest = [sub.m == sub.n - len(sub.components()) for sub in classes]
    cyc = mono_cycle(g, colours)
    if all(forest):
        assert cyc is None
        return
    assert cyc is not None and len(set(cyc)) == len(cyc) >= 3
    assert all(g.has_edge(cyc[i - 1], cyc[i]) for i in range(len(cyc)))
    # colour 1's class is searched first
    assert {colours.get(v) for v in cyc} == {1 if not forest[0] else 2}


@settings(max_examples=40, deadline=None)
@given(
    bits=st.lists(st.sampled_from([1, 2]), min_size=4, max_size=4),
    pin_idx=st.integers(0, 3),
    colour=st.sampled_from([1, 2]),
)
def test_c8_random_alpha(bits, pin_idx, colour):
    g = cycle(8)
    bp = bipartition_typed(g)
    a = dict(zip(sorted(bp.alpha), bits))
    pin = sorted(bp.beta)[pin_idx]
    b = color_beta(g, bp, a, pin, colour)
    assert verify_coloring(g, bp, combine(a, b.colour_of), pin, colour).passed


# --- glued graphs in both typings, and a disconnected input -------------


def swapped(bp):
    return TypedBipartition(alpha=bp.beta, beta=bp.alpha)


def alternating(bp):
    return {u: 1 + (i % 2) for i, u in enumerate(sorted(bp.alpha))}


def disconnected():
    """two_squares, a C8 on the next labels and an isolated vertex."""
    edges = golden_two_squares().edges() + [(10 + i, 10 + (i + 1) % 8) for i in range(8)]
    return Graph.from_edges(edges, [18])


def test_glued_graphs_sound_in_both_typings(glued_graphs):
    # criterion 2 enumerates every alpha colouring and pin, too slow here;
    # with alpha and beta swapped the near side of a cut pair is often beta
    calls = 0
    for g in glued_graphs:
        for bp in (bipartition_typed(g), swapped(bipartition_typed(g))):
            a = alternating(bp)
            pin = min(bp.beta)
            for colour in (1, 2):
                b = color_beta(g, bp, a, pin, colour)
                assert verify_coloring(g, bp, combine(a, b.colour_of), pin, colour).passed, \
                    (g.edges(), sorted(bp.alpha), colour)
                calls += 1
    assert calls == 4 * len(glued_graphs) == 2752


@pytest.mark.parametrize("swap", [False, True], ids=["isolated-alpha", "isolated-beta"])
def test_disconnected_input(swap):
    g = disconnected()
    bp = bipartition_typed(g)
    bp = swapped(bp) if swap else bp
    a = alternating(bp)
    for pin in sorted(bp.beta):
        for colour in (1, 2):
            b = color_beta(g, bp, a, pin, colour).colour_of
            assert set(b) == bp.beta
            assert verify_coloring(g, bp, combine(a, b), pin, colour).passed
    # the opposite corners of the square 0-1-2-3 on the beta side
    v, y = (0, 2) if swap else (1, 3)
    for colour in (1, 2):
        b = color_beta_4cycle(g, bp, a, v, y, colour).colour_of
        assert set(b) == bp.beta and (b[v], b[y]) == (colour, 3 - colour)
        assert verify_coloring(g, bp, combine(a, b)).passed


# --- the same colourings as the reference ---------------------------------


def _outcome(colour):
    try:
        return dict(colour())
    except Exception as exc:  # the colour-map digest records the error type
        return type(exc)


def _exact_outcome(colour):
    try:
        return dict(colour())
    except Exception as exc:  # then both sides must raise it word for word
        return type(exc), str(exc)


def _reference_color_components(g, bp, a, anchor, colour):
    """The component pass the block-forest walk replaced, as the reference
    colourer runs it: the beta vertex `anchor` at `colour`, or the
    opposite pair `anchor` = (v, y) with b(v) = colour."""
    if isinstance(anchor, tuple):
        return _reference_color_beta_4cycle(g, bp, a, *anchor, colour)
    return _reference_color_beta(g, bp, a, anchor, colour)


def _assert_matches_reference(g, bp, a, pins=None) -> int:
    """Each pin (every beta vertex by default) in both colours, and every
    opposite pair of a 4-cycle both ways round, give the same colouring
    or the same error, word for word; returns the number of calls."""
    pairs = [(v, y) for v, y in itertools.combinations(sorted(bp.beta), 2)
             if len(g.adj[v] & g.adj[y]) >= 2]
    anchors = (sorted(bp.beta) if pins is None else list(pins)) + pairs
    for anchor in anchors:
        for c in (1, 2):
            if isinstance(anchor, tuple):
                new = _exact_outcome(lambda: color_beta_4cycle(g, bp, a, *anchor, c).colour_of)
            else:
                new = _exact_outcome(
                    lambda: color_beta(g, bp, a, anchor, c, check_family=False).colour_of)
            ref = _exact_outcome(lambda: _reference_color_components(g, bp, a, anchor, c))
            assert new == ref, (g.edges(), sorted(bp.alpha), anchor, c)
    return 2 * len(anchors)


def test_matches_reference_on_generated_graphs(hgraphs):
    rng = random.Random(7)
    for g in hgraphs:
        bp = bipartition_typed(g)
        for a in (alternating(bp), {u: rng.choice((1, 2)) for u in sorted(bp.alpha)}):
            _assert_matches_reference(g, bp, a)


def test_matches_reference_on_glued_graphs(glued_graphs):
    for g in glued_graphs:
        for bp in (bipartition_typed(g), swapped(bipartition_typed(g))):
            _assert_matches_reference(g, bp, alternating(bp), (min(bp.beta), max(bp.beta)))


def test_matches_reference_on_disconnected_input():
    """Pins in a component that is not the lowest, a lone alpha and a lone
    beta vertex, and (in the second graph) a 4-cycle pair whose component
    comes last."""
    late = Graph.from_edges([(i, (i + 1) % 8) for i in range(8)]
                            + [(u + 10, v + 10) for u, v in golden_two_squares().edges()], [8])
    for g, lone in ((disconnected(), 18), (late, 8)):
        typed = bipartition_typed(g)
        assert not g.adj[lone] and lone in typed.alpha
        for bp in (typed, swapped(typed)):
            _assert_matches_reference(g, bp, alternating(bp))


@pytest.mark.parametrize("graphs", ["one_pass_graphs", "atlas"])
def test_block_forest_walk_matches_component_pass(graphs, request):
    calls = 0
    for g in request.getfixturevalue(graphs):
        try:
            typed = bipartition_typed(g)
        except NotBipartite:
            continue
        for bp in (typed, swapped(typed)):
            calls += _assert_matches_reference(g, bp, alternating(bp))
    assert calls


def test_matches_reference_on_golden_h():
    """H of every golden row, typed and coloured as the pipelines do."""
    with open(GOLDEN) as f:
        for line in f:
            an = analyse(EmbeddedGraph.build(json.loads(line)["rotation"]))
            bp = TypedBipartition(alpha=frozenset(an.a), beta=an.bs.b_of(3))
            _assert_matches_reference(an.h, bp, an.a)


# sha256 of every colour map below, taken before the cycle and block walks
# became one-pass; a changed colouring anywhere changes it
COLOUR_MAPS_SHA256 = "d9ada144197bad25825782989cafe38e71ad05bef05fbe4c7b068f04aba66d37"


def test_colour_maps_unchanged(hgraphs, glued_graphs, ear_grown):
    """Every pin in both colours, and every opposite beta pair of a 4-cycle
    both ways round, under the alternating alpha colouring: on `hgraphs`,
    and on the glued and ear-grown members in both typings.  Every graph
    here is a member, so the family check is left to its own tests."""
    typed = [(g, bipartition_typed(g)) for g in hgraphs]
    for g in glued_graphs + ear_grown:
        typed += [(g, bipartition_typed(g)), (g, swapped(bipartition_typed(g)))]
    digest = hashlib.sha256()
    calls = 0

    def record(head, colour):
        nonlocal calls
        out = _outcome(colour)
        out = sorted(out.items()) if isinstance(out, dict) else out.__name__
        digest.update(f"{head}: {out}\n".encode())
        calls += 1

    for g, bp in typed:
        a = alternating(bp)
        graph = f"{g.edges()} alpha {sorted(bp.alpha)}"
        # one prepare per (graph, typing), then one solve per call
        plan = prepare(g, bp, check_family=False)
        for pin in sorted(bp.beta):
            for c in (1, 2):
                record(f"{graph} pin {pin}={c}", lambda: plan.solve(a, pin, c).colour_of)
        for v, y in itertools.combinations(sorted(bp.beta), 2):
            if len(g.adj[v] & g.adj[y]) < 2:
                continue
            for c in (1, 2):
                record(f"{graph} pair {v},{y}={c}",
                       lambda: plan.solve_4cycle(a, v, y, c).colour_of)
    assert (calls, digest.hexdigest()) == (34076, COLOUR_MAPS_SHA256)


# --- the prepared colourer: one block forest per graph ----------------------


def _blocks_calls(monkeypatch) -> list[int]:
    """Patch `Graph.blocks` to log the order of each graph it runs on."""
    real = Graph.blocks
    calls: list[int] = []

    def counted(self):
        calls.append(self.n)
        return real(self)

    monkeypatch.setattr(Graph, "blocks", counted)
    return calls


def test_one_block_forest_per_graph(monkeypatch):
    g = bridged()
    bp = bipartition_typed(g)
    a = alternating(bp)
    calls = _blocks_calls(monkeypatch)
    # the family check reads the forest the walk uses
    color_beta(g, bp, a, min(bp.beta), 1)
    assert calls == [g.n]
    calls.clear()
    color_beta_4cycle(g, bp, a, 1, 3, 2)   # opposite beta corners
    assert calls == [g.n]
    calls.clear()
    plan = prepare(g, bp)
    for pin in sorted(bp.beta):
        for colour in (1, 2):
            plan.solve(a, pin, colour)
    assert len(bp.beta) == 5 and calls == [g.n]


def test_a_split_block_is_prepared_once(monkeypatch):
    # one block: the squares 0-1-2-3 and 4-5-6-7 joined by the edge 0-4
    # and the path 2-8-9-6, with branching vertices of both types, so it
    # splits along a cut pair into a far part that is a graph of its own
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7),
                          (7, 4), (0, 4), (2, 8), (8, 9), (9, 6)])
    bp = bipartition_typed(g)
    a = alternating(bp)
    calls = _blocks_calls(monkeypatch)
    plan = prepare(g, bp)
    assert len(calls) == 2 and calls[0] == g.n
    for pin in sorted(bp.beta):
        for colour in (1, 2):
            b = plan.solve(a, pin, colour).colour_of
            assert verify_coloring(g, bp, combine(a, b), pin, colour).passed
    assert len(calls) == 2


def square_chain(k: int) -> Graph:
    """k squares in a row, joined alternately by one bridge and by a path
    of two bridges, whose middle vertex is a degree-2 cut vertex."""
    edges = []
    for s in range(k):
        edges += [(4 * s + t, 4 * s + (t + 1) % 4) for t in range(4)]
    nxt = 4 * k
    for s in range(k - 1):
        if s % 2:
            edges += [(4 * s + 2, nxt), (nxt, 4 * s + 4)]
            nxt += 1
        else:
            edges.append((4 * s + 2, 4 * s + 4))
    return Graph.from_edges(edges)


def test_matches_reference_on_long_block_chain():
    g = square_chain(320)
    assert len(g.blocks()[0]) == 798
    for bp in (bipartition_typed(g), swapped(bipartition_typed(g))):
        a = alternating(bp)
        betas = sorted(bp.beta)
        for pin in (betas[0], betas[len(betas) // 2], betas[-1]):
            for colour in (1, 2):
                b = color_beta(g, bp, a, pin, colour).colour_of
                assert b == _reference_color_beta(g, bp, a, pin, colour)
                assert verify_coloring(g, bp, combine(a, b), pin, colour).passed


def _reference_chains(g: Graph) -> list[list[int]]:
    """Reference for `Graph.chains`: each walk is turned to start at its
    smaller anchor (a closed one to leave through the smaller neighbour)
    and kept only if no equal walk is already listed."""
    out: list[list[int]] = []
    deg2 = {v for v in g.adj if g.degree(v) == 2}
    anchors = set(g.adj) - deg2
    seen_d2: set[int] = set()
    seen_edge: set[tuple[int, int]] = set()
    for a in sorted(anchors):
        for s in sorted(g.adj[a]):
            if norm_edge(a, s) in seen_edge:
                continue
            walk = [a, s]
            seen_edge.add(norm_edge(a, s))
            while walk[-1] in deg2:
                seen_d2.add(walk[-1])
                nxt = next(w for w in g.adj[walk[-1]] if w != walk[-2])
                seen_edge.add(norm_edge(walk[-1], nxt))
                walk.append(nxt)
            if walk[0] > walk[-1] or (walk[0] == walk[-1] and len(walk) > 2 and walk[1] > walk[-2]):
                walk.reverse()
            if walk not in out:
                out.append(walk)
    for v in sorted(deg2 - seen_d2):
        if v in seen_d2:
            continue
        walk = [v]
        prev = None
        cur = v
        while True:
            nxt = min(w for w in g.adj[cur] if w != prev) if prev is None \
                else next(w for w in g.adj[cur] if w != prev)
            walk.append(nxt)
            prev, cur = cur, nxt
            if cur == v:
                break
        seen_d2.update(walk)
        out.append(walk)
    return out


def _subdivided(rng: random.Random) -> Graph:
    """A random multigraph with loops, made simple by subdividing each
    edge: loops and repeated pairs become closed and parallel chains."""
    k = rng.randint(1, 6)
    graph_edges, fresh = [], k
    for _ in range(rng.randint(1, 9)):
        u, v = rng.randrange(k), rng.randrange(k)
        inner = list(range(fresh, fresh + rng.randint(2 if u == v else 1, 4)))
        fresh += len(inner)
        path = [u] + inner + [v]
        graph_edges += zip(path, path[1:])
    return Graph.from_edges(graph_edges, range(fresh))


def test_chains_match_reference():
    rng = random.Random(11)
    graphs = []
    for _ in range(1000):
        n = rng.randint(1, 14)
        p = rng.choice((0.1, 0.2, 0.35))
        graphs.append(Graph.from_edges(
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p], range(n)))
        graphs.append(_subdivided(rng))
    graphs += [gen_multi4(size, seed) for size in range(4, 41, 4) for seed in range(20)]
    graphs.append(square_chain(800))
    shapes = Counter()
    for g in graphs:
        got = g.chains()
        assert got == _reference_chains(g), g
        for walk in got:
            pure = walk[0] == walk[-1] and g.degree(walk[0]) == 2
            shapes["pure cycle" if pure else "closed" if walk[0] == walk[-1] else "open"] += 1
    # closed walks through an anchor and pure cycles both occur
    assert shapes["closed"] and shapes["pure cycle"] and shapes["open"], shapes


def _reference_color_beta(g, bp, a, pin_vertex, pin_colour):
    """Reference for `color_beta` without its input checks: the colourer
    with a component loop and block-tree entry per entry point, closed
    walks and strays in chain alternation, and the pin-y fallback."""
    b: dict[int, int] = {}
    for comp in sorted(g.components(), key=min):
        sub = g.subgraph(comp)
        if pin_vertex in comp:
            b.update(_reference_color_connected(sub, bp, a, pin_vertex, pin_colour))
        else:
            b.update(_reference_color_connected(sub, bp, a, None, None))
    return b


def _reference_color_connected(
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
    return _reference_glue_blocks(g, bp, a, comps, root, pin_v, pin_c, None)


def _reference_glue_blocks(
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
        b.update(_reference_color_block(g.subgraph(comps[root]), bp, a, pin_v, pin_c))
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
                    sub = _reference_color_block(block, bp, a, sub_pin, sub_col)
                    for v, col in sub.items():
                        if v in b and b[v] != col:
                            raise CaseUnmatched(f"block gluing conflict at {v}")
                    b.update(sub)
                done.add(j)
                nxt.append(j)
        frontier = nxt
    return b


def _reference_color_block(
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
        return _reference_split_on_cut_pair(g, bp, a, pin_v, pin_c)
    if branch_alpha:
        return _reference_procedure_chain_alternate(g, g, bp, a, pin_v, pin_c)
    return _reference_procedure_distance_parity(g, bp, pin_v, pin_c)


def _reference_procedure_distance_parity(
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


def _reference_procedure_chain_alternate(
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
        walk = _reference_chain_walk(l_graph, deg2, v)
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


def _reference_chain_walk(g: Graph, deg2: set[int], v: int) -> list[int]:
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


def _reference_split_on_cut_pair(
    g: Graph,
    bp: TypedBipartition,
    a: Mapping[int, int],
    pin_v: int,
    pin_c: int,
) -> dict[int, int]:
    """Mixed branching types: split along a minimal determined side."""
    try:
        pair = minimal_determined_side(g, bp)
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
            k = _reference_procedure_distance_parity(k_graph, bp, pin_v, pin_c)
            d = _reference_color_connected(d_graph, bp, a, None, None)
        else:
            k = _reference_procedure_distance_parity(k_graph, bp, None, None)
            d = _reference_color_connected(d_graph, bp, a, pin_v, pin_c)
        return _reference_merge_disjoint(k, d)
    # near side alpha: colour C by chain alternation, recurse on the far
    # component together with both paths
    l_graph = g.subgraph(c_side)
    dpq_vertices = set(d_side) | set(p.vertices) | set(q.vertices)
    dpq_edges = [e for e in g.subgraph(d_side).edges()] + path_edges
    dpq_graph = Graph.from_edges(dpq_edges, dpq_vertices)
    if pin_v in set(dpq_graph.adj) & bp.beta:
        c1 = _reference_color_connected(dpq_graph, bp, a, pin_v, pin_c)
        l = _reference_procedure_chain_alternate(l_graph, g, bp, a, None, None)
    else:
        c2 = _reference_color_connected(dpq_graph, bp, a, y1, 3 - a[x1])
        l = _reference_procedure_chain_alternate(l_graph, g, bp, a, pin_v, pin_c)
        c1 = c2
    return _reference_merge_disjoint(l, c1)


def _reference_merge_disjoint(u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
    overlap = set(u) & set(v)
    if any(u[w] != v[w] for w in overlap):
        raise CaseUnmatched(f"colouring merge conflict on {sorted(overlap)}")
    out = dict(u)
    out.update(v)
    return out


def _reference_color_beta_4cycle(g, bp, a, v, y, v_colour):
    """Reference for `color_beta_4cycle` without its input checks."""
    common = sorted(g.adj[v] & g.adj[y])
    x, z = common[0], common[1]
    comps, cuts = g.blocks()
    comps = [frozenset(c) for c in comps]
    root = next(i for i, c in enumerate(comps) if {v, x, y, z} <= c)
    block = g.subgraph(comps[root])
    b0 = _reference_orient_opposite_pair(block, bp, a, v, y, x, z, v_colour)
    b: dict[int, int] = dict(b0)
    for comp in sorted(g.components(), key=min):
        if v in comp:
            local = [c for c in comps if c <= comp]
            b.update(
                _reference_glue_blocks(g.subgraph(comp), bp, a, local,
                             local.index(comps[root]), None, None, b0)
            )
        else:
            b.update(_reference_color_connected(g.subgraph(comp), bp, a, None, None))
    return b


def _reference_orient_opposite_pair(
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

    b1 = _reference_color_block(block, bp, a, v, v_colour)
    if b1[y] == y_colour and ok(b1):
        return b1
    if block.degree(y) == 2:
        b1 = dict(b1)
        b1[y] = y_colour
        if ok(b1):
            return b1
    b2 = _reference_color_block(block, bp, a, y, y_colour)
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
