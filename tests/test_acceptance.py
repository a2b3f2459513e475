"""Acceptance gate: ten release criteria, one pass/fail line each.

Every expected value here is either frozen from an independent oracle run
in this suite (enumeration, brute force) or asserted directly from the
definitions; nothing is taken on faith from the constructions under test.
Run with `pytest -v -s` to see the per-criterion lines.
"""

import itertools
import random

import pytest

from dualham import colorizer, duality, structure, treesplit
from dualham.embed import classify_big_small, dual, tri_partition
from dualham.errors import NoCutPath, SearchExhausted
from dualham.gen import (
    big_vertex_graph,
    gen_even_triangulations,
    meets_h_hypothesis,
)
from dualham.structure import TypedBipartition, bipartition_typed, is_multi4
from dualham.ugraph import Graph, norm_edge
from lemmas import heavy_4cycle_check, is_biconnected
from oracles import enumerate_hamilton, naive_all_cycles


def _line(i: int, ok: bool, desc: str) -> None:
    print(f"criterion {i:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {i} failed: {desc}"


@pytest.fixture(scope="module")
def corpus(catalog12):
    """Every even plane triangulation with 6 <= n <= 12 (12 from the
    frozen catalog; smaller sizes generated live)."""
    out = []
    for n in range(6, 12):
        out.extend(gen_even_triangulations(n))
    return out + catalog12


@pytest.fixture(scope="module")
def exhausted_log():
    """Solver-exhaustion recorder shared by the constructive sweeps."""
    return []


def _alpha_colourings(bp, rng):
    vs = sorted(bp.alpha)
    if len(vs) <= 6:
        for bits in itertools.product((1, 2), repeat=len(vs)):
            yield dict(zip(vs, bits))
    else:
        for _ in range(50):
            yield {v: rng.choice((1, 2)) for v in vs}


def test_criterion_1_tree_partition_hamilton_duality():
    checked = 0
    for n in range(4, 11):
        for g in gen_even_triangulations(n):
            d = dual(g)
            ab = g.abstract()
            for bits in itertools.product((0, 1), repeat=g.n - 1):
                s = frozenset({0} | {v + 1 for v, b in enumerate(bits) if b})
                t = frozenset(range(g.n)) - s
                if not t:
                    continue
                p = treesplit.TreePartition(s, t)
                trees = treesplit.verify_tree_partition(ab, p)
                try:
                    h = duality.tree_partition_to_hamilton(g, p, d)
                    is_ham = duality.verify_hamilton(d.graph.abstract(), h)
                except duality.NotTreePartition:
                    # forward needs trees; decide via the raw cut instead
                    is_ham = _cut_is_hamilton(g, d, p)
                except duality.NotHamilton:
                    is_ham = False
                assert trees == is_ham, (n, sorted(s))
                if trees:
                    assert duality.hamilton_to_tree_partition(g, h, d) == p
                checked += 1
    _line(1, checked > 0, f"tree partition <=> dual Hamilton cycle on every "
          f"bipartition, n <= 10 ({checked} bipartitions)")


def _cut_is_hamilton(g, d, p):
    cut = [e for e in g.edges() if (e[0] in p.s) != (e[1] in p.s)]
    deg = {v: 0 for v in range(d.graph.n)}
    for e in cut:
        a, b = d.edge_map[e]
        deg[a] += 1
        deg[b] += 1
    if any(k != 2 for k in deg.values()):
        return False
    cg = Graph.from_edges([d.edge_map[e] for e in cut])
    return cg.n == d.graph.n and cg.is_connected()


def test_criterion_2_coloring_soundness(hgraphs):
    rng = random.Random(2)
    calls = 0
    for g in hgraphs:
        bp = bipartition_typed(g)
        # one prepare per graph, family check included, then one solve per
        # (a, pin, colour)
        plan = colorizer.prepare(g, bp)
        for a in _alpha_colourings(bp, rng):
            for pin in sorted(bp.beta):
                for colour in (1, 2):
                    b = plan.solve(a, pin, colour)
                    rep = colorizer.verify_coloring(
                        g, bp, colorizer.combine(a, b.colour_of), pin, colour
                    )
                    assert rep.passed, (g.edges(), a, pin, colour)
                    calls += 1
    _line(2, calls > 0, f"cycle-free colouring sound on {len(hgraphs)} graphs, "
          f"{calls} pin/colour combinations, 100% verified")


def test_criterion_3_k34_negative_control():
    g = Graph.from_edges([(i, j) for i in range(3) for j in range(3, 7)])
    bp = TypedBipartition(alpha=frozenset({3, 4, 5, 6}), beta=frozenset({0, 1, 2}))
    a = {3: 1, 4: 1, 5: 2, 6: 2}
    bad = 0
    for bits in itertools.product((1, 2), repeat=3):
        combined = colorizer.combine(a, dict(zip((0, 1, 2), bits)))
        if not colorizer.verify_coloring(g, bp, combined).cycle_free:
            bad += 1
    ok = bad == 8 and not is_multi4(g)
    _line(3, ok, "K(3,4): all 8 colourings monochromatic-cyclic, not in family")


def test_criterion_4_four_cycle_orientations(hgraphs):
    pairs = 0
    for g in hgraphs:
        bp = bipartition_typed(g)
        a = {u: 1 + (i % 2) for i, u in enumerate(sorted(bp.alpha))}
        for v in sorted(bp.beta):
            for y in sorted(bp.beta):
                if y <= v or len(g.adj[v] & g.adj[y]) < 2:
                    continue
                for colour in (1, 2):
                    b = colorizer.color_beta_4cycle(g, bp, a, v, y, colour)
                    assert b.colour_of[v] == colour
                    assert b.colour_of[y] == 3 - colour
                    rep = colorizer.verify_coloring(
                        g, bp, colorizer.combine(a, b.colour_of)
                    )
                    assert rep.cycle_free and rep.alternation_ok
                pairs += 1
    _line(4, pairs > 0, f"both 4-cycle orientations verified on {pairs} "
          "opposite-corner pairs across the generated graphs")


def _two_connected_blocks(graphs):
    seen = set()
    for g in graphs:
        comps, _ = g.blocks()
        for comp in comps:
            if len(comp) < 4:
                continue
            block = g.subgraph(comp)
            key = tuple(block.edges())
            if key in seen or not is_biconnected(block):
                continue
            seen.add(key)
            yield block


def test_criterion_5_determined_side(hgraphs, glued_graphs):
    found = skipped = 0
    for block in _two_connected_blocks(hgraphs + glued_graphs):
        bp = bipartition_typed(block)
        try:
            pair = structure.minimal_determined_side(block, bp)
        except NoCutPath:
            skipped += 1
            continue
        side = pair.side_c
        deg3 = {v for v in side if block.degree(v) >= 3}
        assert len({bp.is_beta(v) for v in deg3}) <= 1, block.edges()
        # independent recomputation: the returned pair really cuts the
        # graph and one component is the returned side
        sides = structure.cuts_graph(block, bp, pair.p, pair.q)
        assert sides is not None and side in sides, block.edges()
        found += 1
    _line(5, found > 0, f"minimal determined side monotypic + cut pair "
          f"recomputed on {found} blocks ({skipped} without a cut path)")


def test_criterion_6_heavy_4cycle_fuzz(hgraphs, glued_graphs):
    blocks = 0
    for block in _two_connected_blocks(hgraphs + glued_graphs):
        bp = bipartition_typed(block)
        assert heavy_4cycle_check(block, bp), block.edges()
        blocks += 1
    _line(6, blocks > 0, f"4-cycle weight invariant holds on {blocks} "
          "2-connected blocks (release blocker on any failure)")


def test_criterion_7_avoid_edge(corpus, exhausted_log):
    edges = 0
    for g in corpus:
        h, bs = big_vertex_graph(g)
        if not is_multi4(h):
            continue
        tp = tri_partition(g)
        d = dual(g)
        oracle = [c.edges for c in enumerate_hamilton(d.graph.abstract())]
        for v in sorted(bs.b_of(3)):
            for w in sorted(g.abstract().adj[v]):
                e_star = d.edge_map[norm_edge(v, w)]
                try:
                    cyc = duality.hamilton_avoiding_edge(g, e_star, d)
                except SearchExhausted as exc:
                    exhausted_log.append((g.to_json(), str(exc)))
                    continue
                assert duality.verify_hamilton(d.graph.abstract(), cyc)
                assert e_star not in cyc.edges
                # the exhaustive oracle agrees an avoiding cycle exists
                assert any(e_star not in c for c in oracle)
                edges += 1
    _line(7, edges > 0 and not exhausted_log,
          f"edge-avoiding dual Hamilton cycle on all {edges} eligible edges, "
          "cross-checked against exhaustive enumeration")


def test_criterion_8_face_sparse(corpus, exhausted_log):
    instances = 0
    for g in corpus:
        h, _ = big_vertex_graph(g)
        if not meets_h_hypothesis(h):
            continue
        try:
            cyc, rep = duality.hamilton_face_sparse(g)
        except SearchExhausted as exc:
            exhausted_log.append((g.to_json(), str(exc)))
            continue
        assert duality.verify_hamilton(dual(g).graph.abstract(), cyc)
        assert rep.ok, [f for f in rep.faces if f.pattern == "violation"]
        instances += 1
    _line(8, instances > 0 and not exhausted_log,
          f"face-sparse dual Hamilton cycle with no avoidance violation on "
          f"all {instances} hypothesis-meeting instances")


def test_criterion_9_solver_never_exhausts(corpus, exhausted_log):
    # the two constructive sweeps above route every certified constraint
    # set through the backtracking solver; any exhaustion was recorded
    # there with the offending instance.  Also drive the solver directly
    # on every corpus instance with the minimal certified seeds.
    for g in corpus:
        bs = classify_big_small(g, tri_partition(g))
        if bs.b_of(3):
            continue  # covered by the pipelines above
        try:
            treesplit.tree_partition_solve(
                treesplit.analyse(g),
                treesplit.PartitionConstraint(frozenset(bs.b_of(1)), frozenset(bs.b_of(2))),
            )
        except SearchExhausted as exc:
            exhausted_log.append((g.to_json(), str(exc)))
    for dumped, msg in exhausted_log:
        print(f"potential counterexample: {msg}\n{dumped}")
    _line(9, not exhausted_log,
          "solver never exhausted on a certified constraint set "
          f"({len(exhausted_log)} potential counterexamples dumped)")


def _count_hamilton_by_permutation(g: Graph) -> int:
    """Independent oracle: filter all permutations fixing the start vertex,
    dividing out the two directions."""
    vs = g.vertices
    count = 0
    for perm in itertools.permutations(vs[1:]):
        order = (vs[0],) + perm
        if all(g.has_edge(order[i], order[(i + 1) % len(order)])
               for i in range(len(order))):
            count += 1
    return count // 2


def test_criterion_10_atlas_oracle_agreement(atlas):
    # family membership vs naive cycle enumeration on every graph with at
    # most 7 vertices, up to isomorphism
    members = 0
    for g in atlas:
        naive = all(len(c) % 4 == 0 for c in naive_all_cycles(g))
        assert is_multi4(g) == naive, g.edges()
        members += naive
    # 128 with a vertex, and the empty graph
    _line(10, members == 129, f"membership oracle agreement on all {len(atlas)} atlas "
          f"graphs, {members} of them in the family (expect 129)")


def test_criterion_10_oracle_agreement(hgraphs):
    # family membership vs naive cycle enumeration: exhaustive over every
    # labelled graph on <= 5 vertices, plus the generated corpus (n <= 12
    # after truncation) and one-edge perturbations of it
    rng = random.Random(10)
    population = []
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            population.append(Graph.from_edges(
                [e for e, b in zip(pairs, bits) if b], range(n)))
    for g in hgraphs:
        if g.n > 12:
            continue
        population.append(g)
        u, v = rng.sample(g.vertices, 2)
        if not g.has_edge(u, v):
            population.append(g.union(Graph.from_edges([(u, v)])))
    for g in population:
        naive = all(len(c) % 4 == 0 for c in naive_all_cycles(g))
        assert is_multi4(g) == naive, g.edges()

    # enumeration vs permutation filtering on the two reference solids
    from dualham.gen import TETRAHEDRON, gen_bipyramid
    from dualham.embed import EmbeddedGraph

    cube = dual(gen_bipyramid(2)).graph.abstract()
    k4 = dual(EmbeddedGraph.build(TETRAHEDRON)).graph.abstract()
    counts = (
        len(enumerate_hamilton(cube)),
        _count_hamilton_by_permutation(cube),
        len(enumerate_hamilton(k4)),
        _count_hamilton_by_permutation(k4),
    )
    ok = counts == (6, 6, 3, 3)
    _line(10, ok, f"membership oracle agreement on {len(population)} graphs; "
          f"Hamilton counts cube/K4 = {counts} (expect 6,6,3,3)")
