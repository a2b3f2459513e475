"""Cycle-length-mod-4 structure: membership, cut paths, cut pairs, and
the lemma checkers of `lemmas.py`."""

import hashlib
import itertools
import random
from collections import Counter

import pytest

from dualham.colorizer import color_beta, combine, verify_coloring
from dualham.errors import (
    CaseUnmatched,
    CycleCapExceeded,
    DualhamError,
    NoCutPath,
    NotBipartite,
)
from dualham.structure import (
    CutPair,
    PathRec,
    TypedBipartition,
    _bad_fundamental_cycle,
    bipartition_typed,
    cut_path_candidates,
    cuts_graph,
    is_multi4,
    minimal_determined_side,
    multi4_witness,
    satisfies_cut_path_condition,
)
from dualham.ugraph import Graph
from lemmas import (
    cpath_type_check,
    heavy_4cycle_check,
    is_biconnected,
    opposite_corners_check,
    opposite_pairs,
)
from oracles import naive_all_cycles


def cycle(k: int) -> Graph:
    return Graph.from_edges([(i, (i + 1) % k) for i in range(k)])


def k34() -> Graph:
    return Graph.from_edges([(i, j) for i in range(3) for j in range(3, 7)])


class TestMembership:
    def test_cycles(self):
        assert is_multi4(cycle(4))
        assert is_multi4(cycle(8))
        assert not is_multi4(cycle(6))
        assert not is_multi4(cycle(5))

    def test_trees_and_forests(self):
        assert is_multi4(Graph.from_edges([(0, 1), (1, 2), (2, 3)]))
        assert is_multi4(Graph.from_edges([], vertices=[0, 1, 2]))

    def test_k34_not_in_family(self):
        # bipartite, yet 4-cycles and 6-cycles coexist
        assert not is_multi4(k34())

    def test_two_squares_instance(self, two_squares):
        assert is_multi4(two_squares)

    def test_agrees_with_naive_enumeration(self, two_squares):
        for g in (cycle(4), cycle(6), cycle(8), k34(), two_squares):
            naive = all(len(c) % 4 == 0 for c in naive_all_cycles(g))
            assert is_multi4(g) == naive


def _cactus(seed: int, thetas: bool = True) -> Graph:
    """Blocks on at most 12 vertices in all, joined at cut vertices and by
    bridges: 4-, 6- and 8-cycles, and with `thetas` also theta blocks
    (three paths between two vertices: of lengths 2-2-2, a member, or
    1-3-3, 2-2-4 and 3-3-3, which are not).  The labels are shuffled, so
    the depth-first filter meets the blocks in varied orders."""
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    n = 1

    def path(x: int, y: int, length: int) -> None:
        nonlocal n
        inner = list(range(n, n + length - 1))
        n += length - 1
        vs = [x, *inner, y]
        edges.extend(zip(vs, vs[1:]))

    for _ in range(8):
        if thetas and rng.random() < 0.4:
            lengths = rng.choice(((2, 2, 2), (2, 2, 2), (1, 3, 3), (1, 3, 3), (2, 2, 4), (3, 3, 3)))
            new = sum(lengths) - 2
        else:
            lengths = (rng.choice((4, 4, 6, 8, 8)),)
            new = lengths[0] - 1
        bridge = rng.random() < 0.3
        if n + new + bridge > 12:
            continue
        at = rng.randrange(n)
        if bridge:
            edges.append((at, n))
            at, n = n, n + 1
        if len(lengths) == 1:
            path(at, at, lengths[0])
        else:
            y, n = n, n + 1
            for length in lengths:
                path(at, y, length)
    label = list(range(n))
    rng.shuffle(label)
    return Graph.from_edges([(label[u], label[v]) for u, v in edges], label)


CACTI = [_cactus(seed) for seed in range(60)]

# sha256 of `multi4_witness` on CACTI, one line per graph, taken before
# single-cycle blocks were skipped; every witness stays the same
CACTUS_WITNESSES_SHA256 = "f6266e25a73fe18a28d6429713a5bd59d4b5d99bce9c09163f8d1a07d8c8f365"


class TestSingleCycleBlocks:
    def test_witness_agrees_with_naive_enumeration(self):
        kinds = Counter()
        for g in CACTI:
            bad = [c for c in naive_all_cycles(g) if len(c) % 4]
            cyc = multi4_witness(g)
            assert (cyc is None) == (not bad), g.edges()
            if cyc is not None:
                # one of the oracle's bad cycles, up to rotation and direction
                assert len(set(cyc)) == len(cyc) >= 3 and len(cyc) % 4, g.edges()
                assert all(g.has_edge(cyc[i - 1], cyc[i]) for i in range(len(cyc)))
                assert frozenset(cyc) in {frozenset(c) for c in bad}, g.edges()
            theta = any(g.subgraph(c).m > len(c) for c in g.blocks()[0] if len(c) >= 3)
            kinds[cyc is None, theta, _bad_fundamental_cycle(g) is None] += 1
        # members with and without theta blocks, and non-members caught by
        # the filter and (on a theta block) only by enumeration
        assert kinds[True, False, True] and kinds[True, True, True], kinds
        assert kinds[False, False, False] and kinds[False, True, True], kinds

    def test_witnesses_pinned(self):
        digest = hashlib.sha256()
        for g in CACTI:
            digest.update(f"{g.edges()}: {multi4_witness(g)}\n".encode())
        assert digest.hexdigest() == CACTUS_WITNESSES_SHA256

    def test_cacti_pass_under_any_cap(self):
        cacti = [_cactus(seed, thetas=False) for seed in range(60)]
        members = [g for g in cacti if is_multi4(g)]
        assert 0 < len(members) < len(cacti)
        for g in cacti:
            assert multi4_witness(g, cap=0) == multi4_witness(g), g.edges()
        assert all(is_multi4(g, cap=0) for g in members)

    def test_theta_over_its_cap_raises(self):
        # K(2,3): three 4-cycles in one block
        k23 = Graph.from_edges([(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        assert is_multi4(k23, cap=3)
        for cap in (0, 2):
            with pytest.raises(CycleCapExceeded):
                is_multi4(k23, cap=cap)

    def test_theta_of_two_squares_rejected_with_its_6_cycle(self):
        # two 4-cycles sharing the edge 0-1: the filter sees only those two,
        # and enumeration finds the 6-cycle round both
        g = Graph.from_edges([(0, 1), (0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1)])
        assert _bad_fundamental_cycle(g) is None
        cyc = multi4_witness(g)
        assert cyc is not None and sorted(cyc) == [0, 1, 2, 3, 4, 5]


def _reference_fundamental_cycles_ok(g: Graph) -> bool:
    """Reference for `_bad_fundamental_cycle(g) is None`: a search tree
    with its edge set, then the lowest-common-ancestor walk for each
    sorted edge."""
    depth: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    tree_edges = set()
    for comp in g.components():
        root = min(comp)
        depth[root] = 0
        parent[root] = None
        stack = [root]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if w not in depth:
                    depth[w] = depth[u] + 1
                    parent[w] = u
                    tree_edges.add(frozenset((u, w)))
                    stack.append(w)
    for u, v in g.edges():
        if frozenset((u, v)) in tree_edges:
            continue
        a, b, la, lb = u, v, depth[u], depth[v]
        length = 1
        while la > lb:
            a, la = parent[a], la - 1
            length += 1
        while lb > la:
            b, lb = parent[b], lb - 1
            length += 1
        while a != b:
            a, b = parent[a], parent[b]
            length += 2
        if length % 4 != 0:
            return False
    return True


def test_fundamental_cycle_filter_against_reference(atlas, hgraphs):
    """Both filters are necessary conditions over different spanning
    forests: both pass every member and fail every graph with an odd
    cycle, and a graph the DFS filter fails is outside the family."""
    counts = Counter()
    population = [(g, all(len(c) % 4 == 0 for c in naive_all_cycles(g))) for g in atlas]
    population += [(g, True) for g in hgraphs]
    for g, member in population:
        try:
            bipartition_typed(g)
            bipartite = True
        except NotBipartite:
            bipartite = False
        cyc = _bad_fundamental_cycle(g)
        if cyc is not None:
            # a cycle of g whose length is not 0 mod 4
            assert len(set(cyc)) == len(cyc) >= 3 and len(cyc) % 4, g.edges()
            assert all(g.has_edge(cyc[i - 1], cyc[i]) for i in range(len(cyc))), g.edges()
        got = cyc is None
        if member or not bipartite:
            assert got == _reference_fundamental_cycles_ok(g) == member, g.edges()
        else:
            counts[got] += 1
    # bipartite non-members: the filter rejects some, enumeration the rest
    assert counts[False] > 0 and counts[True] > 0


def _reference_bipartition_typed(g: Graph) -> TypedBipartition:
    """The component pass `bipartition_typed` replaced: the components,
    by least vertex, each searched from that vertex."""
    side: dict[int, int] = {}
    for comp in sorted(g.components(), key=min):
        root = min(comp)
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


def _typed_or_error(bipartition, g):
    try:
        return bipartition(g)
    except NotBipartite as exc:
        return str(exc)


class TestBipartition:
    @pytest.mark.parametrize("graphs", ["one_pass_graphs", "atlas"])
    def test_matches_component_pass(self, graphs, request):
        kinds = Counter()
        for g in request.getfixturevalue(graphs):
            got = _typed_or_error(bipartition_typed, g)
            assert got == _typed_or_error(_reference_bipartition_typed, g), g.edges()
            kinds[type(got).__name__] += 1
        # bipartite graphs and odd cycles both occur
        assert kinds["TypedBipartition"] and kinds["str"], kinds

    def test_odd_cycle_rejected(self):
        with pytest.raises(NotBipartite):
            bipartition_typed(cycle(5))

    def test_types_alternate(self):
        bp = bipartition_typed(cycle(8))
        assert bp.alpha == frozenset({0, 2, 4, 6})
        assert not bp.same_type(0, 1)
        assert bp.same_type(1, 3)


class TestCutPaths:
    def test_condition(self, two_squares):
        bp = bipartition_typed(two_squares)
        assert satisfies_cut_path_condition(two_squares, bp, PathRec((0, 4)))
        # interior vertex 8 has degree 2, anchors 2 and 6 branch
        assert satisfies_cut_path_condition(two_squares, bp, PathRec((2, 8, 9, 6)))
        # same-type ends fail
        assert not satisfies_cut_path_condition(two_squares, bp, PathRec((0, 1, 2)))

    def test_candidates(self, two_squares):
        bp = bipartition_typed(two_squares)
        got = {p.vertices for p in cut_path_candidates(two_squares, bp)}
        assert (0, 4) in got
        assert (2, 8, 9, 6) in got
        # every candidate passes the condition it was selected by
        for p in cut_path_candidates(two_squares, bp):
            assert satisfies_cut_path_condition(two_squares, bp, p)

    def test_cpath_ends_same_type(self, two_squares):
        bp = bipartition_typed(two_squares)
        c = two_squares.subgraph({0, 1, 2, 3})
        assert cpath_type_check(two_squares, bp, c, PathRec((2, 8, 9, 6, 5, 4, 0)))


class TestCutPairs:
    def test_cuts_graph_two_squares(self, two_squares):
        bp = bipartition_typed(two_squares)
        p, q = PathRec((0, 4)), PathRec((2, 8, 9, 6))
        sides = cuts_graph(two_squares, bp, p, q)
        assert sides is not None
        c, d = sides
        assert c == frozenset({0, 1, 2, 3})
        assert d == frozenset({4, 5, 6, 7})

    def test_minimal_side_is_monotypic(self, two_squares):
        bp = bipartition_typed(two_squares)
        pair = minimal_determined_side(two_squares, bp)
        deg3 = {v for v in pair.side_c if two_squares.degree(v) >= 3}
        assert len({bp.is_beta(v) for v in deg3}) <= 1
        # returned pair really cuts the graph into (side, rest)
        assert cuts_graph(two_squares, bp, pair.p, pair.q) is not None

    def test_no_cut_path_on_plain_cycle(self):
        bp = bipartition_typed(cycle(8))
        with pytest.raises(NoCutPath):
            minimal_determined_side(cycle(8), bp)


class TestHeavy4Cycle:
    def test_holds_on_two_squares(self, two_squares):
        assert heavy_4cycle_check(two_squares, bipartition_typed(two_squares))

    def test_fails_on_k34(self):
        assert not heavy_4cycle_check(k34(), bipartition_typed(k34()))


class TestOppositeCorners:
    def test_holds_on_two_squares(self, two_squares):
        assert opposite_corners_check(two_squares)

    def test_fails_off_the_family(self):
        # an ear of length 3 on the 4-cycle 0-1-2-3 closes a 6-cycle; 0
        # branches, its opposite corner 2 does not
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 1)])
        assert not is_multi4(g) and is_biconnected(g)
        assert not opposite_corners_check(g)


# --- every 2-connected member up to 14 vertices --------------------------


def test_ear_grown_member_counts(ear_grown):
    counts = Counter(g.n for g in ear_grown)
    assert [counts[n] for n in range(4, 15)] == [1, 1, 1, 1, 2, 2, 5, 8, 16, 26, 54]
    assert all(is_multi4(g) and is_biconnected(g) for g in ear_grown)


def test_cut_pair_route_on_ear_grown_members(ear_grown):
    """On each typing with branching vertices of both types: the minimal
    determined side is monotypic and recomputed by `cuts_graph`, every pin
    colours soundly under the alternating alpha colouring, and the
    4-cycle lemma holds."""
    mixed = 0
    for g in ear_grown:
        typed = bipartition_typed(g)
        for bp in (typed, TypedBipartition(alpha=typed.beta, beta=typed.alpha)):
            if len({bp.is_beta(v) for v in g.adj if g.degree(v) >= 3}) < 2:
                continue
            mixed += 1
            pair = minimal_determined_side(g, bp)
            side = pair.side_c
            assert len({bp.is_beta(v) for v in side if g.degree(v) >= 3}) == 1, g.edges()
            assert cuts_graph(g, bp, pair.p, pair.q) == (side, pair.side_d), g.edges()
            a = {u: 1 + i % 2 for i, u in enumerate(sorted(bp.alpha))}
            for pin in sorted(bp.beta):
                for colour in (1, 2):
                    b = color_beta(g, bp, a, pin, colour).colour_of
                    rep = verify_coloring(g, bp, combine(a, b), pin, colour)
                    assert rep.passed, (g.edges(), sorted(bp.alpha), pin, colour)
            assert heavy_4cycle_check(g, bp), g.edges()
    assert mixed == 76


def _reference_minimal_determined_side(g, bp):
    """Reference for `minimal_determined_side`: every side filtered for
    inclusion-minimality against every other side, then sorted."""
    candidates = cut_path_candidates(g, bp)
    if not candidates:
        raise NoCutPath("no path satisfies the cut-path condition")
    sides = []
    for p, q in itertools.combinations(candidates, 2):
        got = cuts_graph(g, bp, p, q)
        if got is None:
            continue
        c, d = got
        sides.append((c, d, p, q))
        sides.append((d, c, p, q))
    if not sides:
        raise NoCutPath("no pair of cut paths splits the graph")
    minimal = [s for s in sides if not any(t[0] < s[0] for t in sides)]
    minimal.sort(key=lambda s: (len(s[0]), sorted(s[0]), s[2].vertices, s[3].vertices))
    side, other, p, q = minimal[0]
    if p.x not in side:
        p = p.reversed()
    if q.x not in side:
        q = q.reversed()
    if len({bp.is_beta(v) for v in side if g.degree(v) >= 3}) > 1:
        raise CaseUnmatched("minimal determined side has branching vertices of both types")
    return CutPair(p, q, side, other)


def _both_typings(g):
    typed = bipartition_typed(g)
    return typed, TypedBipartition(alpha=typed.beta, beta=typed.alpha)


def _minimal_side_outcomes(g, bp):
    """(routine, reference): each its cut pair or the type of its error."""
    out = []
    for f in (minimal_determined_side, _reference_minimal_determined_side):
        try:
            out.append(f(g, bp))
        except DualhamError as exc:
            out.append(type(exc))
    return out


def test_minimal_side_matches_reference(ear_grown, hgraphs, glued_graphs):
    """The least side is the minimal one: on the 76 mixed typings of the
    ear-grown members, and on every 2-connected block of `hgraphs` and
    `glued_graphs` in both typings."""
    mixed = 0
    for g in ear_grown:
        for bp in _both_typings(g):
            if len({bp.is_beta(v) for v in g.adj if g.degree(v) >= 3}) == 2:
                got, want = _minimal_side_outcomes(g, bp)
                assert got == want, (g.edges(), sorted(bp.alpha))
                mixed += 1
    assert mixed == 76
    outcomes = Counter()
    for g in hgraphs + glued_graphs:
        for comp in g.blocks()[0]:
            if len(comp) < 3:
                continue
            block = g.subgraph(comp)
            for bp in _both_typings(block):
                got, want = _minimal_side_outcomes(block, bp)
                assert got == want, (block.edges(), sorted(bp.alpha))
                outcomes[got if isinstance(got, type) else CutPair] += 1
    # both outcomes occur, so the comparison is not vacuous
    assert outcomes == {CutPair: 1032, NoCutPath: 1158}


def test_opposite_corners_on_ear_grown_members(ear_grown):
    assert all(opposite_corners_check(g) for g in ear_grown)
    # not vacuous: the 117 members have this many opposite pairs between them
    assert sum(len(opposite_pairs(g)) for g in ear_grown) == 1162
