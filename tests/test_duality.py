"""Tree partitions versus dual Hamilton cycles, and the oracles of
`oracles.py` that check them."""

import itertools

import pytest

from dualham.duality import (
    HamiltonCycle,
    face_avoidance_report,
    hamilton_avoiding_edge,
    hamilton_face_sparse,
    hamilton_to_tree_partition,
    primal_edge_of,
    tree_partition_to_hamilton,
    verify_hamilton,
)
from dualham.embed import EmbeddedGraph, classify_big_small, dual, tri_partition
from dualham.errors import BadEdge, NotHamilton, NotTreePartition
from dualham.gen import big_vertex_graph, gen_triangulations, meets_h_hypothesis
from dualham.treesplit import TreePartition, analyse, verify_tree_partition
from dualham.ugraph import Graph, norm_edge
from oracles import (
    CapExceeded,
    check_h_minus_minus,
    check_h_plus_minus,
    enumerate_hamilton,
)


@pytest.fixture(scope="module")
def cube():
    """The cube graph, as the dual of the octahedron."""
    from dualham.gen import gen_bipyramid

    return dual(gen_bipyramid(2)).graph.abstract()


class TestCanonicalForm:
    def test_rotation_and_reflection_invariant(self):
        base = HamiltonCycle.of((0, 1, 2, 3))
        for order in [(1, 2, 3, 0), (3, 2, 1, 0), (2, 1, 0, 3)]:
            assert HamiltonCycle.of(order) == base
        assert base.vertices[0] == 0 and base.vertices[1] == 1

    def test_rejects_repeats_and_short_orders(self):
        with pytest.raises(NotHamilton):
            HamiltonCycle.of((0, 1, 0, 2))
        with pytest.raises(NotHamilton):
            HamiltonCycle.of((0, 1))

    def test_edges(self):
        h = HamiltonCycle.of((0, 1, 2, 3))
        assert h.edges == {(0, 1), (1, 2), (2, 3), (0, 3)}


class TestEnumeration:
    def test_frozen_counts(self, cube):
        # counts frozen from independent hand checks: the cube has six
        # Hamilton cycles, K4 three, and a tree none
        assert len(enumerate_hamilton(cube)) == 6
        k4 = Graph.from_edges([(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert len(enumerate_hamilton(k4)) == 3
        path = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert enumerate_hamilton(path) == []

    def test_all_results_verify(self, cube):
        for h in enumerate_hamilton(cube):
            assert verify_hamilton(cube, h)

    def test_cap(self, cube):
        with pytest.raises(CapExceeded):
            enumerate_hamilton(cube, cap=5)


class TestCorrespondence:
    def test_iff_exhaustive_octahedron(self, octahedron):
        # every vertex bipartition: two induced trees exactly when the dual
        # cut is a Hamilton cycle of the dual
        d = dual(octahedron)
        ab = octahedron.abstract()
        for bits in itertools.product((0, 1), repeat=octahedron.n - 1):
            s = frozenset({0} | {v + 1 for v, b in enumerate(bits) if b})
            t = frozenset(range(octahedron.n)) - s
            if not t:
                continue
            p = TreePartition(s, t)
            try:
                h = tree_partition_to_hamilton(octahedron, p, d)
                got = True
            except NotTreePartition:
                got = False
            assert got == verify_tree_partition(ab, p)
            if got:
                assert hamilton_to_tree_partition(octahedron, h, d) == p

    def test_backward_for_every_cycle(self):
        # every dual Hamilton cycle of every triangulation with n <= 10:
        # both sides are trees, and the round trip gives the cycle back
        checked = 0
        for n in range(4, 11):
            for g in gen_triangulations(n):
                d = dual(g)
                ab = g.abstract()
                for h in enumerate_hamilton(d.graph.abstract()):
                    p = hamilton_to_tree_partition(g, h, d)
                    assert verify_tree_partition(ab, p), (g.rotation, h)
                    assert tree_partition_to_hamilton(g, p, d) == h
                    checked += 1
        assert checked == 1555

    def test_forward_on_every_bipartition_up_to_9(self):
        # every triangulation, even or not: the cut closes into a dual
        # Hamilton cycle exactly when both sides are trees (the bond-cycle
        # lemma), with verify_tree_partition as the oracle
        checked = trees = 0
        for n in range(4, 10):
            for g in gen_triangulations(n):
                d = dual(g)
                ab = g.abstract()
                dual_ab = d.graph.abstract()
                for bits in itertools.product((0, 1), repeat=n - 1):
                    s = frozenset({0} | {v + 1 for v, b in enumerate(bits) if b})
                    t = frozenset(range(n)) - s
                    if not t:
                        continue
                    p = TreePartition(s, t)
                    try:
                        h = tree_partition_to_hamilton(g, p, d)
                    except NotTreePartition:
                        assert not verify_tree_partition(ab, p), (g.rotation, sorted(s))
                    else:
                        assert verify_tree_partition(ab, p), (g.rotation, sorted(s))
                        assert verify_hamilton(dual_ab, h)
                        assert hamilton_to_tree_partition(g, h, d) == p
                        trees += 1
                    checked += 1
        assert checked == 14927 and 0 < trees < checked

    def test_rejects_bad_inputs(self, octahedron):
        d = dual(octahedron)
        n = octahedron.n
        every = frozenset(range(n))
        face = frozenset({0, *octahedron.rotation[0][:2]})
        good = hamilton_to_tree_partition(
            octahedron, enumerate_hamilton(d.graph.abstract())[0], d
        )
        bad = [
            TreePartition(frozenset({0}), every - {0}),      # a side with a cycle
            TreePartition(face, every - face),                # two triangles
            TreePartition(good.s | {min(good.t)}, good.t),    # overlapping sides
            TreePartition(good.s, good.t - {max(good.t)}),    # a missing vertex
            TreePartition(good.s | {n}, good.t),              # an out-of-range id
            TreePartition(frozenset(), every),                # an empty side
        ]
        for p in bad:
            # a typed error, never an IndexError or KeyError
            with pytest.raises(NotTreePartition):
                tree_partition_to_hamilton(octahedron, p, d)
        bogus = HamiltonCycle(tuple(range(d.graph.n)))
        with pytest.raises(NotHamilton):
            hamilton_to_tree_partition(octahedron, bogus, d)


class TestEdgeBijection:
    def test_primal_edge_of_inverts(self, octahedron):
        d = dual(octahedron)
        for e, e_star in d.edge_map.items():
            assert norm_edge(*primal_edge_of(d, e_star)) == norm_edge(*e)

    def test_unknown_edge(self, octahedron):
        d = dual(octahedron)
        with pytest.raises(ValueError):
            primal_edge_of(d, (0, 999))


class TestAvoidingEdge:
    def test_all_eligible_edges(self, bipyramid6, catalog12):
        for g in [bipyramid6] + catalog12[:3]:
            d = dual(g)
            tp = tri_partition(g)
            bs = classify_big_small(g, tp)
            cycles = enumerate_hamilton(d.graph.abstract())
            for e, e_star in sorted(d.edge_map.items()):
                if not any(x in bs.b_of(3) for x in e):
                    continue
                h = hamilton_avoiding_edge(g, e_star, d)
                # without d, the pipeline builds the same dual itself
                assert hamilton_avoiding_edge(g, e_star) == h
                assert verify_hamilton(d.graph.abstract(), h)
                assert e_star not in h.edges
                # the oracle agrees such a cycle exists
                assert any(e_star not in c.edges for c in cycles)

    def test_ineligible_edge_rejected(self, octahedron):
        d = dual(octahedron)
        e_star = next(iter(d.edge_map.values()))
        with pytest.raises(ValueError):
            hamilton_avoiding_edge(octahedron, e_star, d)

    def test_bad_edges_raise_a_typed_error(self, octahedron, bipyramid6):
        for g in (octahedron, bipyramid6):
            d = dual(g)
            with pytest.raises(BadEdge):
                primal_edge_of(d, (0, 999))
            with pytest.raises(BadEdge):
                hamilton_avoiding_edge(g, (0, 999), d)
        # a ring edge of the bipyramid touches no big class-3 vertex
        d = dual(bipyramid6)
        with pytest.raises(BadEdge):
            hamilton_avoiding_edge(bipyramid6, d.edge_map[(0, 1)], d)


class TestFaceSparse:
    def test_report_patterns(self, bipyramid6, catalog12):
        seen = set()
        for g in [bipyramid6] + catalog12:
            h, _ = big_vertex_graph(g)
            if not meets_h_hypothesis(h):
                continue
            cycle, rep = hamilton_face_sparse(g)
            assert verify_hamilton(dual(g).graph.abstract(), cycle)
            assert rep.ok
            for f in rep.faces:
                assert f.size >= 6 and f.size % 2 == 0
                seen.add(f.pattern)
        assert "violation" not in seen and seen

    def test_report_is_pure_classification(self, bipyramid6):
        d = dual(bipyramid6)
        for h in enumerate_hamilton(d.graph.abstract()):
            rep = face_avoidance_report(analyse(bipyramid6), h, d)
            for f in rep.faces:
                assert len(f.avoided) + len(h.edges & set(_boundary(bipyramid6, d, f))) \
                    == f.size


def _boundary(g, d, f):
    return [d.edge_map[norm_edge(f.primal_vertex, u)] for u in g.rotation[f.primal_vertex]]


class TestCubicProperties:
    def test_cube_satisfies_both(self, octahedron):
        gstar = dual(octahedron).graph
        assert check_h_plus_minus(gstar)
        assert check_h_minus_minus(gstar)

    def test_prism_fails_both(self):
        # the triangular prism has only three Hamilton cycles, each using
        # two of the three vertical edges, so some face pairs cannot be
        # separated or jointly avoided
        prism = EmbeddedGraph.build(
            [[1, 2, 3], [2, 0, 4], [0, 1, 5], [5, 4, 0], [3, 5, 1], [4, 3, 2]]
        )
        assert not check_h_plus_minus(prism)
        assert not check_h_minus_minus(prism)
