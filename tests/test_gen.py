"""Generators: bipyramids, exhaustive triangulations, family members."""

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualham.embed import (
    EmbeddedGraph,
    _min_starts,
    automorphisms,
    canonical_form,
    classify_big_small,
    is_even_triangulation,
    tri_partition,
)
from dualham import gen
from dualham.embed import dual
from dualham.errors import (
    NoneFound,
    NotEvenTriangulation,
    NotInFamilyH,
    NotTriangulation,
    ParseError,
    SizeOutOfRange,
    SizeTooSmall,
)
from dualham.gen import (
    gen_bipyramid,
    gen_even_triangulations,
    gen_multi4,
    gen_thm24_instances,
    gen_triangulations,
    big_vertex_graph,
    h_components_2connected,
    split_vertex,
    meets_h_hypothesis,
)
from dualham.structure import is_multi4
from dualham.treesplit import bipyramid_poles
from dualham.ugraph import Graph
from oracles import load_catalog


SPLITS_SHA256 = "75ae1fb5183d53fde87dacc7913cb9e6ce4ded291181e05421ab0fd5cc45c726"


class TestBipyramid:
    def test_octahedron(self, octahedron):
        assert (octahedron.n, octahedron.m) == (6, 12)
        assert len(octahedron.faces.faces) == 8
        assert is_even_triangulation(octahedron)

    def test_pole_degrees(self, bipyramid6):
        assert bipyramid6.n == 8
        assert bipyramid6.degree(6) == bipyramid6.degree(7) == 6
        assert all(bipyramid6.degree(v) == 4 for v in range(6))

    def test_too_small(self):
        with pytest.raises(SizeTooSmall):
            gen_bipyramid(1)

    def test_too_large_refused_before_building(self, monkeypatch):
        # the build is quadratic in l, so the bound is checked first
        def build(rot):
            raise AssertionError("built a bipyramid past MAX_BIPYRAMID_L")

        monkeypatch.setattr(gen.EmbeddedGraph, "build", build)
        with pytest.raises(SizeOutOfRange, match="l <= 2000, got 2001"):
            gen_bipyramid(gen.MAX_BIPYRAMID_L + 1)

    def test_output_check_raises(self, monkeypatch):
        # the check stands without `assert`, so it survives `python -O`
        monkeypatch.setattr(gen, "is_even_triangulation", lambda g: False)
        with pytest.raises(NotEvenTriangulation):
            gen_bipyramid(3)


def _split_candidates(g):
    """Every split the generator tries on g, in its order."""
    for v in range(g.n):
        for i in range(g.degree(v)):
            for j in range(i + 1, g.degree(v)):
                yield split_vertex(g, v, i, j)


def _reference_gen_triangulations(n):
    """Level-by-level generation that tries every split, validates every
    candidate and keeps the first of each canonical form."""
    level = [EmbeddedGraph.build(gen.TETRAHEDRON)]
    for _ in range(n - 4):
        seen = set()
        nxt = []
        for g in level:
            for h in _split_candidates(g):
                h = EmbeddedGraph.build(h.rotation)
                code = canonical_form(h)
                if code not in seen:
                    seen.add(code)
                    nxt.append(h)
        level = nxt
    return level


def _brute_force_reduction(h, v):
    """McKay's rule with a canonical form for every child: whether the new
    edge (v, h.n - 1) is accepted, that is, whether an automorphism of h
    carries it onto the least-labelled contractible edge of least degree
    sum; and which shortcut, if any, settles it without the labels."""
    _, orders = _min_starts(h.rotation)
    label = {x: i for i, x in enumerate(orders[0])}
    contractible = [(x, y) for x, y in h.edges()
                    if len(set(h.rotation[x]) & set(h.rotation[y])) == 2]
    least = min(h.degree(x) + h.degree(y) for x, y in contractible)
    tied = [(x, y) for x, y in contractible if h.degree(x) + h.degree(y) == least]
    reduction = min(tied, key=lambda e: sorted((label[e[0]], label[e[1]])))
    new_edge = {v, h.n - 1}
    accepted = any({s[x] for x in reduction} == new_edge for s in automorphisms(h))
    if h.degree(v) + h.degree(h.n - 1) > least:
        return accepted, "lower sum"
    return accepted, "alone" if len(tied) == 1 else "tied"


class TestExhaustiveTriangulations:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_same_as_validating_every_candidate(self, n):
        # the reference tries every split, so it also checks the orbit
        # pruning; the generator emits each class as its sorted code
        want = [EmbeddedGraph.build(c)
                for c in sorted(canonical_form(g) for g in _reference_gen_triangulations(n))]
        assert gen_triangulations(n) == want

    def test_acceptance_shortcuts_match_canonicalising_every_child(self):
        # every split of every triangulation on up to 9 vertices: the new
        # edge is contractible, and the rule with its two degree-sum
        # shortcuts accepts exactly the children that the rule without
        # them accepts
        outcomes = Counter()
        for n in range(4, 10):
            for g in gen_triangulations(n):
                for v, nb in enumerate(g.rotation):
                    for i in range(len(nb)):
                        for j in range(i + 1, len(nb)):
                            h = split_vertex(g, v, i, j)
                            assert len(set(h.rotation[v]) & set(h.rotation[n])) == 2
                            got = gen._canonical_reduction(h, v)
                            accepted, route = _brute_force_reduction(h, v)
                            assert (got is not None) == accepted
                            if accepted:
                                assert got == _min_starts(h.rotation)
                            outcomes[route, accepted] += 1
        # both shortcuts fire, and ties go both ways
        assert outcomes == {("lower sum", False): 4571, ("alone", True): 217,
                            ("tied", True): 545, ("tied", False): 254}

    def test_lower_sum_test_rejects_only_lower_sum_children(self):
        # every split of every triangulation on up to 9 vertices: a split
        # the parent-side test rejects is one that McKay's rule rejects
        # by its lower-sum shortcut
        rejected = 0
        for n in range(4, 10):
            for g in gen_triangulations(n):
                rejects = gen._lower_sum_test(g)
                for v, nb in enumerate(g.rotation):
                    for i in range(len(nb)):
                        for j in range(i + 1, len(nb)):
                            if rejects(v, nb[i], nb[j]):
                                h = split_vertex(g, v, i, j)
                                assert _brute_force_reduction(h, v) == (False, "lower sum")
                                rejected += 1
        # of the 4,571 lower-sum rejections among the 5,587 splits
        assert rejected == 4466

    def test_odd_count_after_split(self):
        # every split of every triangulation on up to 10 vertices: the
        # count from the parent is the child's, so the last-level test
        # (count 0) passes iff the child has every degree even; CI checks
        # the 11-vertex parents, whose 87 even children bring this to 141
        even = 0
        for n in range(4, 11):
            for g in gen_triangulations(n):
                odd = sum(len(nb) % 2 for nb in g.rotation)
                for v, nb in enumerate(g.rotation):
                    for i in range(len(nb)):
                        for j in range(i + 1, len(nb)):
                            h = split_vertex(g, v, i, j)
                            got = gen._odd_after_split(g, odd, v, i, j)
                            assert got == sum(len(r) % 2 for r in h.rotation)
                            even += got == 0
        assert even == 54

    def test_one_split_per_automorphism_orbit(self, monkeypatch):
        # every split of every parent would be 5,587 for n = 10; one per
        # orbit of the parents' automorphism groups is 3,212, each asked
        # of the lower-sum test, and 524 of them are built
        parents = [g for n in range(4, 10) for g in gen_triangulations(n)]
        assert sum(d * (d - 1) // 2 for g in parents for d in map(len, g.rotation)) == 5587
        asked, calls = [], []
        real_test, real_split = gen._lower_sum_test, gen.split_vertex

        def counted_test(g):
            rejects = real_test(g)

            def counted(v, a, b):
                asked.append(g)
                return rejects(v, a, b)
            return counted

        def counted_split(g, v, i, j):
            calls.append(g)
            return real_split(g, v, i, j)

        monkeypatch.setattr(gen, "_lower_sum_test", counted_test)
        monkeypatch.setattr(gen, "split_vertex", counted_split)
        assert len(gen_triangulations(10)) == 233
        assert len(asked) == 3212
        assert len(calls) == 524
        # every parent is still split at least once
        assert len({id(g) for g in calls}) == len(parents)

    def test_split_of_a_triangulation_is_a_triangulation(self):
        # the lemma that lets the generator skip validating duplicates:
        # every candidate on up to 9 vertices passes full validation as is
        checked = 0
        for n in range(4, 9):
            for g in gen_triangulations(n):
                for h in _split_candidates(g):
                    assert h == EmbeddedGraph.build(h.rotation)
                    assert h.m == 3 * h.n - 6
                    assert all(len(f) == 3 for f in h.faces.faces)
                    checked += 1
        assert checked == 1328

    def test_split_children_pinned(self):
        # every split (v, i, j) with i != j of every triangulation on at most
        # 9 vertices, j < i included; the sha256 of the children's
        # rotations, one per line, was computed when `split_vertex` still
        # copied every row
        digest = hashlib.sha256()
        splits = 0
        for n in range(4, 10):
            for g in gen_triangulations(n):
                for v, nb in enumerate(g.rotation):
                    for i in range(len(nb)):
                        for j in range(len(nb)):
                            if i != j:
                                digest.update(f"{split_vertex(g, v, i, j).rotation}\n".encode())
                                splits += 1
        assert splits == 11174
        assert digest.hexdigest() == SPLITS_SHA256

    def test_split_shares_the_rows_it_does_not_touch(self, octahedron):
        # only v, the new vertex, a, b and the far segment's inner vertices
        # get new rows; splitting 0 at positions 0 and 2 leaves the far
        # segment nb[2], nb[3], nb[0] to the new vertex 6
        h = split_vertex(octahedron, 0, 0, 2)
        nb = octahedron.rotation[0]
        changed = {0, 6, nb[0], nb[2], nb[3]}
        for w in range(octahedron.n):
            assert (h.rotation[w] is octahedron.rotation[w]) == (w not in changed)
        assert all(type(row) is tuple for row in h.rotation)

    def test_counts_match_simplicial_polyhedra(self):
        # numbers of plane triangulations on n vertices (OEIS A000109);
        # an independent yardstick for the expansion's completeness
        expected = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50}
        for n, want in expected.items():
            assert len(gen_triangulations(n)) == want

    def test_all_valid_and_distinct(self):
        tris = gen_triangulations(8)
        codes = {canonical_form(g) for g in tris}
        assert len(codes) == len(tris)
        for g in tris:
            assert g.n == 8
            assert all(len(f) == 3 for f in g.faces.faces)
            assert g.m == 3 * g.n - 6

    def test_even_counts(self):
        # frozen from exhaustive generation (12-vertex value lives in the
        # catalog fixture): 6->1, 7->0, 8->1, 9->1, 10->2, 11->2
        assert len(list(gen_even_triangulations(6))) == 1
        assert len(list(gen_even_triangulations(7))) == 0
        assert len(list(gen_even_triangulations(8))) == 1
        assert len(list(gen_even_triangulations(9))) == 1

    def test_even_ones_built_alone(self, monkeypatch):
        # the even classes of the full list, in its order, and only they
        # are built (with the tetrahedron the search starts from); n = 12
        # runs in CI's generation step, which builds the full list anyway
        real = EmbeddedGraph.build
        for n in range(4, 12):
            want = [g for g in gen_triangulations(n) if is_even_triangulation(g)]
            calls = []

            def counted(rotation):
                calls.append(rotation)
                return real(rotation)

            monkeypatch.setattr(EmbeddedGraph, "build", staticmethod(counted))
            assert list(gen_even_triangulations(n)) == want
            monkeypatch.undo()
            assert len(calls) == len(want) + 1

    def test_even10_fixture_is_generated(self, even10):
        # the fixture is frozen; its class still comes out of the generator
        bs = classify_big_small(even10, tri_partition(even10))
        assert bs.b_of(3) and bipyramid_poles(even10) is None
        assert canonical_form(even10) in {canonical_form(g) for g in gen_even_triangulations(10)}

    def test_unique_6_vertex_even_is_octahedron(self, octahedron):
        (g,) = gen_even_triangulations(6)
        assert canonical_form(g) == canonical_form(octahedron)

    def test_split_rejects_non_triangular_faces(self, octahedron):
        cube = dual(octahedron).graph    # every face a 4-cycle
        with pytest.raises(NotTriangulation):
            split_vertex(cube, 0, 0, 1)

    def test_split_needs_two_distinct_positions(self, octahedron):
        # positions 0 and 4 of a degree-4 rotation are the same neighbour
        with pytest.raises(ValueError):
            split_vertex(octahedron, 0, 0, 4)

    def test_size_bounds(self):
        with pytest.raises(SizeOutOfRange):
            gen_triangulations(3)
        with pytest.raises(SizeOutOfRange):
            gen_triangulations(17)
        # sizes whose classes would not fit in memory are refused up front
        with pytest.raises(SizeOutOfRange):
            gen_triangulations(15)
        with pytest.raises(SizeOutOfRange):
            list(gen_even_triangulations(15))

    def test_catalog_instances_valid(self, catalog12):
        assert len(catalog12) == 8
        codes = set()
        for g in catalog12:
            assert g.n == 12 and is_even_triangulation(g)
            codes.add(canonical_form(g))
        assert len(codes) == 8

    def test_even_13_is_the_frozen_catalog(self, catalog13_14):
        # CI checks 14 vertices against its catalog the same way
        got = sorted(canonical_form(g) for g in gen_even_triangulations(13))
        assert got == sorted(canonical_form(g) for g in catalog13_14[13])

    def test_frozen_catalogs_13_and_14(self, catalog13_14):
        for n, count in ((13, 8), (14, 32)):
            graphs = catalog13_14[n]
            assert len(graphs) == count
            assert all(g.n == n and is_even_triangulation(g) for g in graphs)
            assert len({canonical_form(g) for g in graphs}) == count


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), size=st.integers(4, 24))
def test_gen_multi4_always_in_family(seed, size):
    g = gen_multi4(size, seed)
    assert is_multi4(g)
    assert g.n <= size


@pytest.mark.parametrize("size", range(-3, 4))
def test_gen_multi4_too_small(size):
    # the smallest member with a cycle is C4, which would break g.n <= size
    with pytest.raises(SizeTooSmall):
        gen_multi4(size, 0)


def test_gen_multi4_output_check_raises(monkeypatch):
    monkeypatch.setattr(gen, "is_multi4", lambda g, **kw: False)
    with pytest.raises(NotInFamilyH):
        gen_multi4(16, 7)


def test_gen_multi4_deterministic():
    assert gen_multi4(16, 7).edges() == gen_multi4(16, 7).edges()


def _reference_h_components_2connected(h: Graph) -> bool:
    """The component pass `h_components_2connected` replaced: a subgraph
    per component, then the blocks of each one on >= 3 vertices."""
    for comp in h.components():
        if len(comp) == 2:
            return False
        if len(comp) >= 3:
            blocks, cuts = h.subgraph(comp).blocks()
            if len(blocks) != 1 or cuts:
                return False
    return True


class TestHypothesisFilter:
    def test_big_vertex_graph_excludes_class12_edges(self, catalog12):
        for g in catalog12:
            h, bs = big_vertex_graph(g)
            tp = tri_partition(g)
            for u, v in h.edges():
                assert u in bs.big and v in bs.big
                assert {tp.class_of[u], tp.class_of[v]} != {1, 2}

    def test_meets_h_hypothesis(self):
        assert meets_h_hypothesis(Graph.from_edges([], vertices=[0, 1]))
        # a lone edge (a 2-vertex component) fails the 2-connectivity reading
        assert not meets_h_hypothesis(Graph.from_edges([(0, 1)]))
        assert is_multi4(Graph.from_edges([(0, 1)]))
        c4 = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        assert meets_h_hypothesis(c4)
        c6 = Graph.from_edges([(i, (i + 1) % 6) for i in range(6)])
        assert not meets_h_hypothesis(c6)
        # the 2-connectivity half alone: C6 passes it, a lone edge does not
        assert h_components_2connected(c6)
        assert not h_components_2connected(Graph.from_edges([(0, 1)]))

    @pytest.mark.parametrize("graphs", ["one_pass_graphs", "atlas"])
    def test_2connected_matches_component_pass(self, graphs, request):
        verdicts = Counter()
        for h in request.getfixturevalue(graphs):
            got = h_components_2connected(h)
            assert got == _reference_h_components_2connected(h), h.edges()
            verdicts[got] += 1
        assert verdicts[True] and verdicts[False], verdicts

    def test_thm24_instances(self):
        got = gen_thm24_instances(10, seed=1)
        assert got
        for g in got:
            h, _ = big_vertex_graph(g)
            assert meets_h_hypothesis(h)
        with pytest.raises(NoneFound):
            gen_thm24_instances(7)


class TestCatalog:
    def test_round_trip(self, octahedron):
        lines = [octahedron.to_json(), "", octahedron.to_json()]
        got = list(load_catalog(lines))
        assert len(got) == 2 and got[0] == octahedron

    def test_parse_error_carries_line_number(self, octahedron):
        with pytest.raises(ParseError, match="line 2"):
            list(load_catalog([octahedron.to_json(), "nonsense"]))
