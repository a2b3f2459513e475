"""Rotation systems, face tracing, duals, and canonical forms."""

import random

import pytest

from dualham.embed import (
    EmbeddedGraph,
    TriPartition,
    canonical_form,
    classify_big_small,
    dual,
    is_even_triangulation,
    tri_partition,
)
from dualham.errors import (
    AsymmetricAdjacency,
    MultiEdgeOrLoop,
    NonPlanarEmbedding,
    NotEvenTriangulation,
)
from dualham import embed, gen
from dualham.gen import TETRAHEDRON, gen_bipyramid, gen_triangulations
from dualham.ugraph import norm_edge


def test_build_rejects_asymmetric_adjacency():
    with pytest.raises(AsymmetricAdjacency):
        EmbeddedGraph.build([(1, 2), (0,), (0, 1)])


def test_build_rejects_loops_and_multi_edges():
    with pytest.raises(MultiEdgeOrLoop):
        EmbeddedGraph.build([(0, 1), (0,)])
    with pytest.raises(MultiEdgeOrLoop):
        EmbeddedGraph.build([(1, 2, 1), (0, 2, 0), (0, 1)])


def test_build_rejects_non_planar_rotation():
    # K4 with one rotation reversed: faces no longer satisfy Euler's formula
    rot = [list(nb) for nb in TETRAHEDRON]
    rot[0] = rot[0][::-1]
    with pytest.raises(NonPlanarEmbedding):
        EmbeddedGraph.build(rot)


def test_tetrahedron_faces_and_counts():
    g = EmbeddedGraph.build(TETRAHEDRON)
    assert (g.n, g.m) == (4, 6)
    assert [len(f) for f in g.faces.faces] == [3, 3, 3, 3]
    assert not is_even_triangulation(g)  # all degrees are 3


def test_octahedron_is_even_triangulation(octahedron):
    assert (octahedron.n, octahedron.m) == (6, 12)
    assert len(octahedron.faces.faces) == 8
    assert is_even_triangulation(octahedron)


def test_octahedron_dual_is_cubic_on_8_vertices(octahedron):
    d = dual(octahedron)
    assert d.graph.n == 8
    assert all(d.graph.degree(v) == 3 for v in range(8))
    # edge bijection covers every primal edge and is injective
    assert len(set(d.edge_map.values())) == octahedron.m


def _face_walk_edges(g: EmbeddedGraph, start: tuple[int, int]) -> list[tuple[int, int]]:
    """The undirected edges of the face walk from the directed edge
    `start`, in walk order, traced here by the convention of the module."""
    out = []
    e = start
    while True:
        out.append(norm_edge(*e))
        a, b = e
        e = (b, g.next_cw(b, a))
        if e == start:
            return out


def test_each_vertex_is_wound_round_by_one_dual_face(catalog12):
    # the premise of `face_avoidance_report`: the dual edges of v's edges,
    # in v's rotation order, are the whole boundary of one dual face, so
    # that face is read off v's rotation without tracing the dual; the
    # bipyramids start at the octahedron (l = 2)
    graphs = [gen_bipyramid(l) for l in range(2, 7)] + catalog12
    for g in graphs + [g.mirror() for g in graphs]:
        d = dual(g)
        for v in range(g.n):
            boundary = [d.edge_map[norm_edge(v, u)] for u in g.rotation[v]]
            a, b = boundary[0]
            walks = [_face_walk_edges(d.graph, e) for e in ((a, b), (b, a))]
            assert walks.count(boundary) == 1, (g.rotation, v)


def test_dual_traces_no_faces_of_its_own(monkeypatch, octahedron, catalog12):
    calls = []
    real = embed.trace_faces
    monkeypatch.setattr(embed, "trace_faces", lambda g: calls.append(g) or real(g))
    for g in [octahedron] + catalog12:
        g.faces   # cached by `build` already; the dual needs no other trace
        dual(g)
    assert calls == []


def test_dual_passes_the_checks_it_skips(even_tri_sweep):
    # `dual` builds its graph without validation; `build` must accept it
    for g in even_tri_sweep:
        d = dual(g)
        assert EmbeddedGraph.build(d.graph.rotation) == d.graph


def test_tri_partition_is_proper(bipyramid6):
    tp = tri_partition(bipyramid6)
    for u, v in bipyramid6.edges():
        assert tp.class_of[u] != tp.class_of[v]
    assert {tp.class_of[v] for v in range(bipyramid6.n)} == {1, 2, 3}


def test_tri_partition_rejects_odd_triangulation():
    with pytest.raises(NotEvenTriangulation):
        tri_partition(EmbeddedGraph.build(TETRAHEDRON))


def _reference_tri_partition(g):
    """Reference for `tri_partition`: sweep every face until no colour
    changes."""
    if not is_even_triangulation(g):
        raise NotEvenTriangulation("faces or degrees are wrong")
    cls = [0] * g.n
    cls[0] = 1
    first = g.rotation[0][0]
    cls[first] = 2
    # triangles incident to each vertex
    tris = [tuple({a for e in f for a in e}) for f in g.faces.faces]
    pending = True
    while pending:
        pending = False
        for t in tris:
            known = [v for v in t if cls[v]]
            if len(known) == 3:
                if len({cls[v] for v in t}) != 3:
                    raise NotEvenTriangulation("3-colouring propagation conflict")
            elif len(known) == 2:
                a, b = known
                if cls[a] == cls[b]:
                    raise NotEvenTriangulation("3-colouring propagation conflict")
                missing = next(v for v in t if not cls[v])
                cls[missing] = 6 - cls[a] - cls[b]
                pending = True
    if any(c == 0 for c in cls):
        raise NotEvenTriangulation("3-colouring propagation incomplete")
    for u, v in g.edges():
        if cls[u] == cls[v]:
            raise NotEvenTriangulation("improper 3-colouring")
    return TriPartition(tuple(cls))


def test_tri_partition_matches_reference(even_tri_sweep):
    graphs = even_tri_sweep + [gen_bipyramid(l) for l in range(2, 9)]
    for g in graphs:
        assert tri_partition(g) == _reference_tri_partition(g)


def test_both_tri_partitions_reject_odd_degrees():
    for g in [EmbeddedGraph.build(TETRAHEDRON)] + gen_triangulations(7):
        for impl in (tri_partition, _reference_tri_partition):
            with pytest.raises(NotEvenTriangulation):
                impl(g)


def test_both_tri_partitions_reject_k7_on_the_torus():
    # triangular faces and even degrees pass the gate, but K7 has no
    # proper 3-colouring; `build` would refuse the torus, so bypass it
    rot = tuple(tuple((i + d) % 7 for d in (1, 3, 2, 6, 4, 5)) for i in range(7))
    g = EmbeddedGraph(7, rot)
    assert is_even_triangulation(g)
    for impl in (tri_partition, _reference_tri_partition):
        with pytest.raises(NotEvenTriangulation):
            impl(g)


def test_classify_big_small(bipyramid6):
    tp = tri_partition(bipyramid6)
    bs = classify_big_small(bipyramid6, tp)
    assert bs.big == frozenset({6, 7})       # the two poles have degree 6
    assert bs.small == frozenset(range(6))   # ring vertices have degree 4
    assert bs.b_of(1) | bs.b_of(2) | bs.b_of(3) == bs.big


def test_canonical_form_is_label_invariant(bipyramid6):
    g = bipyramid6
    perm = [3, 5, 0, 1, 7, 6, 2, 4]
    relabelled = EmbeddedGraph.build(_permute(g, perm))
    assert canonical_form(g) == canonical_form(relabelled)
    assert canonical_form(g) == canonical_form(g.mirror())


def _permute(g: EmbeddedGraph, perm: list[int]) -> list[list[int]]:
    rot = [None] * g.n
    for v, nb in enumerate(g.rotation):
        rot[perm[v]] = [perm[u] for u in nb]
    return rot


def _reference_canonical_form(g: EmbeddedGraph) -> tuple:
    """Reference: the minimum of whole BFS codes, each built in full before
    it is compared, as canonical forms were computed before row-by-row
    early exit."""
    best = None
    min_deg = min(len(nb) for nb in g.rotation)
    for h in (g, g.mirror()):
        for v in range(h.n):
            if len(h.rotation[v]) != min_deg:
                continue
            for u in h.rotation[v]:
                code = _reference_code_from(h, v, u)
                if best is None or code < best:
                    best = code
    return best


def _reference_code_from(g: EmbeddedGraph, root: int, first: int) -> tuple:
    label = {root: 0, first: 1}
    entry = {root: first, first: root}
    order = [root, first]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        nb = g.rotation[v]
        k = nb.index(entry[v])
        for j in range(len(nb)):
            w = nb[(k + j) % len(nb)]
            if w not in label:
                label[w] = len(order)
                entry[w] = v
                order.append(w)
    code = []
    for v in order:
        nb = g.rotation[v]
        k = nb.index(entry[v])
        code.append(tuple(label[nb[(k + j) % len(nb)]] for j in range(len(nb))))
    return tuple(code)


def test_canonical_form_matches_reference():
    rng = random.Random(20)
    checked = 0
    for n in range(4, 10):
        for g in gen_triangulations(n):
            for h in (g, g.mirror()):
                variants = [h]
                for _ in range(2):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    variants.append(EmbeddedGraph.build(_permute(h, perm)))
                for x in variants:
                    assert canonical_form(x) == _reference_canonical_form(x)
                    checked += 1
    assert checked == 6 * (1 + 1 + 2 + 5 + 14 + 50)


def test_canonical_form_matches_reference_off_triangulations(octahedron):
    # plane graphs that are not triangulations: roots of degree 1 (a path),
    # 2 (a cycle) and 3 (a wheel, the cube, cubic duals)
    path = EmbeddedGraph.build([(1,), (0, 2), (1, 3), (2,)])
    cycle = EmbeddedGraph.build([((i + 1) % 5, (i - 1) % 5) for i in range(5)])
    wheel = EmbeddedGraph.build(
        [((i + 1) % 5, 5, (i - 1) % 5) for i in range(5)] + [tuple(range(5))])
    graphs = [path, cycle, wheel, dual(octahedron).graph]
    graphs += [dual(g).graph for g in gen_triangulations(8)]
    for g in graphs + [g.mirror() for g in graphs]:
        assert canonical_form(g) == _reference_canonical_form(g)


def test_gen_triangulations_unchanged_under_reference_dedup(monkeypatch):
    got = [g.rotation for g in gen_triangulations(9)]
    monkeypatch.setattr(gen, "canonical_form", _reference_canonical_form)
    want = [g.rotation for g in gen_triangulations(9)]
    assert got == want


def test_different_embeddings_distinguished(octahedron, bipyramid6):
    assert (octahedron.n, octahedron.m) != (bipyramid6.n, bipyramid6.m)
    assert canonical_form(octahedron) != canonical_form(bipyramid6)


def test_json_round_trip(octahedron):
    assert EmbeddedGraph.from_json(octahedron.to_json()) == octahedron


def test_mirror_involution(octahedron):
    assert octahedron.mirror().mirror() == octahedron
