"""Rotation systems, face tracing, duals, and canonical forms."""

import random

import pytest

from dualham.embed import (
    EmbeddedGraph,
    TriPartition,
    automorphisms,
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
from dualham import embed
from dualham.gen import TETRAHEDRON, gen_bipyramid, gen_triangulations, split_vertex
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


def _reference_canonical_form_early_exit(g: EmbeddedGraph) -> tuple:
    """Reference: the minimum of BFS codes, one start at a time, each
    abandoned at its first row larger than the best so far, as canonical
    forms were computed before the starts were filtered row by row."""
    best = None
    min_deg = min(len(nb) for nb in g.rotation)
    for rot in (g.rotation, tuple(nb[::-1] for nb in g.rotation)):
        for v, nb in enumerate(rot):
            if len(nb) != min_deg:
                continue
            for u in nb:
                code = _reference_code_from_early_exit(rot, v, u, best)
                if code is not None:
                    best = code
    return best


def _reference_code_from_early_exit(rotation, root: int, first: int, best):
    """BFS code from the directed edge (root, first), or None unless it sorts
    before `best`."""
    n = len(rotation)
    label = [-1] * n
    entry = [0] * n
    label[root], label[first] = 0, 1
    entry[root], entry[first] = first, root
    order = [root, first]
    code = []
    smaller = best is None
    for v in order:
        nb = rotation[v]
        k = nb.index(entry[v])
        row = []
        for w in nb[k:] + nb[:k]:
            if label[w] < 0:
                label[w] = len(order)
                entry[w] = v
                order.append(w)
            row.append(label[w])
        row = tuple(row)
        if not smaller:
            other = best[len(code)]
            if row > other:
                return None
            smaller = row < other
        code.append(row)
    return tuple(code) if smaller else None


def _split_candidates_up_to(n_max: int):
    """Every split candidate on at most n_max vertices, from every
    triangulation the generator keeps."""
    for n in range(4, n_max):
        for g in gen_triangulations(n):
            for v in range(n):
                for i in range(g.degree(v)):
                    for j in range(i + 1, g.degree(v)):
                        yield split_vertex(g, v, i, j)


def test_canonical_form_matches_both_references_on_split_candidates():
    checked = 0
    for h in _split_candidates_up_to(8):
        for x in (h, h.mirror()):
            code = canonical_form(x)
            assert code == _reference_canonical_form(x)
            assert code == _reference_canonical_form_early_exit(x)
            checked += 1
    assert checked == 2 * 372


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


def _path_and_cycle():
    path = EmbeddedGraph.build([(1,), (0, 2), (1, 3), (2,)])
    cycle = EmbeddedGraph.build([((i + 1) % 5, (i - 1) % 5) for i in range(5)])
    return path, cycle


def test_canonical_form_matches_reference_off_triangulations(octahedron):
    # plane graphs that are not triangulations: roots of degree 1 (a path),
    # 2 (a cycle) and 3 (a wheel, the cube, cubic duals)
    path, cycle = _path_and_cycle()
    wheel = EmbeddedGraph.build(
        [((i + 1) % 5, 5, (i - 1) % 5) for i in range(5)] + [tuple(range(5))])
    graphs = [path, cycle, wheel, dual(octahedron).graph]
    graphs += [dual(g).graph for g in gen_triangulations(8)]
    for g in graphs + [g.mirror() for g in graphs]:
        assert canonical_form(g) == _reference_canonical_form(g)
        assert canonical_form(g) == _reference_canonical_form_early_exit(g)


def test_gen_triangulations_unchanged_under_reference_dedup():
    # each output is its class's code, so the reference canonical form
    # hands it back unchanged
    for n in range(4, 10):
        for g in gen_triangulations(n):
            assert _reference_canonical_form(g) == g.rotation


def _is_cyclic_shift(a: tuple, b: tuple) -> bool:
    return any(a == b[k:] + b[:k] for k in range(len(b)))


def _reflects(g: EmbeddedGraph, s: tuple[int, ...]) -> bool | None:
    """False if s carries every rotation onto its image's rotation, True if
    onto its image's reversed rotation, None if neither."""
    for reflect in (False, True):
        if all(_is_cyclic_shift(tuple(s[u] for u in nb),
                                g.rotation[s[v]][::-1] if reflect else g.rotation[s[v]])
               for v, nb in enumerate(g.rotation)):
            return reflect
    return None


def _brute_force_automorphisms(g: EmbeddedGraph) -> set[tuple[int, ...]]:
    """Every map that sends the dart (0, first) to some dart, in either
    orientation, extends along the rotations and is a bijection."""
    r0, f0 = 0, g.rotation[0][0]
    found = set()
    for reflect in (False, True):
        rot = [nb[::-1] for nb in g.rotation] if reflect else g.rotation
        for v in range(g.n):
            for u in g.rotation[v]:
                s, entry = {r0: v, f0: u}, {r0: f0, f0: r0}
                queue, ok = [r0, f0], True
                for x in queue:
                    nb, img = g.rotation[x], rot[s[x]]
                    if len(nb) != len(img):
                        ok = False
                        break
                    k, k2 = nb.index(entry[x]), img.index(s[entry[x]])
                    for t in range(len(nb)):
                        y, z = nb[(k + t) % len(nb)], img[(k2 + t) % len(img)]
                        if y not in s:
                            s[y], entry[y] = z, x
                            queue.append(y)
                        elif s[y] != z:
                            ok = False
                    if not ok:
                        break
                if ok and len(set(s.values())) == g.n:
                    found.add(tuple(s[x] for x in range(g.n)))
    return found


def test_automorphism_group_sizes(octahedron, bipyramid6):
    path, cycle = _path_and_cycle()
    tetrahedron = EmbeddedGraph.build(TETRAHEDRON)
    cube = dual(octahedron).graph
    sizes = [len(automorphisms(g)) for g in (tetrahedron, octahedron, bipyramid6, cube,
                                             cycle, path)]
    assert sizes == [24, 48, 24, 48, 10, 2]
    # half of each group reverses the rotations
    for g in (tetrahedron, octahedron, bipyramid6, cube):
        assert 2 * sum(_reflects(g, s) for s in automorphisms(g)) == len(automorphisms(g))


def test_automorphisms_carry_rotations_onto_rotations(octahedron, bipyramid6):
    path, cycle = _path_and_cycle()
    graphs = [EmbeddedGraph.build(TETRAHEDRON), octahedron, bipyramid6,
              dual(octahedron).graph, cycle, path] + gen_triangulations(8)
    for g in graphs:
        autos = automorphisms(g)
        assert autos[0] == tuple(range(g.n))
        assert len(set(autos)) == len(autos)
        for s in autos:
            assert sorted(s) == list(range(g.n))
            assert _reflects(g, s) is not None


def test_automorphisms_match_brute_force():
    checked = 0
    for n in range(4, 9):
        for g in gen_triangulations(n):
            autos = automorphisms(g)
            assert set(autos) == _brute_force_automorphisms(g)
            checked += 1
    assert checked == 1 + 1 + 2 + 5 + 14


def test_automorphism_group_size_is_label_and_mirror_invariant(bipyramid6):
    rng = random.Random(22)
    for g in [bipyramid6] + gen_triangulations(8):
        size = len(automorphisms(g))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert len(automorphisms(EmbeddedGraph.build(_permute(g, perm)))) == size
        assert len(automorphisms(g.mirror())) == size


def test_different_embeddings_distinguished(octahedron, bipyramid6):
    assert (octahedron.n, octahedron.m) != (bipyramid6.n, bipyramid6.m)
    assert canonical_form(octahedron) != canonical_form(bipyramid6)


def test_json_round_trip(octahedron):
    assert EmbeddedGraph.from_json(octahedron.to_json()) == octahedron


def test_mirror_involution(octahedron):
    assert octahedron.mirror().mirror() == octahedron
