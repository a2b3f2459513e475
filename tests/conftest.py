"""Shared fixtures: canonical small instances, the frozen catalog and
generated members of the mod-4 cycle family."""

import itertools
import json
import random
from pathlib import Path

import pytest

from dualham.embed import EmbeddedGraph
from dualham.gen import big_vertex_graph, gen_bipyramid, gen_multi4
from dualham.structure import is_multi4
from dualham.ugraph import Graph
from lemmas import ear_grown_members, is_biconnected
from oracles import golden_two_squares, load_catalog

DATA = Path(__file__).parent / "data"
LARGE = Path(__file__).parent.parent / "perfbench" / "data" / "large.jsonl"


@pytest.fixture(scope="session")
def octahedron() -> EmbeddedGraph:
    return gen_bipyramid(2)


@pytest.fixture(scope="session")
def bipyramid6() -> EmbeddedGraph:
    """Join of a 6-cycle with two poles: 8 vertices, poles of degree 6."""
    return gen_bipyramid(3)


@pytest.fixture(scope="session")
def two_squares():
    """Two 4-cycles joined by an edge and a 3-path; 2-connected, all cycles
    of length 0 mod 4, with a genuine cut pair."""
    return golden_two_squares()


@pytest.fixture(scope="session")
def even10() -> EmbeddedGraph:
    """A 10-vertex even triangulation with big class-3 vertices that is
    not a bipyramid, frozen in the labelling that tests pinning its vertex
    ids were written for (test_gen checks that the generator still yields
    its class)."""
    return EmbeddedGraph.build([
        (9, 2, 6, 8), (7, 6, 5, 4, 3, 9), (4, 5, 6, 0, 9, 3), (4, 2, 9, 1), (2, 3, 1, 5),
        (2, 4, 1, 6), (2, 5, 1, 7, 8, 0), (6, 1, 9, 8), (6, 7, 9, 0), (3, 2, 0, 8, 7, 1),
    ])


@pytest.fixture(scope="session")
def catalog12() -> list[EmbeddedGraph]:
    """All eight 12-vertex even triangulations, generated once by
    `gen_even_triangulations(12)` and frozen (CI checks the generator's
    12-vertex output against it; test_gen re-derives the smaller sizes
    live)."""
    with open(DATA / "even_tri_12.jsonl") as f:
        return list(load_catalog(f))


@pytest.fixture(scope="session")
def catalog13_14() -> dict[int, list[EmbeddedGraph]]:
    """All 8 even triangulations on 13 vertices and all 32 on 14, generated
    once by an earlier enumeration of `gen_even_triangulations(13)` and
    `(14)` (2.4 min and 18 min then) and frozen.  The generator is now
    checked against them: tier-1 at 13 vertices, CI at 14."""
    out = {}
    for n in (13, 14):
        with open(DATA / f"even_tri_{n}.jsonl") as f:
            out[n] = list(load_catalog(f))
    return out


@pytest.fixture(scope="session")
def even_tri_sweep(catalog12) -> list[EmbeddedGraph]:
    """Even triangulations for checking a rewrite against its reference.

    Every even triangulation with n <= 12 and its mirror (the rows of the
    with-edge golden file), two seeded relabellings of each, the 12-vertex
    catalog, and the four large instances frozen for the benchmark
    (n = 152 and 302) with their mirrors.
    """
    rng = random.Random(12)
    with open(DATA / "with_edge_golden.jsonl") as f:
        small = [EmbeddedGraph.build(json.loads(line)["rotation"]) for line in f]
    relabelled = []
    for g in small:
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            rot = [None] * g.n
            for v, nb in enumerate(g.rotation):
                rot[perm[v]] = [perm[u] for u in nb]
            relabelled.append(EmbeddedGraph.build(rot))
    with open(LARGE) as f:
        large = [EmbeddedGraph.build(json.loads(line)["rotation"]) for line in f]
    return small + relabelled + catalog12 + large + [g.mirror() for g in large]


@pytest.fixture(scope="session")
def one_pass_graphs(hgraphs) -> list[Graph]:
    """Inputs on which a one-pass routine must match the component pass
    it replaced: the triangulation G and its big-vertex graph H of every
    frozen instance (the catalogs on 12 to 14 vertices, the with-edge
    golden rows and the benchmark's corpus and large instances), the
    generated `hgraphs`, and disconnected graphs whose components
    interleave their labels."""
    out = []
    for path in sorted(DATA.glob("*.jsonl")) + [LARGE.with_name("corpus12.jsonl"), LARGE]:
        with open(path) as f:
            for line in f:
                g = EmbeddedGraph.build(json.loads(line)["rotation"])
                out += [g.abstract(), big_vertex_graph(g)[0]]
    rng = random.Random(29)
    extras = [Graph.from_edges([], [0]), Graph.from_edges([(0, 1)]),
              Graph.from_edges([(0, 1), (1, 2), (2, 0)])]
    for _ in range(40):
        # generated members and a lone vertex, a lone edge or a triangle,
        # disjoint, under one shuffled labelling
        parts = [gen_multi4(rng.choice((4, 8, 12)), rng.randrange(100))
                 for _ in range(rng.randint(2, 3))] + [rng.choice(extras)]
        edges, n = [], 0
        for part in parts:
            label = {v: n + i for i, v in enumerate(sorted(part.adj))}
            edges += [(label[u], label[v]) for u, v in part.edges()]
            n += part.n
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(Graph.from_edges([(perm[u], perm[v]) for u, v in edges], range(n)))
    return out + hgraphs


@pytest.fixture(scope="session")
def h_not_in_family() -> EmbeddedGraph:
    """An even triangulation on 13 vertices whose H has the 6-cycle
    2-4-9-12-7-8; 4 is big class 3 and 2 big class 2."""
    return EmbeddedGraph.build([
        [1, 12, 10, 8], [0, 8, 7, 12], [4, 5, 6, 7, 8, 11], [4, 10, 12, 9],
        [2, 11, 10, 3, 9, 5], [2, 4, 9, 6], [2, 5, 9, 7], [2, 6, 9, 12, 1, 8],
        [10, 11, 2, 7, 1, 0], [7, 6, 5, 4, 3, 12], [8, 0, 12, 3, 4, 11],
        [8, 10, 4, 2], [3, 10, 0, 1, 7, 9],
    ])


@pytest.fixture(scope="session")
def h_not_2connected() -> EmbeddedGraph:
    """The even triangulation on 9 vertices (first golden row with n = 9):
    H is in the mod-4 family, but a component of it is not 2-connected."""
    with open(DATA / "with_edge_golden.jsonl") as f:
        rows = [json.loads(line)["rotation"] for line in f]
    return EmbeddedGraph.build(next(r for r in rows if len(r) == 9))


@pytest.fixture(scope="session")
def hgraphs():
    """At least 200 generated members of the mod-4 cycle family, n <= 16."""
    out = []
    for size in (8, 10, 12, 14, 16):
        for seed in range(42):
            out.append(gen_multi4(size, seed * 5 + size))
    assert len(out) >= 200
    return out


@pytest.fixture(scope="session")
def glued_graphs():
    """Deterministic family members made of two 4k-cycles joined by two
    disjoint paths: the biconnected shape that admits cut pairs."""
    out = []
    for k1, k2 in ((4, 4), (4, 8), (8, 8)):
        for i1, i2 in itertools.combinations(range(k1), 2):
            for j1, j2 in itertools.combinations(range(k2), 2):
                for l1, l2 in itertools.product((1, 2, 3), (1, 2, 3, 4, 5)):
                    edges = [(i, (i + 1) % k1) for i in range(k1)]
                    edges += [(k1 + i, k1 + (i + 1) % k2) for i in range(k2)]
                    nxt = k1 + k2
                    for a, b, l in ((i1, k1 + j1, l1), (i2, k1 + j2, l2)):
                        path = [a] + [nxt + t for t in range(l - 1)] + [b]
                        edges += list(zip(path, path[1:]))
                        nxt += l - 1
                    g = Graph.from_edges(edges)
                    if is_multi4(g) and is_biconnected(g):
                        out.append(g)
    return out


@pytest.fixture(scope="session")
def ear_grown() -> list[Graph]:
    """Every 2-connected family member on at most 14 vertices (117 graphs)."""
    pytest.importorskip("networkx")
    return ear_grown_members(14)


@pytest.fixture(scope="session")
def atlas() -> list[Graph]:
    """Every graph on at most 7 vertices, one per isomorphism class: the
    1,253 graphs of the networkx atlas."""
    nx = pytest.importorskip("networkx")
    return [Graph.from_edges(h.edges(), h.nodes()) for h in nx.graph_atlas_g()]
