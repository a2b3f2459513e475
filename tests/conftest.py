"""Shared fixtures: canonical small instances and the frozen catalog."""

import json
import random
from pathlib import Path

import pytest

from dualham.embed import EmbeddedGraph
from dualham.gen import gen_bipyramid, golden_two_squares, load_catalog

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
def catalog12() -> list[EmbeddedGraph]:
    """All eight 12-vertex even triangulations, generated once by
    `gen_even_triangulations(12)` and frozen (regeneration takes about
    12 s on one core of a 2-vCPU VM with Python 3.11; test_gen re-derives
    the smaller sizes live)."""
    with open(DATA / "even_tri_12.jsonl") as f:
        return list(load_catalog(f))


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
