"""Shared fixtures: canonical small instances and the frozen catalog."""

from pathlib import Path

import pytest

from dualham.embed import EmbeddedGraph
from dualham.gen import gen_bipyramid, golden_two_squares, load_catalog

DATA = Path(__file__).parent / "data"


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
    35 s on one core of a 2-vCPU VM with Python 3.11; test_gen re-derives
    the smaller sizes live)."""
    with open(DATA / "even_tri_12.jsonl") as f:
        return list(load_catalog(f))
