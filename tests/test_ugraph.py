"""The one-pass cycle and block walks of `Graph` against the copying
versions they replaced, kept here as references."""

from typing import Iterator

import pytest

from dualham.errors import CycleCapExceeded
from dualham.gen import gen_multi4
from dualham.ugraph import DEFAULT_CYCLE_CAP, Edge, Graph


def _reference_simple_cycles(g: Graph, cap: int = DEFAULT_CYCLE_CAP) -> Iterator[list[int]]:
    """Reference for `Graph.simple_cycles`: copies the path and its vertex
    set at every step and re-sorts an adjacency at every step."""
    count = 0
    order = g.vertices
    for root in order:
        allowed = {v for v in g.adj if v > root}
        stack: list[tuple[int, list[int], set[int]]] = [(root, [root], set())]
        while stack:
            u, path, used = stack.pop()
            for w in sorted(g.adj[u], reverse=True):
                if w == root and len(path) >= 3:
                    if path[1] < path[-1]:
                        count += 1
                        if count > cap:
                            raise CycleCapExceeded(f"more than {cap} simple cycles")
                        yield list(path)
                elif w in allowed and w not in used:
                    stack.append((w, path + [w], used | {w}))


def _reference_blocks(g: Graph) -> tuple[list[set[int]], set[int]]:
    """Reference for `Graph.blocks`: Hopcroft-Tarjan over an edge stack,
    each adjacency sorted as it is entered."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    comp_list: list[set[int]] = []
    cut: set[int] = set()
    timer = 0
    for root in g.adj:
        if root in disc:
            continue
        if not g.adj[root]:
            comp_list.append({root})
            continue
        stack: list[Edge] = []
        root_children = 0
        disc[root] = low[root] = timer
        timer += 1
        call = [(root, None, iter(sorted(g.adj[root])))]
        while call:
            u, p, it = call[-1]
            advanced = False
            for w in it:
                if w == p:
                    continue
                if w not in disc:
                    stack.append((u, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    call.append((w, u, iter(sorted(g.adj[w]))))
                    advanced = True
                    break
                elif disc[w] < disc[u]:
                    stack.append((u, w))
                    low[u] = min(low[u], disc[w])
            if advanced:
                continue
            call.pop()
            if p is not None:
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:
                    if p == root:
                        root_children += 1
                    comp = set()
                    while True:
                        a, b = stack.pop()
                        comp.add(a)
                        comp.add(b)
                        if (a, b) == (p, u):
                            break
                    comp_list.append(comp)
                    if p != root:
                        cut.add(p)
        if root_children > 1:
            cut.add(root)
    return comp_list, cut


def _capped(cycles: Iterator[list[int]]) -> tuple[list[list[int]], bool]:
    """The cycles yielded before the cap, and whether the cap was hit."""
    out = []
    try:
        for c in cycles:
            out.append(c)
    except CycleCapExceeded:
        return out, True
    return out, False


@pytest.fixture(scope="module")
def multi4_200() -> list[Graph]:
    """200 generated family members, 8 to 40 vertices."""
    return [gen_multi4(size, seed) for size in (8, 16, 24, 32, 40) for seed in range(40)]


def _assert_walks_match(graphs: list[Graph]) -> None:
    for g in graphs:
        assert list(g.simple_cycles()) == list(_reference_simple_cycles(g)), g.edges()
        for cap in (1, 2, 5):
            got = _capped(g.simple_cycles(cap=cap))
            assert got == _capped(_reference_simple_cycles(g, cap=cap)), (g.edges(), cap)
        blocks, cuts = g.blocks()
        ref_blocks, ref_cuts = _reference_blocks(g)
        assert sorted(map(sorted, blocks)) == sorted(map(sorted, ref_blocks)), g.edges()
        assert cuts == ref_cuts, g.edges()


def test_walks_match_reference_on_atlas(atlas):
    assert len(atlas) == 1253
    _assert_walks_match(atlas)


def test_walks_match_reference_on_generated_members(multi4_200):
    _assert_walks_match(multi4_200)
    # not vacuous: some member has a cycle past each cap and a cut vertex
    assert any(_capped(g.simple_cycles(cap=5))[1] for g in multi4_200)
    assert any(g.blocks()[1] for g in multi4_200)


def test_walks_match_reference_on_glued_graphs(glued_graphs):
    _assert_walks_match(glued_graphs)


def test_blocks_on_disconnected_input():
    # a square with a pendant path, a lone vertex, an edge and a bowtie
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5),
                          (7, 8), (9, 10), (10, 11), (11, 9), (11, 12), (12, 13), (13, 11)],
                         [6])
    blocks, cuts = g.blocks()
    assert sorted(map(sorted, blocks)) == [[0, 1, 2, 3], [3, 4], [4, 5], [6], [7, 8],
                                           [9, 10, 11], [11, 12, 13]]
    assert cuts == {3, 4, 11}
