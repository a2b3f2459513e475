"""Exhaustive arbiters and fixtures that the library itself never calls.

Each oracle settles a question by brute force, independently of the
constructions it checks: every simple cycle of a small graph, every
Hamilton cycle of a small cubic graph, and the two edge-pair properties
of a cubic plane graph stated over all of them.  The catalog loader reads
the frozen instance files, and `golden_two_squares` is the smallest handy
member of the mod-4 family with a genuine cut pair.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable, Iterator

from dualham.duality import HamiltonCycle
from dualham.embed import EmbeddedGraph
from dualham.errors import DualhamError, ParseError
from dualham.ugraph import Graph, norm_edge

DEFAULT_ENUM_CAP = 10**6


class CapExceeded(DualhamError):
    """Hamilton-cycle enumeration exceeded the partial-state cap."""


# --- all simple cycles ----------------------------------------------------


def naive_all_cycles(g: Graph) -> list[list[int]]:
    """Independent oracle: every simple cycle, found by brute-force
    Hamilton search inside each vertex subset.  Exponential; tiny graphs only.
    """
    out = []
    verts = g.vertices
    for r in range(3, len(verts) + 1):
        for sub in itertools.combinations(verts, r):
            subset = set(sub)
            start = sub[0]
            # Hamilton cycles of g[subset] through all of subset
            def extend(path: list[int], used: set[int]):
                u = path[-1]
                if len(path) == r:
                    if g.has_edge(u, start) and path[1] < path[-1]:
                        out.append(list(path))
                    return
                for w in sorted(g.adj[u] & subset):
                    if w not in used:
                        path.append(w)
                        used.add(w)
                        extend(path, used)
                        path.pop()
                        used.discard(w)

            extend([start], {start})
    return out


# --- all Hamilton cycles -------------------------------------------------


def enumerate_hamilton(g: Graph, cap: int = DEFAULT_ENUM_CAP) -> list[HamiltonCycle]:
    """All Hamilton cycles up to rotation and reflection, by exhaustive
    search with a partial-state budget."""
    vs = g.vertices
    if len(vs) < 3:
        return []
    start = vs[0]
    out: list[HamiltonCycle] = []
    states = 0
    path = [start]
    on_path = {start}

    def rec() -> None:
        nonlocal states
        states += 1
        if states > cap:
            raise CapExceeded(f"enumeration exceeded {cap} partial states")
        last = path[-1]
        if len(path) == len(vs):
            if g.has_edge(last, start) and path[1] < path[-1]:
                out.append(HamiltonCycle.of(path))
            return
        for nxt in sorted(g.adj[last]):
            if nxt not in on_path:
                path.append(nxt)
                on_path.add(nxt)
                rec()
                path.pop()
                on_path.remove(nxt)

    rec()
    return out


# --- brute-force properties of cubic plane graphs -------------------------


def _face_edge_lists(gstar: EmbeddedGraph) -> list[list[tuple[int, int]]]:
    return [
        [norm_edge(a, b) for (a, b) in walk] for walk in gstar.faces.faces
    ]


def check_h_plus_minus(gstar: EmbeddedGraph, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """For every two distinct edges on a common face: some Hamilton cycle
    passes through the first and avoids the second."""
    cycles = [h.edges for h in enumerate_hamilton(gstar.abstract(), cap)]
    for face in _face_edge_lists(gstar):
        for e1 in face:
            for e2 in face:
                if e1 == e2:
                    continue
                if not any(e1 in c and e2 not in c for c in cycles):
                    return False
    return True


def check_h_minus_minus(gstar: EmbeddedGraph, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """For every two edges an even distance apart on a common face: some
    Hamilton cycle avoids both."""
    cycles = [h.edges for h in enumerate_hamilton(gstar.abstract(), cap)]
    for face in _face_edge_lists(gstar):
        k = len(face)
        for i in range(k):
            for j in range(i + 1, k):
                if (j - i) % 2 != 0 and (k - (j - i)) % 2 != 0:
                    continue
                e1, e2 = face[i], face[j]
                if e1 == e2:
                    continue
                if not any(e1 not in c and e2 not in c for c in cycles):
                    return False
    return True


# --- catalog -------------------------------------------------------------


def load_catalog(lines: Iterable[str]) -> Iterator[EmbeddedGraph]:
    """Newline-delimited JSON graphs in the shared wire format."""
    for ln, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            yield EmbeddedGraph.from_json(line)
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise ParseError(f"catalog line {ln}: {exc}") from exc


def golden_two_squares() -> Graph:
    """Two squares joined by an edge and a length-3 path; the smallest
    handy member of the family with a genuine cut pair."""
    return Graph.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 0),
         (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (2, 8), (8, 9), (9, 6)]
    )
