"""Instance generators.

Bipyramids, exhaustive small even triangulations (vertex splitting; each
candidate is deduplicated by canonical form first, and only the ones kept
are validated), random members of the mod-4 cycle family via a sound
gluing grammar, and filtered even triangulations whose big-vertex graph
H = G[B1 u B3] + G[B2 u B3] lies in that family.
"""

from __future__ import annotations

import random
from typing import Iterator

from .embed import (
    EmbeddedGraph,
    TriPartition,
    automorphisms,
    canonical_form,
    classify_big_small,
    is_even_triangulation,
    tri_partition,
)
from .errors import (
    NoneFound,
    NotEvenTriangulation,
    NotInFamilyH,
    NotTriangulation,
    SizeOutOfRange,
    SizeTooSmall,
)
from .structure import is_multi4
from .ugraph import Graph

# Generation holds every class of the level it builds, about 11 KB each
# (max RSS rose 84 MB for the 7,595 at n = 12).  A000109 gives about 2.4 M
# classes at n = 15 and 17.5 M at n = 16, some 26 GB and 190 GB, so those
# sizes would run out of memory instead of ending in an exit code.
MAX_TRI_N = 14


def gen_bipyramid(l: int) -> EmbeddedGraph:
    """The join of a 2l-cycle with two poles: an even triangulation where
    both poles see the whole equator."""
    if l < 2:
        raise SizeTooSmall(f"bipyramid needs l >= 2, got {l}")
    k = 2 * l
    a1, a2 = k, k + 1
    rot: list[list[int]] = []
    for i in range(k):
        rot.append([(i + 1) % k, a1, (i - 1) % k, a2])
    rot.append(list(range(k)))          # pole 1
    rot.append(list(range(k))[::-1])    # pole 2, opposite orientation
    g = EmbeddedGraph.build(rot)
    if not is_even_triangulation(g):
        raise NotEvenTriangulation(f"bipyramid with l={l} is not an even triangulation")
    return g


# --- exhaustive triangulations -------------------------------------------

TETRAHEDRON = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))


def split_vertex(g: EmbeddedGraph, v: int, i: int, j: int) -> EmbeddedGraph:
    """Split v along rotation positions i..j; inverse of edge contraction.

    The new vertex takes the neighbours from position j round to position i
    (both shared), plus v itself; two new triangles appear at the shared
    neighbours.

    The result is returned unvalidated.  That is safe for a plane
    triangulation g and two distinct positions: contracting the edge
    between v and the new vertex gives back g, so the split is a plane
    triangulation on n + 1 vertices.  If a face at v is not a triangle,
    the mate check raises NotTriangulation.
    """
    rot = [list(nb) for nb in g.rotation]
    nb_v = rot[v]
    k = len(nb_v)
    if i % k == j % k:
        raise ValueError("segments must both have length >= 1")
    seg1 = [nb_v[(i + t) % k] for t in range((j - i) % k + 1)]
    seg2 = [nb_v[(j + t) % k] for t in range((i - j) % k + 1)]
    new = g.n
    a, b = nb_v[i % k], nb_v[j % k]
    before_a = nb_v[(i - 1) % k]   # neighbour on the far-segment side of a
    after_b = nb_v[(j + 1) % k]    # neighbour on the far-segment side of b
    rot[v] = seg1 + [new]
    rot.append(seg2 + [v])
    for w in seg2[1:-1]:
        rot[w][rot[w].index(v)] = new
    for w, mate in ((a, before_a), (b, after_b)):
        nb = rot[w]
        pos = nb.index(v)
        if nb[(pos + 1) % len(nb)] == mate:
            nb.insert(pos + 1, new)
        elif nb[(pos - 1) % len(nb)] == mate:
            nb.insert(pos, new)
        else:
            raise NotTriangulation(f"no triangular face {v}-{w}-{mate}")
    return EmbeddedGraph(new + 1, tuple(tuple(nb) for nb in rot))


def gen_triangulations(n: int) -> list[EmbeddedGraph]:
    """All plane triangulations on n vertices, one per isomorphism class.

    Expansion by vertex splitting from the tetrahedron; every simple plane
    triangulation with more than four vertices contracts some edge, so the
    closure is complete.  Counts for n = 4..12 match the simplicial
    polyhedron numbers 1, 1, 2, 5, 14, 50, 233, 1249, 7595 (OEIS A000109).

    One split per automorphism orbit: a split of v is named by v and the
    unordered pair {a, b} of the two neighbours it shares with the new
    vertex.  An automorphism σ of the parent maps split(v, {a, b}) to
    split(σv, {σa, σb}), up to reflection, and `canonical_form` identifies
    reflections, so a split that is the image of one already tried on
    this parent would only copy an earlier candidate.  It is skipped.  The
    first candidate of each class is never such a copy, so the kept list,
    its order and its rotations are those of trying every split.

    Deduplicate, then validate: a candidate is built with
    `EmbeddedGraph.build` only when its canonical form is new, and that
    validated graph is the one kept.  A discarded candidate needs no
    check: it is connected, and its BFS code lists every vertex's
    rotation, so an equal code means an embedding isomorphic to one
    already validated.
    """
    if not 4 <= n <= MAX_TRI_N:
        raise SizeOutOfRange(f"n must be in [4, {MAX_TRI_N}], got {n}")
    level = [EmbeddedGraph.build(TETRAHEDRON)]
    for _ in range(n - 4):
        seen: set[tuple] = set()
        nxt: list[EmbeddedGraph] = []
        for g in level:
            autos = automorphisms(g)
            tried: set[tuple[int, int, int]] = set()    # (v, a, b) with a < b
            for v, nb in enumerate(g.rotation):
                deg = len(nb)
                # (i, j) and (j, i) swap the two halves, giving isomorphic
                # results, so ordered pairs would double the work
                for i in range(deg):
                    for j in range(i + 1, deg):
                        a, b = nb[i], nb[j]
                        if ((v, a, b) if a < b else (v, b, a)) in tried:
                            continue
                        for s in autos:
                            x, y = s[a], s[b]
                            tried.add((s[v], x, y) if x < y else (s[v], y, x))
                        h = split_vertex(g, v, i, j)
                        code = canonical_form(h)
                        if code not in seen:
                            seen.add(code)
                            nxt.append(EmbeddedGraph.build(h.rotation))
        level = nxt
    return level


def gen_even_triangulations(n: int) -> Iterator[EmbeddedGraph]:
    """All even plane triangulations on n vertices, up to isomorphism."""
    if not 4 <= n <= MAX_TRI_N:
        raise SizeOutOfRange(f"n must be in [4, {MAX_TRI_N}], got {n}")
    for g in gen_triangulations(n):
        if is_even_triangulation(g):
            yield g


# --- members of the mod-4 cycle family -----------------------------------


def gen_multi4(size: int, seed: int) -> Graph:
    """Random graph whose cycles all have length 0 mod 4.

    Grows by gluing 4k-cycles at single vertices, hanging pendant paths,
    and adding parallel paths; each step is verified and rolled back if it
    breaks the invariant, so the result is always certified.  It has at
    most `size` vertices, so `size` must be at least 4, the smallest
    cycle.
    """
    if size < 4:
        raise SizeTooSmall(f"size must be >= 4, got {size}")
    if size > 40:
        raise SizeOutOfRange(f"size must be <= 40, got {size}")
    rng = random.Random(seed)
    k0 = rng.choice([1, 1, 2]) if size >= 8 else 1
    g = Graph.from_edges([(i, (i + 1) % (4 * k0)) for i in range(4 * k0)])
    fresh = g.n
    attempts = 0
    while g.n < size and attempts < 60:
        attempts += 1
        op = rng.choice(["cycle", "pendant", "parallel"])
        old = g
        if op == "cycle":
            length = 4 * rng.choice([1, 1, 2])
            if g.n + length - 1 > size:
                continue
            at = rng.choice(g.vertices)
            cyc = [at] + [fresh + t for t in range(length - 1)]
            g = g.union(Graph.from_edges(
                [(cyc[t], cyc[(t + 1) % length]) for t in range(length)]))
            fresh += length - 1
        elif op == "pendant":
            length = rng.randint(1, 3)
            if g.n + length > size:
                continue
            at = rng.choice(g.vertices)
            path = [at] + [fresh + t for t in range(length)]
            g = g.union(Graph.from_edges(list(zip(path, path[1:]))))
            fresh += length
        else:
            length = rng.choice([3, 4, 5])
            if g.n + length - 1 > size:
                continue
            u, v = rng.sample(g.vertices, 2)
            path = [u] + [fresh + t for t in range(length - 1)] + [v]
            g = g.union(Graph.from_edges(list(zip(path, path[1:]))))
            if not is_multi4(g):
                g = old
                continue
            fresh += length - 1
    if not is_multi4(g):
        raise NotInFamilyH(f"seed {seed} grew a cycle of length not 0 mod 4")
    return g


# --- constrained even triangulations -------------------------------------


def big_vertex_graph(
    g: EmbeddedGraph, *, tp: TriPartition | None = None
) -> tuple[Graph, "object"]:
    """H = G[B1 u B3] + G[B2 u B3]: big vertices, minus class-1-to-class-2
    edges.  Returns (H, big/small classification).  `tp` is the caller's
    3-colouring of g, if it has one."""
    if tp is None:
        tp = tri_partition(g)
    bs = classify_big_small(g, tp)
    cls = tp.class_of
    adj: dict[int, set[int]] = {v: set() for v in set(bs.big)}
    # each edge u < v once, in sorted order, so every adjacency set is
    # filled in ascending order and iterates as it always has; adjacent
    # classes differ, so only a class-1-to-class-2 edge has class sum 3
    for u in sorted(adj):
        for v in sorted(g.rotation[u]):
            if v > u and v in adj and cls[u] + cls[v] != 3:
                adj[u].add(v)
                adj[v].add(u)
    return Graph(adj), bs


def h_components_2connected(h: Graph) -> bool:
    """Every multi-vertex component of H is 2-connected (single vertices
    are allowed, e.g. bipyramid poles)."""
    for comp in h.components():
        if len(comp) == 2:
            return False
        if len(comp) >= 3 and not h.subgraph(comp).is_biconnected():
            return False
    return True


def meets_h_hypothesis(h: Graph) -> bool:
    """H in the mod-4 family with every multi-vertex component 2-connected."""
    return is_multi4(h) and h_components_2connected(h)


def gen_thm24_instances(n: int, seed: int = 0) -> list[EmbeddedGraph]:
    """Even triangulations on n vertices whose big-vertex graph meets the
    hypothesis.  Raises NoneFound when the exhaustive filter comes up empty.
    """
    rng = random.Random(seed)
    out = []
    for g in gen_even_triangulations(n):
        h, _ = big_vertex_graph(g)
        if meets_h_hypothesis(h):
            out.append(g)
    if not out:
        raise NoneFound(f"no instance on {n} vertices meets the hypothesis")
    rng.shuffle(out)
    return out
