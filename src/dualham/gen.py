"""Instance generators.

Bipyramids, exhaustive small even triangulations (vertex splitting with
McKay's canonical augmentation: most splits are decided from the parent's
degrees with no child built, a split child gets a canonical form only
when its new edge passes a degree-sum test, and each class comes out once,
canonically labelled), random members of the mod-4 cycle family via a
sound gluing grammar, and filtered even triangulations whose big-vertex
graph H = G[B1 u B3] + G[B2 u B3] lies in that family.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

from .embed import (
    EmbeddedGraph,
    TriPartition,
    _automorphisms,
    _min_starts,
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

# `gen_triangulations` returns every class on n vertices, about 9 KB each
# (max RSS rose 66 MB for the 7,595 at n = 12).  A000109 gives about 2.4 M
# classes at n = 15 and 17.5 M at n = 16, some 21 GB and 150 GB, so there
# the limit guards memory.  `gen_even_triangulations` prunes every subtree
# with no even class and builds only even children at the last level: it
# takes about 0.2 s at n = 13 and 0.7 s at n = 14.  For it the limit marks
# the last size with a frozen catalog to check against.
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
    """All plane triangulations on n vertices, one per isomorphism class,
    each canonically labelled, in increasing order of rotation.

    Depth-first canonical augmentation (McKay, *Isomorph-free exhaustive
    generation*, J. Algorithms 26, 1998) by vertex splitting from the
    tetrahedron.  Counts for n = 4..12 match the simplicial polyhedron
    numbers 1, 1, 2, 5, 14, 50, 233, 1249, 7595 (OEIS A000109).  It rests
    on three lemmas:

    - every plane triangulation with n >= 5 has a contractible edge, one
      whose ends have exactly two common neighbours (it lies on no
      separating triangle), and contracting it leaves a plane
      triangulation on n - 1 vertices;
    - a split child h of g has its new edge e = (v, g.n) contractible,
      and contracting e gives back g;
    - McKay's rule keeps each class exactly once.  `_canonical_reduction`
      accepts h iff e lies in the Aut(h)-orbit of h's canonical reduction
      edge, a contractible edge of least degree sum whose orbit depends
      only on h's class.  Every class with n >= 5 is reached: contract
      that edge, take the parent's kept representative, and the split of
      the matching orbit is accepted.  None is reached twice: an
      isomorphism between two accepted children can be chosen to carry
      one new edge onto the other, so it induces an automorphism of one
      kept parent that carries one split onto the other.

    One split per automorphism orbit: a split of v is named by v and the
    unordered pair {a, b} of the two neighbours it shares with the new
    vertex.  An automorphism of the parent, reflections included, maps
    split(v, {a, b}) to split(σv, {σa, σb}) up to reflection, and the
    acceptance rule is invariant under both, so a split that is the image
    of one already tried on this parent is skipped.

    Most of the remaining splits are decided from the parent, with no
    child built (`_lower_sum_test`).  The new edge of a split of v has
    degree sum deg v + 4.  A contractible edge xy of the parent that
    misses v and both shared neighbours keeps its ends' degrees and stays
    contractible in the child, so if deg x + deg y < deg v + 4 the child
    has a contractible edge of lower degree sum than its new edge, and
    `_canonical_reduction` would reject it by its lower-sum shortcut.  At
    n = 10 this leaves 524 of the 3,212 splits to build.

    A parent is the split child itself, unvalidated (`split_vertex`).  An
    output is built once, from its code: the code is a rotation system
    with each vertex named by its BFS label, so `EmbeddedGraph.build`
    validates it and `canonical_form` maps it to itself.  Sorting by code
    makes the list depend on n alone, not on the route that reached each
    class.
    """
    return [EmbeddedGraph.build(code) for code in sorted(_triangulation_codes(n))]


def _triangulation_codes(n: int, *, even_only: bool = False) -> Iterator[tuple]:
    """The canonical code of each class on n vertices, in the order the
    depth-first search of `gen_triangulations` reaches them.  With
    `even_only`, a child with more than two odd-degree vertices per level
    left below it is not built (`_odd_after_split`), so the codes are
    those of the even classes."""
    if not 4 <= n <= MAX_TRI_N:
        raise SizeOutOfRange(f"n must be in [4, {MAX_TRI_N}], got {n}")
    tetrahedron = EmbeddedGraph.build(TETRAHEDRON)
    # depth first: each entry is a kept graph with its `_min_starts`
    stack = [(tetrahedron, _min_starts(tetrahedron.rotation))]
    while stack:
        g, (code, orders) = stack.pop()
        if g.n == n:
            yield code
            continue
        odd = sum(len(nb) % 2 for nb in g.rotation)
        most_odd = 2 * (n - g.n - 1)    # for a child, when even_only
        autos = _automorphisms(orders)
        rejects = _lower_sum_test(g)
        tried: set[tuple[int, int, int]] = set()    # (v, a, b) with a < b
        for v, nb in enumerate(g.rotation):
            deg = len(nb)
            # (i, j) and (j, i) swap the two halves, giving isomorphic
            # results, so ordered pairs would double the work
            for i in range(deg):
                for j in range(i + 1, deg):
                    if even_only and _odd_after_split(g, odd, v, i, j) > most_odd:
                        continue
                    a, b = nb[i], nb[j]
                    if ((v, a, b) if a < b else (v, b, a)) in tried:
                        continue
                    for s in autos:
                        x, y = s[a], s[b]
                        tried.add((s[v], x, y) if x < y else (s[v], y, x))
                    if rejects(v, a, b):
                        continue
                    h = split_vertex(g, v, i, j)
                    starts = _canonical_reduction(h, v)
                    if starts is not None:
                        stack.append((h, starts))


def _lower_sum_test(g: EmbeddedGraph) -> Callable[[int, int, int], bool]:
    """A test on the parent g that drops splits `_canonical_reduction`
    would reject by its lower-sum shortcut, before `split_vertex` runs:
    `rejects(v, a, b)` for the split of v whose shared neighbours are a
    and b.

    It rejects when g has a contractible edge xy with x, y not in
    {v, a, b} and deg x + deg y < deg v + 4.  Lemma: the child's new edge
    has degree sum deg v + 4 for every split of v (its ends get j - i + 2
    and deg v - (j - i) + 2 neighbours), and the child keeps xy
    contractible with its degree sum.  Only v, a and b change degree.  A
    common neighbour z of x and y in the child maps to one in g, z itself
    or v when z is v or the new vertex, and the map is one-to-one, since
    x is adjacent to at most one of v and the new vertex (only a and b
    see both).  So xy has at most two common neighbours in the child, and
    as an edge of a triangulation it has at least two.
    """
    rot = g.rotation
    around = [set(nb) for nb in rot]
    lower = sorted((len(nb) + len(rot[y]), x, y) for x, nb in enumerate(rot)
                   for y in nb if y > x and len(around[x] & around[y]) == 2)

    def rejects(v: int, a: int, b: int) -> bool:
        least = len(rot[v]) + 4
        for total, x, y in lower:
            if total >= least:
                return False
            if x != v and x != a and x != b and y != v and y != a and y != b:
                return True
        return False

    return rejects


def _odd_after_split(g: EmbeddedGraph, odd: int, v: int, i: int, j: int) -> int:
    """The number of odd-degree vertices of `split_vertex(g, v, i, j)`, from
    g and its own number `odd`, with no child built.

    Lemma: only v, a = rotation[v][i] and b = rotation[v][j] change
    degree.  a and b gain one each, so each flips parity.  v's degree k
    becomes j - i + 2, and the new vertex gets k - (j - i) + 2.  For odd k
    exactly one of the two is odd, as v was; for even k both are odd iff
    j - i is odd.  So the count is odd + 2 - 2[a odd] - 2[b odd]
    + 2[k even and j - i odd].
    """
    rot = g.rotation
    nb = rot[v]
    k = len(nb)
    return (odd + 2 - 2 * (len(rot[nb[i]]) % 2) - 2 * (len(rot[nb[j]]) % 2)
            + (2 if k % 2 == 0 and (j - i) % 2 else 0))


def _canonical_reduction(
    h: EmbeddedGraph, v: int
) -> tuple[tuple, list[list[int]]] | None:
    """McKay's acceptance test for the split child h with new edge
    e = (v, h.n - 1): h's `_min_starts` (code and automorphism orders) if
    e lies in the Aut(h)-orbit of h's canonical reduction edge, else None.

    The reduction edge is, among the contractible edges of least degree
    sum, the one whose canonical labels are least.  Two shortcuts avoid
    the canonical form: a contractible edge of lower degree sum than e
    rejects h at once, and e alone at its degree sum is accepted.  Only
    ties need the labels; each surviving start of `_min_starts` labels h
    by an automorphism of the first one's labelling, so e is in the
    reduction edge's orbit iff some start gives e the reduction edge's
    labels.
    """
    rot = h.rotation
    new = h.n - 1
    least = len(rot[v]) + len(rot[new])
    tied = []
    for x, nb in enumerate(rot):
        dx = len(nb)
        around = None
        for y in nb:
            if y > x and dx + len(rot[y]) <= least:
                if around is None:
                    around = set(nb)
                if len(around.intersection(rot[y])) == 2:
                    if dx + len(rot[y]) < least:
                        return None
                    tied.append((x, y))
    starts = _min_starts(rot)
    if len(tied) == 1:
        return starts
    orders = starts[1]
    label = [0] * h.n
    for i, x in enumerate(orders[0]):
        label[x] = i
    first = min(sorted((label[x], label[y])) for x, y in tied)
    for order in orders:
        if sorted((order.index(v), order.index(new))) == first:
            return starts
    return None


def gen_even_triangulations(n: int) -> Iterator[EmbeddedGraph]:
    """The even ones of `gen_triangulations(n)`, in its order.

    The search of `gen_triangulations`, with every subtree that holds no
    even class left out.  A split changes the number of odd-degree
    vertices by + 2 - 2[a odd] - 2[b odd] + 2[deg v even and j - i odd]
    (`_odd_after_split`), so by at least -2.  An even class on n vertices
    is reached through its canonical parents, so the one on m vertices has
    at most 2(n - m) odd-degree vertices, and a child with more is never
    built.  At the last level the bound is 0: the child is even iff the
    parent's odd-degree vertices are exactly a and b, deg v is even and
    j - i is even, so only even children are built and canonicalised.
    The lower-sum test of `gen_triangulations` applies as well.

    Each row of a code is one vertex's rotation, so only the codes whose
    rows all have even length are kept and built, an output check that
    the search already ensures: no other class is held.
    """
    codes = [c for c in _triangulation_codes(n, even_only=True)
             if all(len(row) % 2 == 0 for row in c)]
    for code in sorted(codes):
        yield EmbeddedGraph.build(code)


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
    are allowed, e.g. bipyramid poles).

    One `blocks()` call decides it.  Lemma: a component on 2 vertices is
    a 2-vertex block, and a connected graph on >= 3 vertices is
    2-connected iff it has no cut vertex, and then it is one block of
    >= 3 vertices.  So every multi-vertex component is 2-connected iff H
    has no cut vertex and no 2-vertex block.
    """
    blocks, cuts = h.blocks()
    return not cuts and all(len(block) != 2 for block in blocks)


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
