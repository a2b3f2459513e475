"""Plane-embedded graphs given by rotation systems.

A graph lives on the sphere: no distinguished outer face.  The face-tracing
convention is fixed once and for all: the successor of the directed edge
(u, v) is (v, w) where w is the neighbour immediately after u in the
clockwise rotation at v.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .errors import (
    AsymmetricAdjacency,
    DegreeBelowFour,
    Disconnected,
    MultiEdgeOrLoop,
    NonPlanarEmbedding,
    NotEvenTriangulation,
)
from .ugraph import Graph

DirEdge = tuple[int, int]


@dataclass(frozen=True)
class FaceSet:
    """Faces as directed boundary walks; each directed edge lies on one face."""

    faces: tuple[tuple[DirEdge, ...], ...]
    face_of: Mapping[DirEdge, int]


@dataclass(frozen=True)
class EmbeddedGraph:
    """Immutable plane graph: vertex count plus clockwise neighbour cycles."""

    n: int
    rotation: tuple[tuple[int, ...], ...]

    @staticmethod
    def build(rotation: Sequence[Sequence[int]]) -> "EmbeddedGraph":
        """Validate a rotation system and return the embedded graph.

        Checks symmetry, simplicity, connectivity, and Euler's formula for
        the traced faces.
        """
        if not rotation:
            raise Disconnected("empty graph")
        n = len(rotation)
        rot = tuple(tuple(nb) for nb in rotation)
        for v, nb in enumerate(rot):
            if len(set(nb)) != len(nb) or v in nb:
                raise MultiEdgeOrLoop(f"vertex {v}: {nb}")
            for u in nb:
                if not 0 <= u < n:
                    raise AsymmetricAdjacency(f"vertex {v} lists unknown vertex {u}")
                if v not in rot[u]:
                    raise AsymmetricAdjacency(f"{v} lists {u} but not conversely")
        g = EmbeddedGraph(n, rot)
        if n > 1 and not g.abstract().is_connected():
            raise Disconnected("graph is not connected")
        f = len(g.faces.faces)
        if n - g.m + f != 2:
            raise NonPlanarEmbedding(
                f"Euler check failed: n={n} m={g.m} f={f}"
            )
        return g

    # --- basics ----------------------------------------------------------

    @cached_property
    def m(self) -> int:
        return sum(len(nb) for nb in self.rotation) // 2

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    def edges(self) -> list[tuple[int, int]]:
        return sorted(
            (v, u) if v < u else (u, v)
            for v in range(self.n)
            for u in self.rotation[v]
            if v < u
        )

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.rotation[u]

    def abstract(self) -> Graph:
        """Forget the embedding."""
        return Graph({v: set(nb) for v, nb in enumerate(self.rotation)})

    def next_cw(self, v: int, u: int) -> int:
        """Neighbour of v immediately after u in clockwise order."""
        nb = self.rotation[v]
        return nb[(nb.index(u) + 1) % len(nb)]

    # --- faces and dual --------------------------------------------------

    @cached_property
    def faces(self) -> FaceSet:
        return trace_faces(self)

    def mirror(self) -> "EmbeddedGraph":
        """Reflection: all rotations reversed."""
        return EmbeddedGraph(self.n, tuple(nb[::-1] for nb in self.rotation))

    # --- serialization ---------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "rotation": [list(nb) for nb in self.rotation]})

    @staticmethod
    def from_json(text: str) -> "EmbeddedGraph":
        data = json.loads(text)
        rotation = data.get("rotation") if isinstance(data, dict) else None
        if not isinstance(rotation, list) or not all(
            isinstance(nb, list) and all(type(u) is int for u in nb) for nb in rotation
        ):
            raise ValueError('expected an object whose "rotation" is a list of lists of ints')
        if data.get("n") != len(rotation):
            raise ValueError("n does not match rotation length")
        return EmbeddedGraph.build(rotation)


def trace_faces(g: EmbeddedGraph) -> FaceSet:
    """Assign every directed edge to its unique face walk."""
    face_of: dict[DirEdge, int] = {}
    faces: list[tuple[DirEdge, ...]] = []
    for v in range(g.n):
        for u in g.rotation[v]:
            start = (v, u)
            if start in face_of:
                continue
            walk = []
            e = start
            while True:
                walk.append(e)
                face_of[e] = len(faces)
                a, b = e
                e = (b, g.next_cw(b, a))
                if e == start:
                    break
            faces.append(tuple(walk))
    return FaceSet(tuple(faces), face_of)


@dataclass(frozen=True)
class DualGraph:
    """Dual embedded graph plus the edge bijection."""

    graph: EmbeddedGraph
    edge_map: Mapping[tuple[int, int], tuple[int, int]]   # primal edge -> dual edge


def dual(g: EmbeddedGraph) -> DualGraph:
    """Construct the dual: one vertex per face, adjacency across shared edges.

    The faces of the dual are not traced: the dual face that winds round
    a primal vertex v is bounded by the dual edges of v's edges, in v's
    rotation order, so a caller reads it off `edge_map` and g's rotation.

    The dual rotation at a face follows that face's boundary walk, so for
    a 3-connected g (a triangulation, or the dual of one) the result is a
    simple graph validly embedded on the sphere by construction and skips
    `EmbeddedGraph.build`'s checks; the tests keep them.  Other inputs
    give multiple edges, which a rotation system cannot represent.
    """
    fs = g.faces
    face_of = fs.face_of
    rotation = []
    edge_map = {}
    # one pass: each directed edge (a, b) of face f gives f's rotation
    # entry across it, and for a < b the edge's dual
    for f, walk in enumerate(fs.faces):
        row = []
        for a, b in walk:
            o = face_of[(b, a)]
            row.append(o)
            if a < b:
                edge_map[(a, b)] = (f, o) if f < o else (o, f)
        rotation.append(tuple(row))
    return DualGraph(graph=EmbeddedGraph(len(rotation), tuple(rotation)), edge_map=edge_map)


def is_even_triangulation(g: EmbeddedGraph) -> bool:
    """Every face a triangle, every degree even, simple, n >= 4."""
    if g.n < 4:
        return False
    if any(len(f) != 3 for f in g.faces.faces):
        return False
    return all(len(nb) % 2 == 0 for nb in g.rotation)


@dataclass(frozen=True)
class TriPartition:
    """Proper 3-colouring of an even triangulation (classes 1, 2, 3)."""

    class_of: tuple[int, ...]


def tri_partition(g: EmbeddedGraph) -> TriPartition:
    """Canonical 3-colouring: vertex 0 -> 1, its rotation-first neighbour -> 2.

    One breadth-first pass: v and each rotation-consecutive pair of its
    neighbours bound a face, so v's neighbours alternate between the other
    two classes, and the neighbour v was reached from fixes which is which.
    The colouring of an even triangulation is unique up to permutation, so
    an improper result means the input was not an even triangulation.
    """
    if not is_even_triangulation(g):
        raise NotEvenTriangulation("faces or degrees are wrong")
    cls = [0] * g.n
    cls[0] = 1
    first = g.rotation[0][0]
    cls[first] = 2
    entry = [0] * g.n   # a coloured neighbour of each queued vertex
    entry[0] = first
    queue = [0, first]
    for v in queue:     # grows while it is scanned
        nb = g.rotation[v]
        k = nb.index(entry[v])
        pair = (cls[entry[v]], 6 - cls[v] - cls[entry[v]])
        for i, u in enumerate(nb[k:] + nb[:k]):
            if not cls[u]:
                cls[u] = pair[i % 2]
                entry[u] = v
                queue.append(u)
            elif cls[u] != pair[i % 2]:
                # every rotation is scanned once, so this is the properness
                # check: each neighbour of v has one of the classes v lacks
                raise NotEvenTriangulation("improper 3-colouring")
    if any(c == 0 for c in cls):
        raise NotEvenTriangulation("3-colouring propagation incomplete")
    return TriPartition(tuple(cls))


@dataclass(frozen=True)
class BigSmall:
    """Degree >= 6 (big) versus degree == 4 (small), split by colour class."""

    big: frozenset[int]
    small: frozenset[int]
    b: tuple[frozenset[int], frozenset[int], frozenset[int]]
    s: tuple[frozenset[int], frozenset[int], frozenset[int]]

    def b_of(self, i: int) -> frozenset[int]:
        return self.b[i - 1]

    def s_of(self, i: int) -> frozenset[int]:
        return self.s[i - 1]


def classify_big_small(g: EmbeddedGraph, tp: TriPartition) -> BigSmall:
    """One pass over the classes: each vertex goes to big or small of its
    class by degree."""
    b: tuple[list[int], ...] = ([], [], [])
    s: tuple[list[int], ...] = ([], [], [])
    for v, c in enumerate(tp.class_of):
        d = len(g.rotation[v])
        if d < 4:
            raise DegreeBelowFour(f"vertex {v} has degree {d}")
        if d >= 6:
            b[c - 1].append(v)
        elif d == 4:
            s[c - 1].append(v)
    return BigSmall(frozenset(b[0] + b[1] + b[2]), frozenset(s[0] + s[1] + s[2]),
                    tuple(map(frozenset, b)), tuple(map(frozenset, s)))


# --- canonical forms -----------------------------------------------------


def canonical_form(g: EmbeddedGraph) -> tuple:
    """Label-independent code of the embedding, up to reflection.

    Minimum over all root directed edges and both orientations of a BFS
    relabelling code, found row by row (`_min_starts`).  Every code has n
    rows (the graph is connected) and codes compare row by row, so keeping
    only the starts whose row i is least, for i = 0, 1, ..., gives the same
    minimum as comparing whole codes.
    """
    return _min_starts(g.rotation)[0]


def automorphisms(g: EmbeddedGraph) -> list[tuple[int, ...]]:
    """Every automorphism of the embedding, reflections included, as a
    vertex map `s` with `s[x]` the image of x; the identity comes first.

    The starts that `_min_starts` keeps are exactly the automorphisms: an
    automorphism keeps degrees, so it maps a winning start to a minimum-
    degree start with the same code, and two starts with the same code
    label the rotations alike, so the map `order_s[pos_0[x]]` from the
    first survivor's labelling to survivor s's is one.  It is a reflection
    when s uses the other orientation.  On a path or a cycle both
    orientations of one root edge give the same labelling, so the maps
    are deduplicated.
    """
    return _automorphisms(_min_starts(g.rotation)[1])


def _automorphisms(orders: list[list[int]]) -> list[tuple[int, ...]]:
    """`automorphisms` from the BFS orders that `_min_starts` returns."""
    pos = [0] * len(orders[0])
    for j, x in enumerate(orders[0]):
        pos[x] = j
    return list(dict.fromkeys(tuple(order[p] for p in pos) for order in orders))


def _min_starts(rotation: Sequence[Sequence[int]]) -> tuple[tuple, list[list[int]]]:
    """The least BFS code and the BFS orders of the starts that give it.

    A start is a root of minimum degree, its first neighbour and an
    orientation: the code starts with the root's rotation tuple, and a
    shorter tuple sorts before any extension of it, so only minimum-degree
    roots can win.  Row i lists the labels of the i-th reached vertex's
    neighbours, starting from the one it was reached from; a label is fixed
    when its vertex is first reached, so row i is final once that vertex
    is scanned.  Row i of every surviving start is computed, and only the
    starts whose row i is least survive to row i + 1.
    """
    n = len(rotation)
    min_deg = min(len(nb) for nb in rotation)
    starts = []     # (rotation, label, entry, BFS order) per start
    for rot in (rotation, tuple(nb[::-1] for nb in rotation)):
        for v, nb in enumerate(rot):
            if len(nb) != min_deg:
                continue
            for u in nb:
                label = [-1] * n
                entry = [0] * n
                label[v], label[u] = 0, 1
                entry[v], entry[u] = u, v
                starts.append((rot, label, entry, [v, u]))
    code = []
    for i in range(n):
        best = None
        for s in starts:
            rot, label, entry, order = s
            v = order[i]    # the order grows while it is scanned: the BFS queue
            nb = rot[v]
            k = nb.index(entry[v])
            row = []
            for w in nb[k:] + nb[:k]:
                if label[w] < 0:
                    label[w] = len(order)
                    entry[w] = v
                    order.append(w)
                row.append(label[w])
            if best is None or row < best:
                best = row
                keep = [s]
            elif row == best:
                keep.append(s)
        starts = keep
        code.append(tuple(best))
    return tuple(code), [s[3] for s in starts]
