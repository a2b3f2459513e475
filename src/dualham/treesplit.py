"""Splitting an even triangulation's vertices into two induced trees.

The pipeline: colour the big class-3 vertices with the monochromatic-
cycle-free colouring, extend it over the fans of small vertices (the case
machines below), seed the two sides, and finish with a complete search
for the free vertices.  The search is one loop over a trail of
placements, so no recursion limit bounds the instance size; on the
seeds the pipelines give it, it has not yet had to take a placement back.

Terminology used throughout: classes 1/2/3 come from the canonical proper
3-colouring; big means degree >= 6, small means degree 4; H is the graph
on big vertices with the class-1-to-class-2 edges removed; a fan path has
big ends, small inner vertices, and exactly two "pole" vertices adjacent
to all of it.

The fan-path lemma, which leaves the case rules below no other branches.
In the proper 3-colouring of an even triangulation:
- both poles of a fan path are adjacent to two consecutive path
  vertices, so they share the third class;
- the path vertices alternate between the other two classes;
- every vertex has even degree >= 4, so each end (not small) is big.
So the class-3 corners of a fan's 4-cycle (its poles and ends) are the
two poles, or else the ends of class 3, if any; two class-3 corners are
always opposite; and only a pole can be small.

The pole lemma, which fixes the with-edge pipeline's fan path.  Let v be
big and w a small neighbour of v, whose rotation is (v, a, v', b), in an
even triangulation that is not a bipyramid.  Walk from w through a, and
through b: at each small vertex the next vertex is the next one in v's
rotation, and it is adjacent to v' too (the faces of a degree-4 vertex).
The walks stop at distinct big vertices: if they met at one vertex e, its
only neighbours would be v, v' and the two run ends, so e would be small;
if no big vertex were met, G would be a bipyramid.  So the small run of
v's rotation through w, closed by its two big neighbours, is a fan path
with poles {v, v'}, and the only one through w with v as a pole: the
other one through w, along (v, w, v'), has v on it.

The run lemma, which lets `fan_paths` read the family off the rotations.
In a triangulation (any degrees), a fan path e0, u1, ..., uk, e1 with
poles p, p' is exactly a maximal run u1, ..., uk of small vertices in
p's rotation, closed by its two neighbours in that rotation, distinct
and not small, at least one of them big; and p' is the fourth neighbour
of u1, opposite p in u1's rotation.  Proof.  Each ui has degree 4, with
neighbours prev, p, next and p' (the path is induced bar the end chord,
and p, p' are off it), and consecutive entries of ui's rotation are
adjacent.  If prev and next were consecutive there, they would be
adjacent: a chord, or for k = 1 the end chord, where then e0, e1, p, p'
would be pairwise adjacent and with u1 make a K5.  So prev, next are
opposite in ui's rotation, and p's two rotation neighbours of ui (the
third corners of the faces on the edge p-ui) are prev and next: the path
is consecutive in p's rotation.  Conversely, given such a run, ui's
rotation is (prev, p, next, qi) up to direction, and the face on the
edge ui-u(i+1) other than p's has third corner qi and q(i+1), so all qi
are one vertex p', adjacent to e0 and e1, off the path (it is a fourth
neighbour of u1 and of uk), and ui has no neighbour on the path beyond
prev and next: an induced path (bar the end chord) with poles p, p'.

The opposite-corner lemma, which leaves the face-sparse dispatch no mixed
case.  Let H be 2-connected with every cycle of length 0 mod 4, and
v-x-y-z a 4-cycle of H with y of degree 2 and t a third neighbour of v.
A shortest path from t to {x, y, z} in the connected H - v ends at x or
z (y's only neighbours); say x, at length L from v through t.  With v it
closes cycles of lengths L + 1 (via the edge xv) and L + 3 (via y and
z), not both 0 mod 4.  So opposite corners both branch or both have
degree 2.  The pole-pair and end-pair cases put their corners on a
4-cycle of H: two big class-3 poles and the ends, or two class-3 ends
and the poles, big on a path of `families_R`'s first family.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .colorizer import color_beta, color_beta_4cycle, combine, mono_cycle
from .embed import BigSmall, EmbeddedGraph, TriPartition, tri_partition
from .errors import (
    BadEdge,
    BudgetExceeded,
    CaseUnmatched,
    ConditionViolated,
    ConstraintInvalid,
    HComponentNot2Connected,
    NotInFamilyH,
    NotTreePartition,
    SearchExhausted,
)
from .gen import big_vertex_graph, h_components_2connected
from .structure import TypedBipartition, is_multi4
from .ugraph import Graph


# --- domain types --------------------------------------------------------


@dataclass(frozen=True)
class FanPath:
    """Path with big ends and small inner vertices, plus its two poles."""

    path: tuple[int, ...]
    v0: frozenset[int]   # the two vertices adjacent to every path vertex
    v1: frozenset[int]   # the two ends

    @property
    def interior(self) -> tuple[int, ...]:
        return self.path[1:-1]


@dataclass(frozen=True)
class PartitionConstraint:
    """Seed sets for the two tree sides."""

    x: frozenset[int]
    y: frozenset[int]


@dataclass(frozen=True)
class TreePartition:
    s: frozenset[int]
    t: frozenset[int]


def verify_tree_partition(
    g: Graph, p: TreePartition, x: Iterable[int] = (), y: Iterable[int] = ()
) -> bool:
    """Independent check: disjoint cover, both sides induce trees, seeds held."""
    if p.s & p.t or (p.s | p.t) != set(g.adj):
        return False
    if not (set(x) <= p.s and set(y) <= p.t):
        return False
    return g.subgraph(p.s).is_tree() and g.subgraph(p.t).is_tree()


# --- bipyramids ----------------------------------------------------------


def bipyramid_poles(g: EmbeddedGraph) -> tuple[int, int] | None:
    """The two poles if the triangulation g is a cycle joined with two
    extra vertices.

    A pole sees every vertex but the other pole, so only vertices of
    degree n - 2 qualify; a triangulation has at most six (2m = 6n - 12).
    Two non-adjacent ones see all the rest, with 2n - 4 edges, and leave
    n - 2 edges on the other n - 2 vertices: exactly either one's link
    cycle, so the rest is a single ring.  The smallest such pair is
    returned.
    """
    if g.n < 6 or g.n % 2 != 0:
        return None
    hubs = [v for v in range(g.n) if g.degree(v) == g.n - 2]
    return next(
        ((p, q) for p, q in itertools.combinations(hubs, 2) if not g.has_edge(p, q)),
        None,
    )


# --- fan paths -----------------------------------------------------------


def fan_paths(g: EmbeddedGraph, bs: BigSmall) -> list[FanPath]:
    """All fan paths; `CaseUnmatched` if a small vertex is inside none.

    One scan of each rotation, by the run lemma: every maximal run of
    small vertices in a vertex p's rotation, closed by two distinct
    non-small ends of which at least one is big, is a fan path with p as
    a pole, and its other pole is opposite p in the rotation of its first
    inner vertex.  Each path is built from its smaller pole only.  The
    lemma holds in any triangulation, so no bipyramid test is needed: on
    a 2l-ring with l >= 3, each ring vertex is a run of one closed by the
    two big poles, and the octahedron (no big vertex) raises.
    """
    rot = g.rotation
    small, big = bs.small, bs.big
    found: list[FanPath] = []
    for p, nb in enumerate(rot):
        # read the rotation from a non-small entry, so that every run is closed
        for start, e0 in enumerate(nb):
            if e0 not in small:
                break
        else:
            continue
        run: list[int] = []
        for e1 in nb[start + 1:] + nb[:start + 1]:
            if e1 in small:
                run.append(e1)
                continue
            if run and e0 != e1 and (e0 in big or e1 in big):
                rw = rot[run[0]]
                q = rw[(rw.index(p) + 2) % 4]
                if p < q:
                    path = (e0, *run, e1) if e0 < e1 else (e1, *run[::-1], e0)
                    found.append(FanPath(path, frozenset((p, q)), frozenset((e0, e1))))
            e0, run = e1, []
    missing = small - {u for fp in found for u in fp.interior}
    if missing:
        raise CaseUnmatched(f"small vertices {sorted(missing)} lie on no fan path")
    return sorted(found, key=lambda fp: fp.path)


def families_R(
    bs: BigSmall, paths: Sequence[FanPath]
) -> tuple[list[FanPath], list[FanPath]]:
    """The two constrained subfamilies feeding the extension sequence:
    poles all big with a big class-3 vertex somewhere on the fan, or poles
    split between a big and a small class-3 vertex."""
    b3 = bs.b_of(3)
    s3 = bs.s_of(3)
    r: list[FanPath] = []
    r_hat: list[FanPath] = []
    for fp in paths:
        if fp.v0 <= bs.big:
            if (fp.v0 | fp.v1) & b3:
                r.append(fp)
        elif fp.v0 & b3 and fp.v0 & s3:
            r_hat.append(fp)
    return r, r_hat


# --- one analysis per pipeline call --------------------------------------


@dataclass(frozen=True)
class Instance:
    """What the pipelines derive from the triangulation g alone.  Built
    once per instance by `analyse` and passed to the pipelines and the
    solver in place of g, which it carries, so that no call can pair an
    analysis with a different graph."""

    g: EmbeddedGraph
    ab: Graph
    tp: TriPartition
    bs: BigSmall
    h: Graph
    a: Mapping[int, int]         # big class 1 -> colour 1, big class 2 -> 2
    poles: tuple[int, int] | None
    paths: tuple[FanPath, ...]   # empty for a bipyramid

    @cached_property
    def in_family(self) -> bool:
        """Whether every cycle of H has length 0 mod 4; run on first use."""
        return is_multi4(self.h)


def analyse(g: EmbeddedGraph) -> Instance:
    """The pipelines' record of g; build it once per triangulation."""
    tp = tri_partition(g)
    h, bs = big_vertex_graph(g, tp=tp)
    a = {**dict.fromkeys(bs.b_of(1), 1), **dict.fromkeys(bs.b_of(2), 2)}
    poles = bipyramid_poles(g)
    paths = () if poles is not None else tuple(fan_paths(g, bs))
    return Instance(g, g.abstract(), tp, bs, h, a, poles, paths)


def _seeds(an: Instance, b: Mapping[int, int]) -> PartitionConstraint:
    """Big class 1 and b's colour-1 vertices seed the first side, big
    class 2 and b's colour-2 vertices the second."""
    x, y = ({u for u, c in b.items() if c == colour} for colour in (1, 2))
    return PartitionConstraint(
        frozenset(an.bs.b_of(1) | x), frozenset(an.bs.b_of(2) | y)
    )


# --- the tree-partition solver -------------------------------------------


class _Forest:
    """Union-find over one side's vertices with an undo trail.

    Union by size keeps every tree O(log n) deep; there is no path
    compression, so undoing a union only unlinks one root."""

    __slots__ = ("parent", "size", "trail")

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}   # keys: exactly the side's members
        self.size: dict[int, int] = {}     # tree size, kept current at roots
        self.trail: list[tuple[int, int]] = []

    def find(self, v: int) -> int:
        p = self.parent
        while p[v] != v:
            v = p[v]
        return v

    def add(self, v: int, assigned_neighbors: Iterable[int]) -> int | None:
        """Join v with its same-side neighbours; None if a cycle closes.
        Returns the number of trail entries to undo on rollback."""
        mark = len(self.trail)
        parent, size, trail = self.parent, self.size, self.trail
        trail.append((v, -1))  # membership marker
        parent[v] = v
        size[v] = 1
        for w in assigned_neighbors:
            rv, rw = self.find(v), self.find(w)
            if rv == rw:
                self.undo(mark)
                return None
            if size[rv] > size[rw]:
                rv, rw = rw, rv
            trail.append((rv, rw))   # rv hung below rw
            parent[rv] = rw
            size[rw] += size[rv]
        return mark

    def undo(self, mark: int) -> None:
        parent, size, trail = self.parent, self.size, self.trail
        while len(trail) > mark:
            v, root = trail.pop()
            if root == -1:
                del parent[v], size[v]
            else:
                parent[v] = v
                size[root] -= size[v]


def tree_partition_solve(
    an: Instance, c: PartitionConstraint, *, enforce_path_condition: bool = True
) -> TreePartition:
    """Complete depth-first search for a two-tree partition extending the
    seeds.  On valid inputs a solution exists; running out of search space
    is surfaced as a hard failure, never papered over.

    One loop over a trail of placements, so no recursion limit applies:
    the next vertex has the most assigned neighbours (ties to the
    smallest), side 0 is tried first, and a vertex refused on both sides
    pops the trail and moves the popped vertex to its next side.

    The next vertex is the top of a heap keyed by (-assigned neighbours,
    vertex) with lazy deletion: a placement or its undo pushes each free
    neighbour under its new count, an undo pushes the freed vertex, and an
    entry whose vertex is placed or whose count is stale is dropped when
    it reaches the top.  Each side's forest is a union-find with union by
    size, so a cycle test walks O(log n) parents.

    A full assignment needs no connectivity test.  In a plane triangulation
    two forest sides are two trees: no face lies inside one side, so each
    of the 2n - 4 faces has two of its edges across, 2n - 4 edges cross,
    and the n - 2 edges left make forests on n vertices with exactly two
    components, one per side.
    """
    ab, n = an.ab, an.g.n
    _validate_constraint(an, c, enforce_path_condition)
    adj = ab.adj
    sides = [_Forest(), _Forest()]
    side_of = [-1] * n            # -1 while free
    # assigned neighbours per vertex, kept in step with `side_of`
    placed_nbrs = [0] * n

    def place(v: int, side: int) -> int | None:
        mark = sides[side].add(v, [w for w in adj[v] if side_of[w] == side])
        if mark is None:
            return None
        side_of[v] = side
        for w in adj[v]:
            placed_nbrs[w] += 1
        return mark

    def unplace(v: int, side: int, mark: int) -> None:
        side_of[v] = -1
        for w in adj[v]:
            placed_nbrs[w] -= 1
        sides[side].undo(mark)

    for side, seed in enumerate((c.x, c.y)):
        for v in sorted(seed):
            if place(v, side) is None:
                raise ConstraintInvalid(f"seed set {side} induces a cycle at {v}")

    # (-placed_nbrs[v], v) for every free v, and stale entries too
    heap = [(-placed_nbrs[v], v) for v in range(n) if side_of[v] < 0]
    heapq.heapify(heap)

    def push_free_neighbours(v: int) -> None:
        for w in adj[v]:
            if side_of[w] < 0:
                heapq.heappush(heap, (-placed_nbrs[w], w))

    def choose() -> int | None:
        """The free vertex with the most assigned neighbours, ties to the
        smallest: the top entry that is still current."""
        while heap:
            k, v = heap[0]
            if side_of[v] < 0 and placed_nbrs[v] == -k:
                return v
            heapq.heappop(heap)
        return None

    trail: list[tuple[int, int, int]] = []   # (vertex, side, undo mark)
    v, side = choose(), 0
    while v is not None:
        if side < 2:
            mark = place(v, side)
            if mark is None:
                side += 1
            else:
                trail.append((v, side, mark))
                push_free_neighbours(v)
                v, side = choose(), 0
        elif trail:
            v, side, mark = trail.pop()
            unplace(v, side, mark)
            push_free_neighbours(v)
            heapq.heappush(heap, (-placed_nbrs[v], v))
            side += 1
        else:
            raise SearchExhausted(
                f"no two-tree partition extends seeds x={sorted(c.x)} y={sorted(c.y)} "
                f"on a {n}-vertex triangulation (potential counterexample)"
            )
    s = frozenset(u for u, side in enumerate(side_of) if side == 0)
    part = TreePartition(s, frozenset(u for u, side in enumerate(side_of) if side == 1))
    if not verify_tree_partition(ab, part, c.x, c.y):
        raise NotTreePartition("solver output fails the two-tree audit")
    return part


def _validate_constraint(
    an: Instance, c: PartitionConstraint, enforce_path_condition: bool
) -> None:
    if c.x & c.y:
        raise ConstraintInvalid(f"seed sets overlap on {sorted(c.x & c.y)}")
    bs = an.bs
    if not bs.b_of(1) <= c.x:
        raise ConstraintInvalid("big class-1 vertices must seed the first side")
    if not bs.b_of(2) <= c.y:
        raise ConstraintInvalid("big class-2 vertices must seed the second side")
    if not bs.b_of(3) <= c.x | c.y:
        raise ConstraintInvalid("big class-3 vertices must all be seeded")
    if enforce_path_condition:
        xy = c.x | c.y
        for fp in an.paths:
            inner = set(fp.interior)
            if inner & xy and not inner <= xy:
                raise ConstraintInvalid(
                    f"fan path {fp.path} interior straddles the seed sets"
                )


# --- the base colouring on big class-3 vertices --------------------------


# colourings the strict sweep may check after the constructed one: every
# colouring of |B3| <= 16 vertices; face-sparse has run at |B3| <= 4
SWEEP_BUDGET = 2 ** 16


def _base_conditions_ok(an: Instance, b: Mapping[int, int], strict: bool) -> bool:
    """The three base conditions on a big-class-3 colouring: no
    monochromatic cycle, degree->=3 second-neighbour pairs split, forced
    colours at degree-2 vertices between same-coloured neighbours.  The
    last two only when `strict`."""
    h, a, beta = an.h, an.a, an.bs.b_of(3)
    if mono_cycle(h, {**a, **b}) is not None:
        return False
    if not strict:
        return True
    for u in h.vertices:
        if h.degree(u) != 2:
            continue
        # H joins big class 1/2 only to big class 3: p, q are on u's far side
        p, q = sorted(h.adj[u])
        if u in beta:
            if a[p] == a[q] and b[u] != 3 - a[p]:
                return False
        elif h.degree(p) >= 3 and h.degree(q) >= 3 and b[p] == b[q]:
            return False
    return True


def base_coloring_candidates(
    an: Instance,
    pin: tuple[int, int] | None = None,
    opposite: tuple[int, int, int] | None = None,
    strict: bool = False,
) -> Iterator[dict[int, int]]:
    """Colourings of the big class-3 vertices that pass
    `_base_conditions_ok`: the constructed one, and, when `strict`, the
    others after it.

    The constructed one is the colourer's (the paper's first theorem):
    `pin` = (v, colour) forces one colour, by default the least vertex's
    to 1; `opposite` = (v, y, colour) forces the two class-3 corners of a
    4-cycle apart; `strict` moves each degree-2 vertex whose neighbours
    share a colour to the other colour (safe: both cycles through it pass
    those neighbours).

    The strict sweep, which face-sparse runs with no pin, checks at most
    `SWEEP_BUDGET` colourings of all of B3, every one when |B3| <= 16; one
    more raises `BudgetExceeded`.
    """
    h, a = an.h, an.a
    bp = TypedBipartition(alpha=frozenset(a), beta=an.bs.b_of(3))
    first: dict[int, int] = {}
    if opposite is not None:
        v, y, colour = opposite
        first = dict(color_beta_4cycle(h, bp, a, v, y, colour).colour_of)
    elif bp.beta:
        v, colour = pin if pin is not None else (min(bp.beta), 1)
        first = dict(color_beta(h, bp, a, v, colour, check_family=False).colour_of)
    if strict:
        for u in sorted(bp.beta):
            if h.degree(u) == 2:
                p, q = sorted(h.adj[u])
                if a[p] == a[q]:
                    first[u] = 3 - a[p]
    if _base_conditions_ok(an, first, strict):
        yield first
    if not strict:
        return
    free = sorted(bp.beta)
    for i, bits in enumerate(itertools.product((1, 2), repeat=len(free))):
        if i == SWEEP_BUDGET:
            raise BudgetExceeded(
                f"the strict sweep over |B3| = {len(free)} big class-3 vertices "
                f"passed its budget of {SWEEP_BUDGET} colourings"
            )
        b = dict(zip(free, bits))
        if b != first and _base_conditions_ok(an, b, strict):
            yield b


# --- single-path extension (fixed edge pipeline) -------------------------


def extend_coloring_single_path(
    an: Instance, b: Mapping[int, int], v: int, w: int, p_w: FanPath
) -> dict[int, int]:
    """Extend the big-vertex colouring over one fan path so that the small
    vertex w inherits the colour of its big class-3 neighbour v.

    v is a pole (the pole lemma), so the other pole y is of class 3 and
    the small interior alternates classes 1 and 2.  Two shapes: a big y
    is already coloured apart from v by `b`, a small y takes the colour
    opposite v; in both, each interior vertex takes its class as its
    colour.  If that misses its audit, only w is added, with v's colour.

    Seed monotonicity: every colouring of the interior (and of a small y)
    that passes the audit extends b + {w: b[v]}, so a partition extending
    its seeds extends these, and the complete search finds one, with v and
    w on one side.
    """
    ab, bs, a = an.ab, an.bs, an.a
    cls = an.tp.class_of
    b0 = dict(b)
    if v not in p_w.v0 or cls[v] != 3 or v not in bs.big:
        raise CaseUnmatched(f"{v} is not a big class-3 pole of {p_w.path}")
    (y,) = p_w.v0 - {v}
    if y in bs.small:
        b0[y] = 3 - b0[v]
    for u in p_w.interior:
        b0[u] = cls[u]
    l_graph = ab.subgraph(bs.big).union(ab.subgraph(set(p_w.path) | p_w.v0))
    if b0.get(w) == b0[v] and mono_cycle(l_graph, combine(a, b0)) is None:
        return b0
    return {**b, w: b[v]}


def _mono_path_exists(l_graph: Graph, colours: Mapping[int, int], u: int, w: int) -> bool:
    """Is there a u-w path whose vertices all share one colour?"""
    if colours[u] != colours[w]:
        return False
    c = colours[u]
    sub = l_graph.subgraph({x for x in l_graph.adj if colours.get(x) == c})
    return u in sub.adj and w in sub.bfs_dist(u)


# --- sequence extension (face-sparse pipeline) ---------------------------


@dataclass(frozen=True)
class StepInfo:
    path: tuple[int, ...]
    case: str
    fresh: tuple[int, ...]


def extend_coloring_path_sequence(
    an: Instance, b: Mapping[int, int], paths: Sequence[FanPath]
) -> tuple[dict[int, int], list[StepInfo]]:
    """Walk the constrained fan paths in order, extending the colouring one
    path at a time; after every step the no-monochromatic-cycle condition
    and the local neighbour-balance conditions are re-audited.

    Each path is handled by the ten-case dispatch below, which has no
    mixed case (the opposite-corner lemma).  A step that fails its audit
    raises `ConditionViolated` with the audit's reason, and the caller
    moves on to its next base colouring.
    """
    ab = an.ab
    cls = an.tp.class_of
    bn = dict(b)
    l_graph = ab.subgraph(an.bs.big)
    steps: list[StepInfo] = []
    for i, fp in enumerate(paths, 1):
        next_l = l_graph.union(ab.subgraph(set(fp.path) | fp.v0))
        fresh = [u for u in fp.interior if u not in bn]
        fresh += [u for u in fp.v0 if cls[u] == 3 and u in an.bs.small and u not in bn]
        case, assignment = _dispatch_sequence_case(an, bn, l_graph, fp)
        trial = dict(bn)
        trial.update({u: c for u, c in assignment.items() if u in fresh})
        reason = _audit_step(an, trial, next_l, fp)
        if reason is not None:
            raise ConditionViolated(i, reason)
        bn = trial
        l_graph = next_l
        steps.append(StepInfo(fp.path, case, tuple(sorted(fresh))))
    return bn, steps


def _corner_layout(an: Instance, fp: FanPath) -> tuple[str, int, int, int, int]:
    """Name the 4-cycle corners: (shape, v, y, x, z) with v big class 3.

    shape is "poles" when the class-3 diagonal is the pole pair, "ends"
    when it is the end pair.  Every path of `families_R` has such a v: a
    big pole when the poles are class 3, else a class-3 end, which the
    fan-path lemma makes big.
    """
    cls = an.tp.class_of
    p0 = sorted(fp.v0)
    p1 = sorted(fp.v1)
    if cls[p0[0]] == 3:
        v = min(u for u in p0 if u in an.bs.big)
        y = next(u for u in p0 if u != v)
        x, z = p1
        return "poles", v, y, x, z
    v = min(u for u in p1 if cls[u] == 3)
    y = next(u for u in p1 if u != v)
    x, z = p0
    return "ends", v, y, x, z


def _dispatch_sequence_case(
    an: Instance, bn: Mapping[int, int], l_prev: Graph, fp: FanPath
) -> tuple[str, dict[int, int]]:
    h, bs, a = an.h, an.bs, an.a
    cls = an.tp.class_of
    comb = combine(a, bn)
    shape, v, y, x, z = _corner_layout(an, fp)
    interior = list(fp.interior)
    out: dict[int, int] = {}
    d = h.degree

    # by the fan-path lemma both poles are class 3 and both ends big; by the
    # opposite-corner lemma v and y both branch or both have degree 2
    if shape == "poles" and y in bs.big:
        if d(v) >= 3:
            # opposite big poles branch apart; interiors follow their class
            for u in interior:
                out[u] = cls[u]
            return "pole-pair-branching", out
        if _mono_path_exists(l_prev, comb, v, y) or comb[x] == comb[z] == comb[v]:
            side = comb[x] if comb[x] != comb[v] else comb[z]
            for u in interior:
                out[u] = side
            return "pole-pair-degree2-shielded", out
        c = comb[v]
        s = min((u for u in interior if cls[u] == c), default=None)
        for u in interior:
            out[u] = c if u == s else 3 - c
        return "pole-pair-degree2-split", out
    if shape == "ends" and cls[y] == 3:
        if d(v) >= 3:
            for u in interior:
                out[u] = 3 - a[x]
            return "end-pair-branching", out
        if _mono_path_exists(l_prev, comb, x, z):
            for u in interior:
                out[u] = comb[v]
            return "end-pair-degree2-shielded", out
        c = comb[v]
        s = min((u for u in interior if cls[u] == c), default=None)
        for u in interior:
            out[u] = 3 - c if u == s else c
        return "end-pair-degree2-split", out
    if shape == "ends":
        if _mono_path_exists(l_prev, comb, x, z):
            for u in interior:
                out[u] = a[y]
            return "far-end-shielded", out
        c = comb[v]
        s = min(u for u in interior if cls[u] == 3)
        for u in interior:
            out[u] = 3 - c if u == s else c
        return "far-end-split", out
    # what is left: the poles, the other one y small
    if d(v) >= 3:
        out[y] = 3 - comb[v]
        for u in interior:
            out[u] = cls[u] if cls[u] in (1, 2) else 3 - comb[v]
        return "small-pole-branching", out
    out[y] = comb[v]
    for u in interior:
        out[u] = 3 - comb[v]
    return "small-pole-degree2", out


def _audit_step(
    an: Instance, trial: Mapping[int, int], l_graph: Graph, fp: FanPath
) -> str | None:
    """Check the incremental conditions; return a reason string or None."""
    ab, h = an.ab, an.h
    cls = an.tp.class_of
    comb = combine(an.a, trial)
    scope = set(fp.path) | fp.v0
    cyc = mono_cycle(l_graph, comb)
    if cyc is not None:
        return f"monochromatic cycle in colour {comb[cyc[0]]}"
    for v in sorted(an.bs.b_of(3) & (fp.v0 | fp.v1)):
        dv = h.degree(v)
        local = scope & ab.adj[v]
        if dv >= 3:
            for u in local:
                if cls[u] in (1, 2) and comb[u] != cls[u]:
                    return f"neighbour {u} of branching {v} off its class colour"
        elif dv == 2:
            c = comb[v]
            hot = [u for u in local if comb[u] == c]
            if len(hot) > 1:
                return f"degree-2 vertex {v} keeps {len(hot)} same-coloured fan neighbours"
            if hot and cls[hot[0]] != c:
                return f"degree-2 vertex {v}: same-coloured neighbour off class"
    return None


# --- pipelines -----------------------------------------------------------


def tree_partition_with_edge(an: Instance, v: int, w: int) -> TreePartition:
    """Two induced trees of the analysed triangulation with big class-1
    vertices on the first side, big class-2 on the second, and the edge vw
    kept inside one side (chosen by w's class).  Either order is taken:
    adjacent vertices differ in class, so one end at most is big class 3,
    and it becomes v.

    A big w (already seeded by its class) and any w on a bipyramid, which
    has no fan paths, get v's colour as their seed.  The bipyramid lemma:
    with l >= 3, big class-3 poles p, q and the even ring R, {p, q, w} and
    R - w are two trees if b gives p and q one colour; otherwise each side
    is a pole and a colour class of R, w's class on v's side.  Other
    bipyramids have no big class-3 vertex.
    """
    tp, bs = an.tp, an.bs
    if v not in bs.b_of(3):
        v, w = w, v
    if v not in bs.b_of(3):
        raise BadEdge(f"neither {w} nor {v} is a big class-3 vertex")
    if not an.g.has_edge(v, w):
        raise BadEdge(f"{v} and {w} are not adjacent")
    # w is adjacent to a class-3 vertex, so it is of class 1 or 2
    target = tp.class_of[w]
    if not an.in_family:
        raise NotInFamilyH("a big-vertex cycle has length not 0 mod 4")

    # for a small w, by the pole lemma v is a pole of p_w and the other pole
    # y is of class 3; a big y shares a 4-cycle of H with v, so b puts them apart
    p_w = None if w in bs.big or an.poles is not None else _choose_fan_path(an, v, w)
    y = None if p_w is None else min(p_w.v0 - {v})
    if y in bs.big:
        b = next(base_coloring_candidates(an, opposite=(v, y, target)), None)
    else:
        b = next(base_coloring_candidates(an, pin=(v, target)), None)
    if b is None:
        raise CaseUnmatched("the constructed base colouring fails its audit")
    if p_w is None:
        return _kept_together(tree_partition_solve(an, _seeds(an, {**b, w: b[v]})), v, w)
    seeds = _seeds(an, extend_coloring_single_path(an, b, v, w, p_w))
    try:
        part = tree_partition_solve(an, seeds)
    except ConstraintInvalid:
        # a second fan path sharing inner vertices with p_w, or p_w itself
        # when its prescribed colouring missed and w alone is seeded; the
        # straddle rule only backs the existence argument, not the solver,
        # so retry without it
        part = tree_partition_solve(an, seeds, enforce_path_condition=False)
    return _kept_together(part, v, w)


def _kept_together(part: TreePartition, v: int, w: int) -> TreePartition:
    if (v in part.s) != (w in part.s):
        raise NotTreePartition(f"{v} and {w} landed on different sides")
    return part


def _choose_fan_path(an: Instance, v: int, w: int) -> FanPath:
    """The fan path through w with v as a pole, unique by the pole lemma."""
    p_w = next((fp for fp in an.paths if v in fp.v0 and w in fp.interior), None)
    if p_w is None:
        raise CaseUnmatched(f"no fan path through {w} has {v} as a pole")
    return p_w


def tree_partition_face_sparse(an: Instance) -> tuple[TreePartition, dict]:
    """Two induced trees of the analysed triangulation such that every big
    class-3 vertex keeps almost all of its class-1 neighbours on the first
    side and class-2 on the second (branching vertices of H exactly;
    degree-2 vertices up to the two slack neighbours).  Returns the
    partition and a per-vertex report.

    Both hypotheses are checked on entry: they are the opposite-corner
    lemma's.  An audit miss moves on to the next base colouring.

    On a bipyramid the extension takes no step.  The bipyramid lemma
    (`tree_partition_with_edge`) covers the first colouring; with B3 empty
    the seeds are at most both poles, extended by {p, q, r} and R - r.
    """
    if not an.in_family:
        raise NotInFamilyH("a big-vertex cycle has length not 0 mod 4")
    if not h_components_2connected(an.h):
        raise HComponentNot2Connected(
            "a multi-vertex component of the big-vertex graph is not 2-connected"
        )

    r, r_hat = families_R(an.bs, an.paths)
    last_err: Exception = CaseUnmatched("no admissible base colouring exists")
    for b in base_coloring_candidates(an, strict=True):
        try:
            bn, steps = extend_coloring_path_sequence(an, b, r + r_hat)
            break
        except ConditionViolated as exc:
            last_err = exc
    else:
        raise last_err
    part = tree_partition_solve(an, _seeds(an, bn))
    return part, _face_sparse_report(an, part, steps)


def _face_sparse_report(
    an: Instance, part: TreePartition, steps: Sequence[StepInfo]
) -> dict:
    """Audit the two per-vertex implications on the final partition."""
    ab, bs, h = an.ab, an.bs, an.h
    cls = an.tp.class_of
    rows = []
    ok = True
    for v in sorted(bs.b_of(3)):
        dv = h.degree(v)
        n1 = {u for u in ab.adj[v] if cls[u] == 1}
        n2 = {u for u in ab.adj[v] if cls[u] == 2}
        status = "unconstrained"
        if dv >= 3:
            status = "branching-ok" if n1 <= part.s and n2 <= part.t else "violation"
        elif dv == 2:
            side, mine = (part.s, n1) if v in part.s else (part.t, n2)
            others = ab.adj[v] - mine
            if len(mine & side) <= 2 and others.isdisjoint(side):
                status = "degree2-ok"
            else:
                status = "violation"
        ok = ok and status != "violation"
        rows.append({"vertex": v, "h_degree": dv, "status": status})
    return {
        "vertices": rows,
        "all_ok": ok,
        "steps": [
            {"path": list(s.path), "case": s.case, "fresh": list(s.fresh)}
            for s in steps
        ],
    }
