"""Two-tree partitions: fan paths, the solver, and both pipelines."""

import itertools
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from dualham.colorizer import combine, mono_cycle
from dualham.duality import hamilton_avoiding_edge, verify_hamilton
from dualham.embed import BigSmall, canonical_form, classify_big_small, dual, tri_partition
from dualham.errors import (
    BadEdge,
    BudgetExceeded,
    CaseUnmatched,
    ConditionViolated,
    ConstraintInvalid,
    DualhamError,
    HComponentNot2Connected,
    NotEvenTriangulation,
    NotInFamilyH,
    NotTreePartition,
    SearchExhausted,
)
from dualham.gen import (
    TETRAHEDRON,
    big_vertex_graph,
    gen_bipyramid,
    gen_triangulations,
    meets_h_hypothesis,
)
from dualham.embed import EmbeddedGraph
from dualham import treesplit
from dualham.treesplit import (
    FanPath,
    PartitionConstraint,
    TreePartition,
    analyse,
    base_coloring_candidates,
    bipyramid_poles,
    families_R,
    fan_paths,
    tree_partition_face_sparse,
    tree_partition_solve,
    tree_partition_with_edge,
    verify_tree_partition,
)
from lemmas import opposite_corners_check, opposite_pairs


GOLDEN = Path(__file__).parent / "data" / "with_edge_golden.jsonl"
LARGE = Path(__file__).parent.parent / "perfbench" / "data" / "large.jsonl"


def _poles_by_pair_scan(g):
    """Reference for `bipyramid_poles`: every vertex pair, in order."""
    if g.n < 6 or g.n % 2 != 0:
        return None
    for p in range(g.n):
        for q in range(p + 1, g.n):
            if g.has_edge(p, q):
                continue
            rest = [v for v in range(g.n) if v not in (p, q)]
            if not all(g.has_edge(p, v) and g.has_edge(q, v) for v in rest):
                continue
            ring = g.abstract().subgraph(rest)
            if all(ring.degree(v) == 2 for v in rest) and ring.is_connected():
                return (p, q)
    return None


def _reference_fan_paths(g, bs):
    """Reference for `fan_paths`: every walk through small vertices is
    followed to a big end, then classified whole."""
    ab = g.abstract()
    small = bs.small
    big = bs.big
    found = {}
    for start in sorted(big):
        stack = [[start, s] for s in sorted(ab.adj[start]) if s in small]
        while stack:
            path = stack.pop()
            last = path[-1]
            for nxt in sorted(ab.adj[last]):
                if nxt in path[1:] or nxt == start:
                    continue
                if nxt in small:
                    stack.append(path + [nxt])
                elif len(path) >= 2:
                    fp = _reference_classify_fan_path(ab, big, tuple(path) + (nxt,))
                    if fp is not None:
                        found.setdefault(fp.path, fp)
    covered = {u for fp in found.values() for u in fp.interior}
    missing = small - covered
    if missing:
        raise CaseUnmatched(f"small vertices {sorted(missing)} lie on no fan path")
    return sorted(found.values(), key=lambda fp: fp.path)


def _reference_classify_fan_path(ab, big, path):
    if path[0] > path[-1]:
        path = path[::-1]
    pset = set(path)
    chords = [
        (path[i], path[j])
        for i in range(len(path))
        for j in range(i + 2, len(path))
        if ab.has_edge(path[i], path[j])
    ]
    # induced, or a cycle minus an edge: no chord but the end chord
    if chords and chords != [(path[0], path[-1])]:
        return None
    poles = set(ab.adj[path[0]])
    for u in path[1:]:
        poles &= ab.adj[u]
    poles -= pset
    if len(poles) != 2:
        # a walk that turns a corner at some small vertex; not a fan
        return None
    return FanPath(path, frozenset(poles), frozenset({path[0], path[-1]}))


def _is_acyclic(g) -> bool:
    return g.find_cycle() is None


def _reference_solve(g, c):
    """Reference for `tree_partition_solve(an, c, enforce_path_condition=False)`:
    the recursive search it replaced, with the seed-acyclicity check and the
    leaf connectivity test.  Returns the partition or the error type, the
    (vertex, side, accepted) placements tried after the seeds, and the
    number of placements taken back."""
    ab = g.abstract()
    bs = classify_big_small(g, tri_partition(g))
    if (c.x & c.y or not bs.b_of(1) <= c.x or not bs.b_of(2) <= c.y
            or not bs.b_of(3) <= c.x | c.y
            or not _is_acyclic(ab.subgraph(c.x)) or not _is_acyclic(ab.subgraph(c.y))):
        return ConstraintInvalid, [], 0
    assign = {**dict.fromkeys(c.x, 0), **dict.fromkeys(c.y, 1)}
    tried = []
    backtracks = 0

    def search():
        nonlocal backtracks
        free = [v for v in ab.adj if v not in assign]
        if not free:
            s = {u for u, side in assign.items() if side == 0}
            t = set(assign) - s
            return s and t and ab.subgraph(s).is_connected() and ab.subgraph(t).is_connected()
        v = min(free, key=lambda v: (-sum(w in assign for w in ab.adj[v]), v))
        for side in (0, 1):
            fits = _is_acyclic(ab.subgraph({u for u in assign if assign[u] == side} | {v}))
            tried.append((v, side, fits))
            if not fits:
                continue
            assign[v] = side
            if search():
                return True
            del assign[v]
            backtracks += 1
        return False

    if not search():
        return SearchExhausted, tried, backtracks
    s = frozenset(u for u, side in assign.items() if side == 0)
    return TreePartition(s, frozenset(assign) - s), tried, backtracks


class _ReferenceForest:
    """The solver's union-find before union by size: each union hangs the
    new vertex's root below its neighbour's root."""

    def __init__(self):
        self.parent = {}
        self.trail = []

    def find(self, v):
        p = self.parent
        while p.get(v, v) != v:
            v = p[v]
        return v

    def add(self, v, assigned_neighbors):
        mark = len(self.trail)
        self.trail.append((v, -1))
        self.parent.setdefault(v, v)
        for w in assigned_neighbors:
            rv, rw = self.find(v), self.find(w)
            if rv == rw:
                self.undo(mark)
                return None
            self.trail.append((rv, self.parent.get(rv, rv)))
            self.parent[rv] = rw
        return mark

    def undo(self, mark):
        while len(self.trail) > mark:
            v, old = self.trail.pop()
            if old == -1:
                del self.parent[v]
            else:
                self.parent[v] = old


def _reference_tree_partition_solve(g, c, *, enforce_path_condition=True):
    """Reference for `tree_partition_solve`: the same loop with the choice
    made by scanning every free vertex, over `_ReferenceForest`.  Returns
    the partition or the error type, and every (vertex, side, accepted)
    placement, seeds included."""
    an = treesplit.analyse(g)
    ab = an.ab
    try:
        treesplit._validate_constraint(an, c, enforce_path_condition)
    except ConstraintInvalid:
        return ConstraintInvalid, []
    sides = [_ReferenceForest(), _ReferenceForest()]
    assign = {}
    placed_nbrs = dict.fromkeys(ab.adj, 0)
    tried = []

    def place(v, side):
        mark = sides[side].add(v, [w for w in ab.adj[v] if assign.get(w) == side])
        tried.append((v, side, mark is not None))
        if mark is None:
            return None
        assign[v] = side
        for w in ab.adj[v]:
            placed_nbrs[w] += 1
        return mark

    def unplace(v, side, mark):
        del assign[v]
        for w in ab.adj[v]:
            placed_nbrs[w] -= 1
        sides[side].undo(mark)

    for side, seed in enumerate((c.x, c.y)):
        for v in sorted(seed):
            if place(v, side) is None:
                return ConstraintInvalid, tried
    free = sorted(set(ab.adj) - set(assign))

    def choose():
        best, score = None, -1
        for v in free:
            if v not in assign and placed_nbrs[v] > score:
                best, score = v, placed_nbrs[v]
        return best

    trail = []
    v, side = choose(), 0
    while v is not None:
        if side < 2:
            mark = place(v, side)
            if mark is None:
                side += 1
            else:
                trail.append((v, side, mark))
                v, side = choose(), 0
        elif trail:
            v, side, mark = trail.pop()
            unplace(v, side, mark)
            side += 1
        else:
            return SearchExhausted, tried
    s = frozenset(u for u, side in assign.items() if side == 0)
    return TreePartition(s, frozenset(assign) - s), tried


def _random_constraint(g, rng):
    """Big class-1 vertices in x, big class-2 in y, big class-3 split at
    random, and each small vertex in x, in y or free."""
    bs = classify_big_small(g, tri_partition(g))
    x, y = set(bs.b_of(1)), set(bs.b_of(2))
    for v in sorted(bs.b_of(3)):
        (x if rng.random() < 0.5 else y).add(v)
    for v in sorted(bs.small):
        r = rng.random()
        if r < 0.35:
            (x if r < 0.175 else y).add(v)
    return PartitionConstraint(frozenset(x), frozenset(y))


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    rot = [None] * g.n
    for v, nb in enumerate(g.rotation):
        rot[perm[v]] = [perm[u] for u in nb]
    return EmbeddedGraph.build(rot)


class TestBipyramidDetection:
    def test_matches_pair_scan(self, octahedron, catalog12):
        rng = random.Random(5)
        graphs = [octahedron] + [gen_bipyramid(l) for l in range(2, 41)] + catalog12
        graphs += [g for n in range(4, 11) for g in gen_triangulations(n)]
        for g in graphs + [g.mirror() for g in graphs] + [_relabel(g, rng) for g in graphs]:
            assert bipyramid_poles(g) == _poles_by_pair_scan(g)

    def test_matches_pair_scan_on_all_8_vertex_triangulations(self):
        tris = gen_triangulations(8)
        crowded = 0
        for g in tris:
            assert bipyramid_poles(g) == _poles_by_pair_scan(g)
            hubs = sum(1 for v in range(g.n) if g.degree(v) == g.n - 2)
            crowded += hubs >= 3 and bipyramid_poles(g) is None
        # degree n - 2 alone does not make a pole
        assert crowded == 2

    def test_octahedron_and_larger(self, octahedron, bipyramid6):
        assert bipyramid_poles(octahedron) is not None
        assert set(bipyramid_poles(bipyramid6)) == {6, 7}
        assert set(bipyramid_poles(gen_bipyramid(4))) == {8, 9}

    def test_not_a_bipyramid(self, even10):
        assert bipyramid_poles(even10) is None

    def test_fan_paths_refuse_bipyramids(self, octahedron, bipyramid6):
        # of the bipyramids only the octahedron is refused: it has no big
        # vertex to end a run, so its small vertices lie on no fan path
        bs = classify_big_small(octahedron, tri_partition(octahedron))
        assert not bs.big
        with pytest.raises(CaseUnmatched):
            fan_paths(octahedron, bs)
        bs = classify_big_small(bipyramid6, tri_partition(bipyramid6))
        assert len(fan_paths(bipyramid6, bs)) == len(bs.small)


def _reference_bipyramid_partition(g, poles, tp, keep_together=None):
    """Reference for `_bipyramid_partition`: the ring walked by adjacency
    from its smallest vertex, and a kept pair turned onto the first side."""
    p, q = poles
    ring = [v for v in range(g.n) if v not in poles]
    order = [ring[0]]
    prev = None
    while len(order) < len(ring):
        cur = order[-1]
        nxt = next(v for v in ring if g.has_edge(cur, v) and v != prev)
        prev = cur
        order.append(nxt)
    pole_class = tp.class_of[p]
    if g.degree(p) >= 6 and pole_class in (1, 2):
        c = order[0]
        side = frozenset({p, q, c})
        other = frozenset(v for v in order if v != c)
        return TreePartition(side, other) if pole_class == 1 else TreePartition(other, side)
    even = {order[i] for i in range(0, len(order), 2)}
    odd = set(ring) - even
    s, t = frozenset({p} | even), frozenset({q} | odd)
    if keep_together is not None:
        v, w = keep_together
        if (v in s) != (w in s):
            s, t = frozenset({p} | odd), frozenset({q} | even)
        if v in t:
            s, t = t, s
    return TreePartition(s, t)


class TestBipyramidPartitionMatchesReference:
    def test_same_partitions(self):
        rng = random.Random(8)
        graphs = [gen_bipyramid(l) for l in range(2, 13)]
        graphs += [g.mirror() for g in graphs] + [_relabel(g, rng) for g in graphs]
        forced = kept = 0
        for g in graphs:
            tp = tri_partition(g)
            poles = bipyramid_poles(g)
            an = analyse(g)
            got = treesplit._bipyramid_partition(an)
            assert got == _reference_bipyramid_partition(g, poles, tp)
            # big poles of class 1 or 2 share a side, whatever the kept pair
            shared = tp.class_of[poles[0]] != 3 and g.n >= 8
            forced += shared
            for v in poles:
                for w in g.rotation[v]:
                    got = treesplit._bipyramid_partition(an, keep_together=(v, w))
                    want = _reference_bipyramid_partition(g, poles, tp, keep_together=(v, w))
                    # the same two sides; the with-edge pipeline picks the order
                    assert {got.s, got.t} == {want.s, want.t}
                    assert shared or (v in got.s) == (w in got.s)
                    kept += 1
        # both branches run: poles of class 3, and big poles of class 1 or 2
        assert forced and forced < len(graphs)
        assert kept == 2 * sum(g.n - 2 for g in graphs)


class TestPoleLemma:
    """The with-edge fan path through a small w is the small run of v's
    rotation through w, closed by its two big neighbours, with poles v and
    the vertex opposite v in w's rotation."""

    @staticmethod
    def _rotation_run(g, v, w):
        rot = g.rotation[v]
        k = len(rot)
        i = rot.index(w)
        ahead = next(j for j in range(i, i + k) if g.degree(rot[j % k]) != 4)
        behind = next(j for j in range(i, i - k, -1) if g.degree(rot[j % k]) != 4)
        path = tuple(rot[j % k] for j in range(behind, ahead + 1))
        if path[0] > path[-1]:
            path = path[::-1]
        rot_w = g.rotation[w]
        opposite = rot_w[(rot_w.index(v) + 2) % 4]
        return FanPath(path, frozenset({v, opposite}), frozenset({path[0], path[-1]}))

    def test_fan_path_through_w_with_v_as_pole(self, even_tri_sweep, catalog12):
        pairs = 0
        for g in even_tri_sweep + [g.mirror() for g in catalog12]:
            if bipyramid_poles(g) is not None:
                continue
            an = treesplit.analyse(g)
            for v in sorted(an.bs.big):
                for w in g.rotation[v]:
                    if w not in an.bs.small:
                        continue
                    want = self._rotation_run(g, v, w)
                    # the two walks stop at distinct big vertices
                    assert len(want.v1) == 2 and want.v1 <= an.bs.big
                    assert treesplit._choose_fan_path(an, v, w) == want
                    pairs += 1
        assert pairs == 3740


class TestFanPaths:
    def test_every_small_vertex_covered(self, even10, catalog12):
        for g in [even10] + [h for h in catalog12 if bipyramid_poles(h) is None]:
            bs = classify_big_small(g, tri_partition(g))
            paths = fan_paths(g, bs)
            covered = {u for fp in paths for u in fp.interior}
            assert bs.small <= covered

    def test_pole_and_end_shape(self, even10):
        ab = even10.abstract()
        bs = classify_big_small(even10, tri_partition(even10))
        for fp in fan_paths(even10, bs):
            assert fp.v1 == frozenset({fp.path[0], fp.path[-1]})
            assert fp.v1 <= bs.big
            assert set(fp.interior) <= bs.small
            for pole in fp.v0:
                assert all(ab.has_edge(pole, u) for u in fp.path)

    def test_families_are_disjoint(self, even10):
        tp = tri_partition(even10)
        bs = classify_big_small(even10, tp)
        paths = fan_paths(even10, bs)
        r, r_hat = families_R(bs, paths)
        assert not set(p.path for p in r) & set(p.path for p in r_hat)
        b3 = bs.b_of(3)
        for fp in r:
            assert fp.v0 <= bs.big and (fp.v0 | fp.v1) & b3
        for fp in r_hat:
            assert fp.v0 & b3 and fp.v0 & bs.s_of(3)


class TestFanPathsMatchReference:
    def test_golden_rows_are_every_even_triangulation_up_to_12(self):
        with open(GOLDEN) as f:
            graphs = [EmbeddedGraph.build(json.loads(line)["rotation"]) for line in f]
        classes = {canonical_form(g): g.n for g in graphs}
        assert sorted(classes.values()) == [6, 8, 9, 10, 10, 11, 11] + [12] * 8

    def test_same_paths_and_kinds(self, even_tri_sweep):
        for g in even_tri_sweep:
            bs = classify_big_small(g, tri_partition(g))
            if bipyramid_poles(g) is not None:
                continue
            assert fan_paths(g, bs) == _reference_fan_paths(g, bs)

    def test_same_on_all_triangulations_up_to_10(self):
        # odd triangulations too, with big and small split by degree alone:
        # degree-5 vertices then end paths, and separating triangles occur
        for n in range(6, 11):
            for g in gen_triangulations(n):
                for h in (g, g.mirror()):
                    big = frozenset(v for v in range(h.n) if h.degree(v) >= 6)
                    small = frozenset(v for v in range(h.n) if h.degree(v) == 4)
                    none = frozenset()
                    bs = BigSmall(big, small, (big, none, none), (small, none, none))
                    outcomes = []
                    for impl in (fan_paths, _reference_fan_paths):
                        try:
                            outcomes.append(impl(h, bs))
                        except CaseUnmatched as exc:
                            outcomes.append(type(exc))
                    assert outcomes[0] == outcomes[1]

    def test_both_refuse_bipyramids(self):
        # both refuse the octahedron alone and agree on every larger bipyramid
        for l in range(2, 9):
            g = gen_bipyramid(l)
            bs = classify_big_small(g, tri_partition(g))
            outcomes = []
            for impl in (fan_paths, _reference_fan_paths):
                try:
                    outcomes.append(impl(g, bs))
                except CaseUnmatched as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1]
            assert (outcomes[0] is CaseUnmatched) == (l == 2)

    def test_bipyramids_need_no_special_case(self):
        # the run lemma holds on a bipyramid too: with big poles, each ring
        # vertex lies on one pole-to-pole path, whose own poles are its two
        # ring neighbours
        for l in range(3, 9):
            g = gen_bipyramid(l)
            bs = classify_big_small(g, tri_partition(g))
            paths = fan_paths(g, bs)
            assert sorted(fp.path[1] for fp in paths) == sorted(bs.small)
            for fp in paths:
                assert fp.v1 == frozenset(bipyramid_poles(g))
                assert fp.v0 == frozenset(g.rotation[fp.path[1]]) - fp.v1


class TestRunLemma:
    """Each fan path is a run of each pole's rotation, and the other pole is
    opposite that pole in the rotation of the first inner vertex: the facts
    `fan_paths` reads the family off.  The paths come from the reference
    walk, not from `fan_paths`."""

    @staticmethod
    def _check(g, bs):
        paths = _reference_fan_paths(g, bs)
        for fp in paths:
            n_path = len(fp.path)
            for p in fp.v0:
                rot = g.rotation[p]
                k = len(rot)
                runs = {tuple(rot[(i + j) % k] for j in range(n_path)) for i in range(k)}
                assert fp.path in runs or fp.path[::-1] in runs, (g.rotation, fp, p)
                r1 = g.rotation[fp.path[1]]
                (other,) = fp.v0 - {p}
                assert r1[(r1.index(p) + 2) % 4] == other, (g.rotation, fp, p)
        return len(paths)

    def test_on_the_even_triangulation_sweep(self, even_tri_sweep):
        checked = 0
        for g in even_tri_sweep:
            if bipyramid_poles(g) is not None:
                continue
            checked += self._check(g, classify_big_small(g, tri_partition(g)))
        assert checked > 1000

    def test_on_all_triangulations_up_to_10(self):
        # big and small by degree alone, as in the reference comparison
        checked = 0
        for n in range(6, 11):
            for g in gen_triangulations(n):
                for h in (g, g.mirror()):
                    big = frozenset(v for v in range(h.n) if h.degree(v) >= 6)
                    small = frozenset(v for v in range(h.n) if h.degree(v) == 4)
                    none = frozenset()
                    bs = BigSmall(big, small, (big, none, none), (small, none, none))
                    try:
                        checked += self._check(h, bs)
                    except CaseUnmatched:
                        pass
        assert checked > 1000


class TestSolver:
    def test_octahedron_unseeded(self, octahedron):
        part = tree_partition_solve(
            analyse(octahedron), PartitionConstraint(frozenset(), frozenset())
        )
        assert verify_tree_partition(octahedron.abstract(), part)

    def test_seeds_respected(self, bipyramid6):
        # poles of the 6-ring bipyramid are the big class-3 vertices
        c = PartitionConstraint(frozenset({6}), frozenset({7}))
        part = tree_partition_solve(analyse(bipyramid6), c)
        assert 6 in part.s and 7 in part.t
        assert verify_tree_partition(bipyramid6.abstract(), part)

    def test_overlapping_seeds_rejected(self, octahedron):
        with pytest.raises(ConstraintInvalid):
            tree_partition_solve(
                analyse(octahedron), PartitionConstraint(frozenset({0}), frozenset({0}))
            )

    def test_cyclic_seed_rejected(self, octahedron):
        ab = octahedron.abstract()
        tri = next(
            frozenset({u, v, w})
            for u in ab.adj for v in ab.adj[u] for w in ab.adj[v]
            if w != u and ab.has_edge(w, u)
        )
        with pytest.raises(ConstraintInvalid):
            tree_partition_solve(analyse(octahedron), PartitionConstraint(tri, frozenset()))

    def test_unsatisfiable_seeds_exhaust(self, bipyramid6):
        # with the poles on opposite sides, each side's ring vertices must
        # form an independent set of the 6-ring (two on one side plus a
        # pole close a triangle); the only such split is the ring's colour
        # classes, and 0 and 3 lie in different classes
        with pytest.raises(SearchExhausted):
            tree_partition_solve(
                analyse(bipyramid6), PartitionConstraint(frozenset({6, 0, 3}), frozenset({7}))
            )

    def test_verifier_rejects_bad_partition(self, octahedron):
        ab = octahedron.abstract()
        p = TreePartition(frozenset(range(3)), frozenset(range(3, 6)))
        ok = verify_tree_partition(ab, p)
        s_tree = ab.subgraph(p.s).is_tree() and ab.subgraph(p.t).is_tree()
        assert ok == s_tree


class TestSolverMatchesReference:
    def test_random_seed_sets(self, monkeypatch):
        # observe the solver's placements: side s is the s-th forest made
        forests, tried = [], []
        init, add = treesplit._Forest.__init__, treesplit._Forest.add

        def logged_init(self):
            init(self)
            forests.append(self)

        def logged_add(self, v, nbrs):
            mark = add(self, v, nbrs)
            tried.append((v, forests.index(self), mark is not None))
            return mark

        monkeypatch.setattr(treesplit._Forest, "__init__", logged_init)
        monkeypatch.setattr(treesplit._Forest, "add", logged_add)
        with open(GOLDEN) as f:
            graphs = [EmbeddedGraph.build(json.loads(line)["rotation"]) for line in f]
        graphs += [gen_bipyramid(l) for l in range(2, 7)]
        rng = random.Random(6)
        outcomes = Counter()
        for g in graphs:
            for _ in range(200):
                c = _random_constraint(g, rng)
                want, want_tried, backtracks = _reference_solve(g, c)
                forests.clear()
                tried.clear()
                try:
                    got = tree_partition_solve(analyse(g), c, enforce_path_condition=False)
                except DualhamError as exc:
                    got = type(exc)
                assert got == want, (g.rotation, c)
                if want is not ConstraintInvalid:
                    # the same placements in the same order, seeds aside
                    assert tried[len(c.x) + len(c.y):] == want_tried, (g.rotation, c)
                if want is SearchExhausted:
                    # backtracking took every placement back, down to the seeds
                    assert [set(f.parent) for f in forests] == [c.x, c.y]
                outcomes[want if isinstance(want, type) else "solved"] += 1
                outcomes["backtracked"] += backtracks > 0
        # the sample reaches the search's backtracking and its exhaustion
        assert outcomes["backtracked"] and outcomes[SearchExhausted], outcomes
        assert outcomes["solved"] and outcomes[ConstraintInvalid], outcomes

    def test_large_instance_within_a_shallow_stack(self):
        # at n = 302 the solver places about 200 free vertices, more than a
        # search recursing once per vertex could fit in 100 spare frames
        with open(LARGE) as f:
            row = next(r for r in map(json.loads, f) if r["n"] == 302)
        g = EmbeddedGraph.build(row["rotation"])
        d = dual(g)
        v, w = row["small_w"][0]
        e_star = d.edge_map[(min(v, w), max(v, w))]
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            cyc = hamilton_avoiding_edge(g, e_star, d)
        finally:
            sys.setrecursionlimit(limit)
        assert e_star not in cyc.edges and verify_hamilton(d.graph.abstract(), cyc)


class TestSolverMatchesReferenceAtScale:
    """The heap choice and the size-balanced forests against the scan and
    the unbalanced forests they replaced, on the frozen large instances."""

    @pytest.fixture()
    def logged(self, monkeypatch):
        """Every (vertex, side, accepted) placement the solver makes."""
        forests, tried = [], []
        init, add = treesplit._Forest.__init__, treesplit._Forest.add

        def logged_init(self):
            init(self)
            forests.append(self)

        def logged_add(self, v, nbrs):
            mark = add(self, v, nbrs)
            tried.append((v, forests.index(self), mark is not None))
            return mark

        monkeypatch.setattr(treesplit._Forest, "__init__", logged_init)
        monkeypatch.setattr(treesplit._Forest, "add", logged_add)
        return forests, tried

    @staticmethod
    def _compare(logged, g, c, enforce_path_condition=True):
        forests, tried = logged
        want, want_tried = _reference_tree_partition_solve(
            g, c, enforce_path_condition=enforce_path_condition
        )
        forests.clear()
        tried.clear()
        try:
            got = tree_partition_solve(
                analyse(g), c, enforce_path_condition=enforce_path_condition
            )
        except DualhamError as exc:
            got = type(exc)
        assert got == want
        assert tried == want_tried
        return want

    def test_random_seedings(self, logged):
        with open(LARGE) as f:
            graphs = [EmbeddedGraph.build(json.loads(line)["rotation"]) for line in f]
        rng = random.Random(17)
        outcomes = Counter()
        placements = 0
        for g in graphs:
            for _ in range(20):
                want = self._compare(logged, g, _random_constraint(g, rng), False)
                outcomes[want if isinstance(want, type) else "solved"] += 1
                placements += len(logged[1])
        # at this size a random seeding closes a cycle inside a seed set
        # after a dozen or so seeds (all 80 do here), so these runs check
        # the forests' cycle test and undo on the seeds; the with-edge
        # seeds below reach the search
        assert sum(outcomes.values()) == 80 and placements > 500

    def test_with_edge_seeds_at_n152(self, logged, monkeypatch):
        with open(LARGE) as f:
            row = next(r for r in map(json.loads, f) if r["n"] == 152 and r["seed"] == 1)
        g = EmbeddedGraph.build(row["rotation"])
        seeds = []
        real = treesplit.tree_partition_solve

        def recording(an, c, *, enforce_path_condition=True):
            seeds.append((c, enforce_path_condition))
            return real(an, c, enforce_path_condition=enforce_path_condition)

        an = treesplit.analyse(g)
        with monkeypatch.context() as m:
            m.setattr(treesplit, "tree_partition_solve", recording)
            for v, w in row["big_w"] + row["small_w"]:
                tree_partition_with_edge(an, v, w)
        assert len(seeds) >= len(row["big_w"]) + len(row["small_w"])
        solved = 0
        for c, enforce in seeds:
            solved += isinstance(self._compare(logged, g, c, enforce), TreePartition)
        assert solved == len(row["big_w"]) + len(row["small_w"])


class TestForest:
    def test_union_by_size_keeps_trees_shallow(self):
        # a 1,000-vertex path, placed even vertices first, then odd ones in
        # order: each odd vertex joins the big tree and a singleton, so the
        # unbalanced forest builds a chain of about 500 roots
        n = 1000
        order = list(range(0, n, 2)) + list(range(1, n, 2))

        def build(forest):
            placed = set()
            for v in order:
                assert forest.add(v, [u for u in (v - 1, v + 1) if u in placed]) is not None
                placed.add(v)
            return forest

        def depth(parent, v):
            d = 0
            while parent[v] != v:
                v, d = parent[v], d + 1
            return d

        forest = build(treesplit._Forest())
        assert set(forest.parent) == set(range(n))
        assert max(depth(forest.parent, v) for v in range(n)) <= 10
        assert forest.size[forest.find(0)] == n
        reference = build(_ReferenceForest())
        assert max(depth(reference.parent, v) for v in range(n)) > 400
        # closing the path into a cycle is refused and leaves no trace
        assert forest.add(n, [0, n - 1]) is None
        assert n not in forest.parent
        forest.undo(0)
        assert forest.parent == {} and forest.size == {} and forest.trail == []


class TestWithEdgePipeline:
    def test_rejects_non_even_triangulation(self):
        g = EmbeddedGraph.build(TETRAHEDRON)
        with pytest.raises(NotEvenTriangulation):
            tree_partition_with_edge(analyse(g), 0, 1)

    def test_rejects_small_v(self, octahedron):
        with pytest.raises(ValueError):
            tree_partition_with_edge(analyse(octahedron), 0, 1)

    def test_bad_edges_raise_a_typed_error(self, bipyramid6):
        # 6 and 7 are the poles (big, class 3), 0 a small ring vertex
        for v, w in ((6, 7), (6, 999), (999, 6), (0, 1)):
            with pytest.raises(BadEdge):
                tree_partition_with_edge(analyse(bipyramid6), v, w)

    def test_either_order(self, catalog12, catalog13_14):
        # every eligible edge of the golden rows and the 12- to 14-vertex
        # catalogs, given again with its big class-3 end second
        with open(GOLDEN) as f:
            graphs = [EmbeddedGraph.build(json.loads(line)["rotation"]) for line in f]
        outcomes = Counter()
        for g in graphs + catalog12 + catalog13_14[13] + catalog13_14[14]:
            an = analyse(g)
            for v in sorted(an.bs.b_of(3)):
                for w in sorted(an.ab.adj[v]):
                    got = []
                    for ends in ((v, w), (w, v)):
                        try:
                            got.append(tree_partition_with_edge(an, *ends))
                        except DualhamError as exc:
                            got.append(type(exc))
                    assert got[0] == got[1]
                    outcomes[getattr(got[0], "__name__", "solved")] += 1
        assert outcomes == {"solved": 802, "NotInFamilyH": 102}

    def test_bipyramid_case(self, bipyramid6):
        tp = tri_partition(bipyramid6)
        bs = classify_big_small(bipyramid6, tp)
        v = min(bs.b_of(3))
        w = next(u for u in bipyramid6.rotation[v] if tp.class_of[u] in (1, 2))
        part = tree_partition_with_edge(analyse(bipyramid6), v, w)
        assert verify_tree_partition(bipyramid6.abstract(), part)
        assert (v in part.s) == (w in part.s)

    def test_all_edges_all_instances(self, even10, catalog12):
        for g in [even10] + catalog12:
            tp = tri_partition(g)
            bs = classify_big_small(g, tp)
            ab = g.abstract()
            for v in sorted(bs.b_of(3)):
                for w in sorted(ab.adj[v]):
                    if tp.class_of[w] not in (1, 2):
                        continue
                    part = tree_partition_with_edge(analyse(g), v, w)
                    assert verify_tree_partition(ab, part, bs.b_of(1), bs.b_of(2))
                    assert (v in part.s) == (w in part.s)

    def test_rejects_h_outside_the_family(self, h_not_in_family):
        with pytest.raises(NotInFamilyH):
            tree_partition_with_edge(analyse(h_not_in_family), 4, 2)

    def test_a_failed_extension_is_raised_not_retried(self, even10, monkeypatch):
        # one fan path and one base colouring per call: a construction
        # failure surfaces as its typed error after a single attempt
        calls = []

        def failing(an, b, v, w, p_w):
            calls.append(p_w.path)
            raise ConditionViolated(0, "injected")

        monkeypatch.setattr(treesplit, "extend_coloring_single_path", failing)
        # w = 7 is small and lies inside two fan paths through v = 1
        bs = classify_big_small(even10, tri_partition(even10))
        through = [fp for fp in fan_paths(even10, bs) if 7 in fp.interior and 1 in fp.v0 | fp.v1]
        assert len(through) == 2
        with pytest.raises(ConditionViolated):
            tree_partition_with_edge(analyse(even10), 1, 7)
        assert len(calls) == 1

    def test_a_refused_base_colouring_is_raised_at_once(self, monkeypatch):
        # the constructed colouring is audited once, and no sweep follows a
        # miss: a small w with a big and with a small other pole, and a big w
        with open(LARGE) as f:
            row = next(r for r in map(json.loads, f) if r["n"] == 152 and r["seed"] == 1)
        an = analyse(EmbeddedGraph.build(row["rotation"]))
        audited = []

        def refuse(an, b, strict):
            audited.append(b)
            return False

        monkeypatch.setattr(treesplit, "_base_conditions_ok", refuse)
        for v, w in (row["small_w"][0], row["small_w"][1], row["big_w"][0]):
            audited.clear()
            with pytest.raises(CaseUnmatched):
                tree_partition_with_edge(an, v, w)
            assert len(audited) == 1


def _reference_extend_coloring_path_sequence(an, b, paths):
    """The sequence extension with mixed dispatch cases, an uncoloured-scope
    guard in the audit, and a local search over the fresh vertices when a
    prescribed rule misses its audit."""
    ab = an.ab
    cls = an.tp.class_of
    bn = dict(b)
    l_graph = ab.subgraph(an.bs.big)
    steps = []
    for i, fp in enumerate(paths, 1):
        next_l = l_graph.union(ab.subgraph(set(fp.path) | fp.v0))
        fresh = [u for u in fp.path[1:-1] if u not in bn]
        fresh += [u for u in fp.v0 if cls[u] == 3 and u in an.bs.small and u not in bn]
        case, assignment = _reference_dispatch(an, bn, l_graph, fp)
        trial = {**bn, **{u: c for u, c in assignment.items() if u in fresh}}
        if _reference_audit(an, trial, next_l, fp) is not None:
            for bits in itertools.product((1, 2), repeat=len(fresh)):
                trial = {**bn, **dict(zip(fresh, bits))}
                if _reference_audit(an, trial, next_l, fp) is None:
                    case = "local-search"
                    break
            else:
                raise ConditionViolated(i, f"no extension over {fp.path} passes the audit")
        bn = trial
        l_graph = next_l
        steps.append(treesplit.StepInfo(fp.path, case, tuple(sorted(fresh))))
    return bn, steps


def _reference_dispatch(an, bn, l_prev, fp):
    """Each corner pair is tested on both corners, leaving mixed cases."""
    h, bs, a = an.h, an.bs, an.a
    cls = an.tp.class_of
    comb = combine(a, bn)
    shape, v, y, x, z = treesplit._corner_layout(an, fp)
    interior = list(fp.interior)
    d = h.degree

    def split(c, pick, rest):
        spare = [u for u in interior if cls[u] == c]
        s = min(spare) if spare else None
        return {u: pick if u == s else rest for u in interior}

    if shape == "poles" and y in bs.big:
        if d(v) >= 3 and d(y) >= 3:
            return "pole-pair-branching", {u: cls[u] for u in interior}
        if d(v) == 2 and d(y) == 2:
            if treesplit._mono_path_exists(l_prev, comb, v, y) or comb[x] == comb[z] == comb[v]:
                side = comb[x] if comb[x] != comb[v] else comb[z]
                return "pole-pair-degree2-shielded", dict.fromkeys(interior, side)
            return "pole-pair-degree2-split", split(comb[v], comb[v], 3 - comb[v])
        return "pole-pair-mixed", {}
    if shape == "ends" and cls[y] == 3:
        if d(v) >= 3 and d(y) >= 3:
            return "end-pair-branching", dict.fromkeys(interior, 3 - a[x])
        if d(v) == 2 and d(y) == 2:
            if treesplit._mono_path_exists(l_prev, comb, x, z):
                return "end-pair-degree2-shielded", dict.fromkeys(interior, comb[v])
            return "end-pair-degree2-split", split(comb[v], 3 - comb[v], comb[v])
        return "end-pair-mixed", {}
    if shape == "ends":
        if treesplit._mono_path_exists(l_prev, comb, x, z):
            return "far-end-shielded", dict.fromkeys(interior, a[y])
        c = comb[v]
        s = min(u for u in interior if cls[u] == 3)
        return "far-end-split", {u: 3 - c if u == s else c for u in interior}
    c = comb[v]
    if d(v) >= 3:
        return "small-pole-branching", {
            y: 3 - c, **{u: cls[u] if cls[u] in (1, 2) else 3 - c for u in interior}}
    return "small-pole-degree2", {y: c, **dict.fromkeys(interior, 3 - c)}


def _reference_audit(an, trial, l_graph, fp):
    ab, h = an.ab, an.h
    cls = an.tp.class_of
    comb = combine(an.a, trial)
    scope = set(fp.path) | fp.v0
    if any(u not in comb for u in scope):
        return "uncoloured vertex in scope"
    cyc = mono_cycle(l_graph, comb)
    if cyc is not None:
        return f"monochromatic cycle in colour {comb[cyc[0]]}"
    for v in sorted(an.bs.b_of(3) & (fp.v0 | fp.v1)):
        local = scope & ab.adj[v]
        if h.degree(v) >= 3:
            if any(cls[u] in (1, 2) and comb[u] != cls[u] for u in local):
                return "neighbour of a branching vertex off its class colour"
        elif h.degree(v) == 2:
            hot = [u for u in local if comb[u] == comb[v]]
            if len(hot) > 1 or (hot and cls[hot[0]] != comb[v]):
                return "degree-2 vertex keeps a bad same-coloured fan neighbour"
    return None


class TestFaceSparsePipeline:
    def test_rejects_h_outside_the_family(self, h_not_in_family):
        with pytest.raises(NotInFamilyH):
            tree_partition_face_sparse(analyse(h_not_in_family))

    def test_rejects_h_not_2connected(self, h_not_2connected):
        with pytest.raises(HComponentNot2Connected):
            tree_partition_face_sparse(analyse(h_not_2connected))

    def test_rejects_non_even_triangulation(self):
        with pytest.raises(NotEvenTriangulation):
            tree_partition_face_sparse(analyse(EmbeddedGraph.build(TETRAHEDRON)))

    def test_bipyramids(self, octahedron, bipyramid6):
        for g in (octahedron, bipyramid6):
            part, rep = tree_partition_face_sparse(analyse(g))
            assert verify_tree_partition(g.abstract(), part)
            assert rep["all_ok"] and rep["special_case"] == "bipyramid"

    def test_bipyramid_partition_is_audited(self, monkeypatch):
        monkeypatch.setattr(treesplit, "verify_tree_partition", lambda *args: False)
        with pytest.raises(NotTreePartition):
            tree_partition_face_sparse(analyse(gen_bipyramid(3)))

    def test_strict_sweep_is_exhaustive_within_its_budget(self, monkeypatch):
        with open(LARGE) as f:
            row = next(r for r in map(json.loads, f) if r["n"] == 302)
        an = analyse(EmbeddedGraph.build(row["rotation"]))
        assert len(an.bs.b_of(3)) == 16
        audited = []

        def first_only(an, b, strict):
            audited.append(b)
            return len(audited) == 1

        monkeypatch.setattr(treesplit, "_base_conditions_ok", first_only)
        # 2^16 colourings fit the budget: each is checked once, then the sweep ends
        assert len(list(base_coloring_candidates(an, strict=True))) == 1
        assert len(audited) == 2 ** 16
        # a budget below them ends the sweep with a typed error
        audited.clear()
        monkeypatch.setattr(treesplit, "SWEEP_BUDGET", 2 ** 10)
        candidates = base_coloring_candidates(an, strict=True)
        next(candidates)
        with pytest.raises(BudgetExceeded, match=r"\|B3\| = 16 .* 1024 colourings"):
            next(candidates)
        assert 2 ** 10 <= len(audited) <= 2 ** 10 + 1

    def test_all_hypothesis_instances(self, even10, catalog12):
        for g in [even10] + catalog12:
            h, bs = big_vertex_graph(g)
            if not meets_h_hypothesis(h):
                continue
            part, rep = tree_partition_face_sparse(analyse(g))
            assert verify_tree_partition(
                g.abstract(), part, bs.b_of(1), bs.b_of(2)
            )
            assert rep["all_ok"], rep

    def test_report_checks_implications_directly(self, even10):
        tp = tri_partition(even10)
        part, rep = tree_partition_face_sparse(analyse(even10))
        ab = even10.abstract()
        for row in rep["vertices"]:
            v = row["vertex"]
            if row["h_degree"] >= 3:
                n1 = {u for u in ab.adj[v] if tp.class_of[u] == 1}
                n2 = {u for u in ab.adj[v] if tp.class_of[u] == 2}
                assert (row["status"] == "branching-ok") == (
                    n1 <= part.s and n2 <= part.t
                )


class TestFrozenOutputs:
    """Partitions frozen from the pair-scan, per-call-recomputing version
    of the pipelines, on every even triangulation with n <= 12 and its
    mirror; the pipelines must reproduce them exactly."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN) as f:
            return [json.loads(line) for line in f]

    def test_with_edge(self, golden):
        assert sum(len(row["with_edge"]) for row in golden) == 296
        for row in golden:
            g = EmbeddedGraph.build(row["rotation"])
            tp = tri_partition(g)
            bs = classify_big_small(g, tp)
            eligible = [[v, w] for v in sorted(bs.b_of(3)) for w in sorted(g.rotation[v])
                        if tp.class_of[w] in (1, 2)]
            assert eligible == [[v, w] for v, w, _, _ in row["with_edge"]]
            for v, w, s, t in row["with_edge"]:
                part = tree_partition_with_edge(analyse(g), v, w)
                assert (sorted(part.s), sorted(part.t)) == (s, t)

    def test_sequence_extension_matches_reference(self, golden):
        """On every base colouring the face-sparse loop tries, the extension
        and its reference give the same colouring and steps, or both raise."""
        tried = raised = 0
        for row in golden:
            g = EmbeddedGraph.build(row["rotation"])
            if row["face_sparse"] is None or bipyramid_poles(g) is not None:
                continue
            an = treesplit.analyse(g)
            r, r_hat = families_R(an.bs, an.paths)
            for b in treesplit.base_coloring_candidates(an, strict=True):
                tried += 1
                try:
                    want = _reference_extend_coloring_path_sequence(an, b, r + r_hat)
                except ConditionViolated:
                    raised += 1
                    with pytest.raises(ConditionViolated):
                        treesplit.extend_coloring_path_sequence(an, b, r + r_hat)
                    continue
                assert treesplit.extend_coloring_path_sequence(an, b, r + r_hat) == want
                break
        # the one raise is a local search that exhausts its fresh vertices
        assert (tried, raised) == (13, 1)

    def test_opposite_corners_on_face_sparse_instances(self, golden):
        hs = [big_vertex_graph(EmbeddedGraph.build(row["rotation"]))[0]
              for row in golden if row["face_sparse"] is not None]
        assert len(hs) == 20 and all(opposite_corners_check(h) for h in hs)
        assert sum(len(opposite_pairs(h)) for h in hs) == 47

    def test_face_sparse(self, golden):
        assert sum(row["face_sparse"] is not None for row in golden) == 20
        cases, statuses, special = Counter(), Counter(), Counter()
        for row in golden:
            g = EmbeddedGraph.build(row["rotation"])
            h, _ = big_vertex_graph(g)
            assert meets_h_hypothesis(h) == (row["face_sparse"] is not None)
            if row["face_sparse"] is not None:
                part, report = tree_partition_face_sparse(analyse(g))
                assert [sorted(part.s), sorted(part.t)] == row["face_sparse"]
                assert report["all_ok"]
                cases.update(step["case"] for step in report["steps"])
                statuses.update(r["status"] for r in report["vertices"])
                special[report["special_case"]] += 1
        # the reports are pinned too: a miswired dispatch that happens to
        # land on the same partitions still fails here
        assert special == {None: 12, "bipyramid": 8}
        assert cases == {
            "end-pair-branching": 6, "end-pair-degree2-shielded": 1,
            "end-pair-degree2-split": 4, "pole-pair-branching": 2,
            "pole-pair-degree2-shielded": 5, "pole-pair-degree2-split": 6,
            "small-pole-branching": 14, "small-pole-degree2": 9,
        }
        assert statuses == {"unconstrained": 6, "degree2-ok": 16, "branching-ok": 10}


class TestCatalogs13And14:
    """Both pipelines on every orientation of the frozen 13- and 14-vertex
    catalogs, with the reports pinned as the mixed-case dispatch and its
    local search gave them."""

    @pytest.fixture(scope="class")
    def orientations(self, catalog13_14):
        graphs = catalog13_14[13] + catalog13_14[14]
        return graphs + [g.mirror() for g in graphs]

    def test_face_sparse(self, orientations):
        cases, statuses, special, refused = Counter(), Counter(), Counter(), Counter()
        for g in orientations:
            h, bs = big_vertex_graph(g)
            if not meets_h_hypothesis(h):
                with pytest.raises((NotInFamilyH, HComponentNot2Connected)) as exc:
                    tree_partition_face_sparse(analyse(g))
                refused[exc.type.__name__] += 1
                continue
            part, report = tree_partition_face_sparse(analyse(g))
            assert verify_tree_partition(g.abstract(), part, bs.b_of(1), bs.b_of(2))
            assert report["all_ok"]
            special[report["special_case"]] += 1
            cases.update(step["case"] for step in report["steps"])
            statuses.update(r["status"] for r in report["vertices"])
        # 29 of the 80 orientations meet the hypothesis
        assert refused == {"HComponentNot2Connected": 37, "NotInFamilyH": 14}
        assert special == {None: 27, "bipyramid": 2}
        assert cases == {
            "end-pair-branching": 24, "end-pair-degree2-shielded": 3,
            "end-pair-degree2-split": 5, "pole-pair-branching": 15,
            "pole-pair-degree2-shielded": 13, "pole-pair-degree2-split": 13,
            "small-pole-branching": 48, "small-pole-degree2": 11,
        }
        assert statuses == {"degree2-ok": 33, "branching-ok": 30, "unconstrained": 2}

    def test_avoid_every_eligible_edge(self, orientations):
        avoided = refused = 0
        for g in orientations:
            an = treesplit.analyse(g)
            d = dual(g)
            for v in sorted(an.bs.b_of(3)):
                for w in sorted(an.ab.adj[v]):
                    if an.tp.class_of[w] not in (1, 2):
                        continue
                    e_star = d.edge_map[(min(v, w), max(v, w))]
                    if not an.in_family:
                        with pytest.raises(NotInFamilyH):
                            hamilton_avoiding_edge(g, e_star, d)
                        refused += 1
                        continue
                    cyc = hamilton_avoiding_edge(g, e_star, d)
                    assert e_star not in cyc.edges
                    assert verify_hamilton(d.graph.abstract(), cyc)
                    avoided += 1
        assert (avoided, refused) == (890, 290)
