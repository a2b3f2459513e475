"""CI check: exhaustive generation against OEIS A000109 and the frozen
catalogs.

Generates all 1249 triangulations on 11 vertices (checking every split's
odd count) and all 7595 on 12 (checking that even generation builds only
the even ones), and the even ones on 13 and 14.  Run from the repository
root, as CI does:

    PYTHONPATH=src python3 -B tests/ci/generation.py

It exits non-zero with a message on the first failed check.
"""

import hashlib

from dualham.embed import EmbeddedGraph, _min_starts, canonical_form, is_even_triangulation
from dualham import gen
from dualham.gen import gen_even_triangulations, gen_triangulations, split_vertex

# sha256 of `_min_starts` (code and surviving BFS orders) of every output
# and its mirror, one line each, computed before the starts were filtered
# by first-neighbour degree
STARTS_SHA256 = {
    11: "ac5ba0c1c61b41ad7d2f4c4932efaf390db52846d48d9e85007b986504368879",
    12: "da47843b444eeeb85c42ba9eb99c4593abac3f83dedfc9fc32c1838c5fb3f1fb",
}
for n, want in ((11, 1249), (12, 7595)):   # OEIS A000109
    tris = gen_triangulations(n)
    if len(tris) != want:
        raise SystemExit(f"{len(tris)} triangulations on {n} vertices, want {want}")
    for g in tris:
        if g.m != 3 * n - 6:
            raise SystemExit(f"not a triangulation: {g.rotation}")
    # each rotation is the code of its class, so increasing rotations
    # are distinct classes
    if any(a.rotation >= b.rotation for a, b in zip(tris, tris[1:])):
        raise SystemExit(f"rotations on {n} vertices are not strictly increasing")
    if any(canonical_form(g) != g.rotation for g in tris):
        raise SystemExit(f"an output on {n} vertices is not canonically labelled")
    print(len(tris), f"distinct triangulations on {n} vertices, each with {3 * n - 6} edges, canonically labelled")
    digest = hashlib.sha256()
    for g in tris:
        for rot in (g.rotation, tuple(nb[::-1] for nb in g.rotation)):
            digest.update(f"{_min_starts(rot)}\n".encode())
    if digest.hexdigest() != STARTS_SHA256[n]:
        raise SystemExit(f"_min_starts on {n} vertices hashes to {digest.hexdigest()}, want {STARTS_SHA256[n]}")
    print(f"_min_starts of the {n}-vertex outputs and their mirrors: sha256 {digest.hexdigest()}")
    if n == 12:
        # the even classes of the full list, in its order, and only
        # they are built (with the tetrahedron the search starts
        # from); tier-1 covers n <= 11
        want = [g for g in tris if is_even_triangulation(g)]
        real, calls = EmbeddedGraph.build, []
        EmbeddedGraph.build = staticmethod(lambda rotation: calls.append(rotation) or real(rotation))
        got = list(gen_even_triangulations(n))
        EmbeddedGraph.build = real
        if got != want or len(calls) != len(want) + 1:
            raise SystemExit(f"gen_even_triangulations({n}) differs from the even classes of the full list, or built {len(calls)} graphs for {len(want)}")
        print(len(want), f"even classes on {n} vertices, in the order of the full list, from {len(calls)} builds")
    if n == 11:
        # the odd-degree count of every split child, read off the
        # parent, against the built child; tier-1 covers n <= 10
        even = 0
        for g in tris:
            odd = sum(len(nb) % 2 for nb in g.rotation)
            for v, nb in enumerate(g.rotation):
                for i in range(len(nb)):
                    for j in range(i + 1, len(nb)):
                        got = gen._odd_after_split(g, odd, v, i, j)
                        if got != sum(len(r) % 2 for r in split_vertex(g, v, i, j).rotation):
                            raise SystemExit(f"odd count of split({v}, {i}, {j}) of {g.rotation}")
                        even += got == 0
        if even != 87:
            raise SystemExit(f"{even} even split children of 11-vertex parents, want 87")
        print(even, "even split children of the 11-vertex parents, each odd count read off its parent")
# the even ones on 12 vertices are the frozen catalog, by canonical form
with open("tests/data/even_tri_12.jsonl") as f:
    frozen = sorted(canonical_form(EmbeddedGraph.from_json(line)) for line in f if line.strip())
evens = sorted(canonical_form(g) for g in tris if is_even_triangulation(g))
if len(evens) != 8 or evens != frozen:
    raise SystemExit(f"{len(evens)} even triangulations on 12 vertices differ from the catalog")
print(len(evens), "even triangulations on 12 vertices, equal to tests/data/even_tri_12.jsonl")
# on 13 and 14 vertices only the even classes are built
for n, want in ((13, 8), (14, 32)):
    with open(f"tests/data/even_tri_{n}.jsonl") as f:
        frozen = sorted(canonical_form(EmbeddedGraph.from_json(line)) for line in f if line.strip())
    evens = sorted(canonical_form(g) for g in gen_even_triangulations(n))
    if len(evens) != want or evens != frozen:
        raise SystemExit(f"{len(evens)} even triangulations on {n} vertices differ from the catalog")
    print(len(evens), f"even triangulations on {n} vertices, equal to tests/data/even_tri_{n}.jsonl")
