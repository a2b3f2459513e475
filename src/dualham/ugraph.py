"""Plain undirected graphs and the small algorithms everything else leans on.

Vertices are hashable ids (ints throughout this package).  The class is a
thin wrapper over an adjacency-set dict; all operations treat it as
immutable and return new instances.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from .errors import CycleCapExceeded

Edge = tuple[int, int]

DEFAULT_CYCLE_CAP = 10**6


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


class Graph:
    """Simple undirected graph on an explicit vertex set."""

    __slots__ = ("adj",)

    def __init__(self, adj: dict[int, set[int]]):
        self.adj = adj

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], vertices: Iterable[int] = ()) -> "Graph":
        adj: dict[int, set[int]] = {v: set() for v in vertices}
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at {u}")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        return cls(adj)

    # --- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> list[int]:
        return sorted(self.adj)

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def m(self) -> int:
        return sum(len(nb) for nb in self.adj.values()) // 2

    def edges(self) -> list[Edge]:
        return sorted(norm_edge(u, v) for u in self.adj for v in self.adj[u] if u < v)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return u in self.adj and v in self.adj[u]

    def __contains__(self, v: int) -> bool:
        return v in self.adj

    # --- derived graphs --------------------------------------------------

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        keep = set(keep)
        return Graph({v: self.adj[v] & keep for v in keep})

    def union(self, other: "Graph") -> "Graph":
        adj = {v: set(nb) for v, nb in self.adj.items()}
        for v, nb in other.adj.items():
            adj.setdefault(v, set()).update(nb)
        return Graph(adj)

    # --- connectivity ----------------------------------------------------

    def components(self) -> list[set[int]]:
        seen: set[int] = set()
        out = []
        for s in self.adj:
            if s in seen:
                continue
            comp = {s}
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in self.adj[u]:
                    if w not in comp:
                        comp.add(w)
                        queue.append(w)
            seen |= comp
            out.append(comp)
        return out

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def bfs_dist(self, source: int) -> dict[int, int]:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def is_tree(self) -> bool:
        return self.n > 0 and self.is_connected() and self.m == self.n - 1

    def find_cycle(self) -> list[int] | None:
        """Return some cycle as a vertex list, or None if the graph is a forest."""
        parent: dict[int, int | None] = {}
        for s in self.adj:
            if s in parent:
                continue
            parent[s] = None
            stack = [(s, None)]
            while stack:
                u, p = stack.pop()
                for w in self.adj[u]:
                    if w == p:
                        continue
                    if w in parent:
                        # close the cycle through the two tree paths
                        pu, pw = [u], [w]
                        while parent[pu[-1]] is not None:
                            pu.append(parent[pu[-1]])
                        while parent[pw[-1]] is not None:
                            pw.append(parent[pw[-1]])
                        su, sw = set(pu), set(pw)
                        meet = next(x for x in pu if x in sw)
                        cyc = pu[: pu.index(meet) + 1]
                        tail = pw[: pw.index(meet)]
                        return cyc + tail[::-1]
                    parent[w] = u
                    stack.append((w, u))
        return None

    # --- blocks ----------------------------------------------------------

    def blocks(self) -> tuple[list[set[int]], set[int]]:
        """Biconnected components and cut vertices (iterative Hopcroft-Tarjan).

        Bridges come out as 2-vertex blocks; an isolated vertex is its own
        single-vertex block.  The depth-first walk keeps a stack of
        vertices: when a child u of p finishes with low[u] >= disc[p], the
        vertices above u on that stack, u and p form one block.  The list
        order follows the walk; the blocks and cut vertices do not depend
        on it.
        """
        disc: dict[int, int] = {}
        low: dict[int, int] = {}
        comp_list: list[set[int]] = []
        cut: set[int] = set()
        for root in self.adj:
            if root in disc:
                continue
            if not self.adj[root]:
                comp_list.append({root})
                continue
            disc[root] = low[root] = len(disc)
            vstack = [root]
            call = [(root, iter(self.adj[root]))]
            root_children = 0
            while call:
                u, it = call[-1]
                low_u = low[u]
                for w in it:
                    dw = disc.get(w)
                    if dw is None:
                        low[u] = low_u   # the child lowers it further
                        disc[w] = low[w] = len(disc)
                        vstack.append(w)
                        call.append((w, iter(self.adj[w])))
                        break
                    # the tree edge to u's parent lowers low[u] to at most
                    # disc[parent], which the test below allows
                    if dw < low_u:
                        low_u = dw
                else:
                    call.pop()
                    if not call:
                        continue
                    p = call[-1][0]
                    if low_u < low[p]:
                        low[p] = low_u
                    if low_u >= disc[p]:
                        comp = {p}
                        while True:
                            x = vstack.pop()
                            comp.add(x)
                            if x == u:
                                break
                        comp_list.append(comp)
                        if p == root:
                            root_children += 1
                        else:
                            cut.add(p)
            if root_children > 1:
                cut.add(root)
        return comp_list, cut

    # --- cycles ----------------------------------------------------------

    def simple_cycles(self, cap: int = DEFAULT_CYCLE_CAP) -> Iterator[list[int]]:
        """Yield every simple cycle exactly once (as a vertex list).

        Each cycle is rooted at its minimum vertex with its second vertex
        smaller than its last (direction dedup).  Roots are taken in
        ascending order and each path grows through neighbours in
        ascending order; a cycle is yielded as its last vertex joins the
        path.  Raises CycleCapExceeded once more than `cap` cycles have
        been produced.

        One path and its vertex set are extended and backtracked in place,
        with one iterator over each path vertex's sorted neighbours.  A
        path never leaves the root through its largest neighbour: the
        cycle would have to come back through a larger one.
        """
        count = 0
        nbrs = {v: sorted(nb) for v, nb in self.adj.items()}
        for root in sorted(nbrs):
            # paths rooted at `root` that only use vertices > root
            up = [w for w in nbrs[root] if w > root]
            path = [root]
            on_path = {root}
            stack = [iter(up[:-1])]
            while stack:
                for w in stack[-1]:
                    if w > root and w not in on_path:
                        path.append(w)
                        on_path.add(w)
                        if len(path) >= 3 and path[1] < w and root in self.adj[w]:
                            count += 1
                            if count > cap:
                                raise CycleCapExceeded(f"more than {cap} simple cycles")
                            yield list(path)
                        stack.append(iter(nbrs[w]))
                        break
                else:
                    stack.pop()
                    on_path.discard(path.pop())

    # --- degree-2 chains -------------------------------------------------

    def chains(self) -> list[list[int]]:
        """Maximal paths whose inner vertices all have degree 2.

        Returns anchor-to-anchor walks (anchors have degree != 2), plus one
        closed walk per pure-cycle component (first == last).  Single edges
        between two anchors are included.

        Anchors are scanned in ascending order and every edge of a walk is
        marked seen, so each walk is found once, from its smaller anchor,
        and a closed one leaves through its anchor's smaller neighbour.
        """
        out: list[list[int]] = []
        deg2 = {v for v in self.adj if self.degree(v) == 2}
        anchors = set(self.adj) - deg2
        seen_d2: set[int] = set()
        seen_edge: set[Edge] = set()
        for a in sorted(anchors):
            for s in sorted(self.adj[a]):
                if norm_edge(a, s) in seen_edge:
                    continue
                walk = [a, s]
                seen_edge.add(norm_edge(a, s))
                while walk[-1] in deg2:
                    seen_d2.add(walk[-1])
                    nxt = next(w for w in self.adj[walk[-1]] if w != walk[-2])
                    seen_edge.add(norm_edge(walk[-1], nxt))
                    walk.append(nxt)
                out.append(walk)
        # pure cycles: components made only of degree-2 vertices
        for v in sorted(deg2 - seen_d2):
            if v in seen_d2:
                continue
            walk = [v]
            prev = None
            cur = v
            while True:
                nxt = min(w for w in self.adj[cur] if w != prev) if prev is None \
                    else next(w for w in self.adj[cur] if w != prev)
                walk.append(nxt)
                prev, cur = cur, nxt
                if cur == v:
                    break
            seen_d2.update(walk)
            out.append(walk)
        return out
