"""Undirected graphs with hop/weighted distances, balls and greedy matchings.

Vertices are dense integer ids ``0..n-1``.  Graphs are immutable after
construction and safe to share between threads.  Unreachable vertices get
the explicit sentinel ``math.inf`` in distance arrays, never a large number.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, deque
from typing import Iterable, Mapping, Sequence

INF = math.inf

Edge = tuple[int, int]


class GraphError(ValueError):
    """Malformed graph input (bad vertex ids, self-loops, bad weights)."""


def norm_edge(u: int, v: int) -> Edge:
    """Normalize an unordered pair so (u, v) and (v, u) compare equal."""
    return (u, v) if u < v else (v, u)


def dijkstra(adj: Sequence[Sequence[tuple[int, int]]], source: int,
             targets: Iterable[int] | None = None,
             light: Sequence[float] = ()) -> list[float]:
    """Distances from ``source`` over a weighted adjacency list.

    Given ``targets`` and ``light``, each vertex's lightest edge weight, the
    run stops once dist[x] <= popped distance + light[x] for every target x
    (other paths enter x from unsettled vertices); only their distances are
    exact.  Once the source pops, all hold at stop = max(w(source, x) - light[x]).
    """
    dist: list[float] = [INF] * len(adj)
    dist[source] = 0
    heap = [(0, source)]
    pending, stop = None, INF
    if targets is not None:
        pending, near = list(targets), dict(adj[source])
        stop = max((near[x] - light[x] if x in near else INF for x in pending), default=INF)
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        if pending is not None:
            while pending and dist[pending[-1]] <= du + light[pending[-1]]:
                pending.pop()  # decided for good, so only the last needs a look
            if not pending:
                break
        for v, wt in adj[u]:
            nd = du + wt
            if nd < dist[v]:
                dist[v] = nd
                if nd < stop:  # no vertex at or past stop is ever expanded
                    heapq.heappush(heap, (nd, v))
    return dist


def exceeding(adj: Mapping[int, Sequence[tuple[int, int]]] | Sequence[Sequence[tuple[int, int]]],
              source: int, bound: dict[int, int], n: int) -> set[int]:
    """The vertices x of ``bound`` farther from ``source`` than ``bound[x]``.

    x is cleared at its first tentative distance within its bound; the run
    stops once all are cleared and never pushes past the largest open bound.
    Of the ``n`` vertices, it reads the row ``adj[u]`` of those it expands.
    """
    cap = [-1] * n  # the bound of each open vertex, -1 for the others
    left = {x for x, b in bound.items() if x != source or b < 0}
    for x in left:
        cap[x] = bound[x]
    stop = max((cap[x] for x in left), default=-1)
    dist: list[float] = [INF] * n
    dist[source] = 0
    heap = [(0, source)]
    while heap and heap[0][0] < stop:  # a vertex at stop reaches none within it
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, wt in adj[u]:
            nd = du + wt
            if nd < dist[v] and nd <= stop:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
                if nd <= cap[v]:
                    left.remove(v)
                    cap[v] = -1
                    stop = max((cap[x] for x in left), default=-1)
    return left


def find(parent: list[int], x: int) -> int:
    """Union-find root of ``x``, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class Graph:
    """Simple undirected graph with optional positive integer edge weights.

    A missing weight entry means weight 1, and ``light[x]`` is the lightest
    edge weight at x (inf if none).  No self-loops, no parallel edges.
    """

    __slots__ = ("n", "edges", "weight", "light", "_adj")

    def __init__(self, n: int, edges: Iterable[Edge] = (),
                 weight: dict[Edge, int] | None = None):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = n
        normed = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range [0, {n})")
            normed.add((u, v) if u < v else (v, u))
        self.edges: frozenset[Edge] = frozenset(normed)
        w = {}
        for (u, v), wt in (weight or {}).items():
            e = (u, v) if u < v else (v, u)
            if e not in normed:
                raise GraphError(f"weight given for non-edge {e}")
            if wt != int(wt) or wt < 1:
                raise GraphError(f"weight of {e} must be a positive integer")
            if wt != 1:
                w[e] = int(wt)
        self.weight: dict[Edge, int] = w
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (u, v) in normed:
            wt = w.get((u, v), 1)
            adj[u].append((v, wt))
            adj[v].append((u, wt))
        for row in adj:
            row.sort()
        self._adj = adj
        self.light: list[float] = [min([wt for _, wt in row], default=INF) if w
                                   else 1 if row else INF for row in adj]

    def neighbors(self, u: int) -> list[int]:
        return [v for v, _ in self._adj[u]]

    def is_unweighted(self) -> bool:
        return not self.weight

    def _check_source(self, source: int) -> None:
        if not (0 <= source < self.n):
            raise GraphError(f"source {source} out of range [0, {self.n})")

    def hop_distances(self, source: int) -> list[float]:
        """BFS distances from ``source`` ignoring weights; inf if unreachable."""
        self._check_source(source)
        dist: list[float] = [INF] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u]
            for v, _ in self._adj[u]:
                if dist[v] is INF:
                    dist[v] = du + 1
                    queue.append(v)
        return dist

    def weighted_distances(self, source: int,
                           targets: Iterable[int] | None = None) -> list[float]:
        """``dijkstra`` from ``source`` under this graph's edge weights."""
        self._check_source(source)
        return dijkstra(self._adj, source, targets, self.light)

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        return INF not in self.hop_distances(0)

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1 and self.is_connected()

    def is_forest(self) -> bool:
        parent = list(range(self.n))
        for u, v in self.edges:
            ru, rv = find(parent, u), find(parent, v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def ball(g: Graph, w: Sequence[int], radius: int) -> list[int]:
    """All vertices within hop distance ``radius`` of some vertex of ``w``.

    ``w`` itself is included (radius 0 returns ``w``).
    """
    if radius < 0:
        raise GraphError("radius must be nonnegative")
    seen = {}
    queue = deque()
    for v in w:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range [0, {g.n})")
        if v not in seen:
            seen[v] = 0
            queue.append(v)
    while queue:
        u = queue.popleft()
        du = seen[u]
        if du == radius:
            continue
        for v, _ in g._adj[u]:
            if v not in seen:
                seen[v] = du + 1
                queue.append(v)
    return sorted(seen)


def max_degree(edges: Iterable[Edge]) -> int:
    """The maximum degree of the graph with edge set ``edges``."""
    return max(Counter(x for e in edges for x in e).values(), default=0)


def greedy_maximal_matching(edges: Iterable[Edge]) -> frozenset[Edge]:
    """Maximal matching of the normalized edge set ``edges`` via greedy scan
    in lexicographic order.

    Deterministic; the endpoint set of the result is a vertex cover of the
    edges, and the size is at least half of a maximum matching.
    """
    used: set[int] = set()
    matching = []
    for u, v in sorted(edges):
        if u not in used and v not in used:
            used.update((u, v))
            matching.append((u, v))
    return frozenset(matching)
