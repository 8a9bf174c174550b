"""Undirected graphs with hop/weighted distances, balls and greedy matchings.

Vertices are dense integer ids ``0..n-1``.  Graphs are immutable after
construction and safe to share between threads.  Unreachable vertices get
the explicit sentinel ``math.inf`` in distance arrays, never a large number.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, deque
from typing import Iterable, Sequence

INF = math.inf

Edge = tuple[int, int]


class GraphError(ValueError):
    """Malformed graph input (bad vertex ids, self-loops, bad weights)."""


def norm_edge(u: int, v: int) -> Edge:
    """Normalize an unordered pair so (u, v) and (v, u) compare equal."""
    return (u, v) if u < v else (v, u)


def dijkstra(adj: Sequence[Sequence[tuple[int, int]]], source: int,
             stop: float = INF) -> list[float]:
    """Distances from ``source`` over a weighted adjacency list.

    The run settles only the vertices within distance ``stop``: every
    distance above ``stop`` is left INF.
    """
    dist: list[float] = [INF] * len(adj)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, wt in adj[u]:
            nd = du + wt
            if nd < dist[v] and nd <= stop:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def find(parent: list[int], x: int) -> int:
    """Union-find root of ``x``, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class Graph:
    """Simple undirected graph with optional positive integer edge weights.

    A missing weight entry means weight 1.  No self-loops, no parallel
    edges.
    """

    __slots__ = ("n", "edges", "weight", "_adj")

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
            normed.add(norm_edge(u, v))
        self.edges: frozenset[Edge] = frozenset(normed)
        w = {}
        for (u, v), wt in (weight or {}).items():
            e = norm_edge(u, v)
            if e not in self.edges:
                raise GraphError(f"weight given for non-edge {e}")
            if wt != int(wt) or wt < 1:
                raise GraphError(f"weight of {e} must be a positive integer")
            if int(wt) != 1:
                w[e] = int(wt)
        self.weight: dict[Edge, int] = w
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (u, v) in self.edges:
            wt = w.get((u, v), 1)
            adj[u].append((v, wt))
            adj[v].append((u, wt))
        for row in adj:
            row.sort()
        self._adj = adj

    def edge_weight(self, u: int, v: int) -> int:
        e = norm_edge(u, v)
        if e not in self.edges:
            raise GraphError(f"{e} is not an edge")
        return self.weight.get(e, 1)

    def neighbors(self, u: int) -> list[int]:
        return [v for v, _ in self._adj[u]]

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def max_degree(self) -> int:
        return max((len(row) for row in self._adj), default=0)

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

    def weighted_distances(self, source: int, stop: float = INF) -> list[float]:
        """Dijkstra distances from ``source`` under edge weights; those
        above ``stop`` are left INF."""
        self._check_source(source)
        return dijkstra(self._adj, source, stop)

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


def greedy_maximal_matching(g: Graph) -> frozenset[Edge]:
    """Maximal matching via greedy scan over edges in lexicographic order.

    Deterministic; the endpoint set of the result is a vertex cover of g,
    and the size is at least half of a maximum matching.
    """
    used = [False] * g.n
    matching = []
    for u, v in sorted(g.edges):
        if not used[u] and not used[v]:
            used[u] = used[v] = True
            matching.append((u, v))
    return frozenset(matching)
