"""Undirected graphs with hop/weighted distances, bounded pair queries
(``within``), balls and greedy matchings.

Vertices are dense integer ids ``0..n-1``.  Graphs are immutable after
construction and safe to share between threads.  Unreachable vertices get
the explicit sentinel ``math.inf`` in distance arrays, never a large number.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Iterable, Mapping, Sequence

INF = math.inf

Edge = tuple[int, int]


class GraphError(ValueError):
    """Malformed graph input (bad vertex ids, self-loops, bad weights)."""


def norm_edge(u: int, v: int) -> Edge:
    """Normalize an unordered pair so (u, v) and (v, u) compare equal."""
    return (u, v) if u < v else (v, u)


def within(adj: Mapping[int, Sequence[tuple[int, float]]] | Sequence[Sequence[tuple[int, float]]],
           s: int, t: int, cap: float, first: bool = False) -> float:
    """d(s, t) over ``adj`` if it is at most ``cap``, else INF; with
    ``first``, the length of the first path within ``cap`` found instead.

    Dijkstra runs from both ends, each pop from the side whose heap top is
    smaller, and pushes no distance past ``cap``.  Labelling a vertex that
    the other side has labelled is a meeting: a path.  The run stops once
    the two tops sum to at least the best meeting, since a shorter path
    would have met at a vertex both sides have already labelled, or to
    more than ``cap``.  It reads the row ``adj[u]`` of each vertex it
    expands, so ``adj`` may be a lazy mapping.
    """
    if s == t:
        return 0 if cap >= 0 else INF
    ds, dt, hs, ht = {s: 0}, {t: 0}, [(0, s)], [(0, t)]
    best = INF
    while hs and ht:
        a, b = hs[0][0], ht[0][0]
        if a + b >= best or a + b > cap:
            break
        mine, other, heap = (ds, dt, hs) if a <= b else (dt, ds, ht)
        du, u = heapq.heappop(heap)
        if du > mine[u]:
            continue
        for v, wt in adj[u]:
            nd = du + wt
            if nd <= cap and nd < mine.get(v, INF):
                mine[v] = nd
                heapq.heappush(heap, (nd, v))
                if v in other and nd + other[v] < best:
                    best = nd + other[v]
                    if first and best <= cap:
                        return best
    return best if best <= cap else INF


def find(parent: list[int], x: int) -> int:
    """Union-find root of ``x``, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class Graph:
    """Simple undirected graph with optional positive integer edge weights.

    A missing weight entry means weight 1, and ``adj[u]`` lists u's
    (neighbour, weight) pairs in order.  No self-loops, no parallel edges.
    """

    __slots__ = ("n", "edges", "weight", "adj")

    def __init__(self, n: int, edges: Iterable[Edge] = (),
                 weight: dict[Edge, int] | None = None):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        full: dict[Edge, int] = {}
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range [0, {n})")
            full[(u, v) if u < v else (v, u)] = 1
        for (u, v), wt in (weight or {}).items():
            e = (u, v) if u < v else (v, u)
            if e not in full:
                raise GraphError(f"weight given for non-edge {e}")
            if not 1 <= wt < INF or wt != int(wt):  # NaN fails the first test
                raise GraphError(f"weight of {e} must be a positive integer")
            full[e] = int(wt)
        self._build(n, full)

    @classmethod
    def _checked(cls, n: int, weight: dict[Edge, int]) -> Graph:
        """``Graph(n, weight, weight)`` for a normalized, checked edge -> weight."""
        graph = cls.__new__(cls)
        graph._build(n, weight)
        return graph

    def _build(self, n: int, weight: dict[Edge, int]) -> None:
        self.n = n
        self.edges: frozenset[Edge] = frozenset(weight)
        self.weight: dict[Edge, int] = {e: wt for e, wt in weight.items() if wt != 1}
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (u, v), wt in weight.items():
            adj[u].append((v, wt))
            adj[v].append((u, wt))
        for row in adj:
            row.sort()
        self.adj = adj

    def neighbors(self, u: int) -> list[int]:
        return [v for v, _ in self.adj[u]]

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
            for v, _ in self.adj[u]:
                if dist[v] is INF:
                    dist[v] = du + 1
                    queue.append(v)
        return dist

    def weighted_distances(self, source: int) -> list[float]:
        """Dijkstra distances from ``source`` under this graph's edge
        weights; inf if unreachable."""
        self._check_source(source)
        dist: list[float] = [INF] * self.n
        dist[source] = 0
        heap = [(0, source)]
        while heap:
            du, u = heapq.heappop(heap)
            if du > dist[u]:
                continue
            for v, wt in self.adj[u]:
                nd = du + wt
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        return INF not in self.hop_distances(0)

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
    rows = [g.hop_distances(v) for v in set(w)]
    return [x for x in range(g.n) if any(row[x] <= radius for row in rows)]


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
