"""Metric embedding of G in Gamma's shortest-path metric.

Houses instances, conflict detection, dilation and solution verification.
Every distance in G + S is an integer or INF, so t enters every stretch
comparison as one integer limit per Gamma edge (``stretch_limit``);
floating point never touches a threshold decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import add
from typing import Collection, Iterable, Iterator, Sequence

from .graph import INF, Edge, Graph, dijkstra, norm_edge

Stretch = Fraction


class MetricUndefinedError(ValueError):
    """Gamma is disconnected, so the shortest-path metric is undefined."""

    def __init__(self) -> None:
        super().__init__("metric undefined: gamma is disconnected")


class InstanceError(ValueError):
    """Malformed instance data (bad G edges, negative budget, t < 1)."""


@dataclass(frozen=True)
class Instance:
    """An immutable (G, Gamma, k, t) instance with the metric precomputed.

    ``dist_gamma[u][v]`` is the Gamma shortest-path distance; every G edge
    (u, v) is embedded with weight ``dist_gamma[u][v]``.  ``limit[u, v]``
    is the ``stretch_limit`` of each Gamma edge (u, v), u < v.
    """

    gamma: Graph
    g_edges: frozenset[Edge]
    k: int
    t: Stretch
    dist_gamma: tuple[tuple[int, ...], ...]
    limit: dict[Edge, int] = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.gamma.n

    def non_edges(self) -> list[Edge]:
        """Non-edges of G in lexicographic order (candidate solution edges)."""
        present = self.g_edges
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                if (u, v) not in present]

    def g_adjacency(self, extra: Iterable[Edge] = ()) -> list[list[tuple[int, int]]]:
        """Weighted adjacency of G + extra, edge weights taken from the metric."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for u, v in chain(self.g_edges, extra):
            w = self.dist_gamma[u][v]
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None


def _checked_edges(edges: Iterable[Edge], n: int, what: str) -> Iterator[Edge]:
    """``edges`` normalized, each checked to be no self-loop and in range."""
    for u, v in edges:
        if u == v:
            raise InstanceError(f"{what} edge ({u}, {v}) is a self-loop")
        if not (0 <= u < n and 0 <= v < n):
            raise InstanceError(f"{what} edge ({u}, {v}) out of range [0, {n})")
        yield norm_edge(u, v)


def normalize_solution(edges: Iterable[Edge], n: int) -> frozenset[Edge]:
    return frozenset(_checked_edges(edges, n, "solution"))


def build_instance(gamma: Graph, g_edges: Iterable[Edge], k: int,
                   t: Stretch | int) -> Instance:
    """Validate and assemble an instance; fills the n x n metric table."""
    t = Fraction(t)
    if k < 0:
        raise InstanceError("budget k must be nonnegative")
    if t < 1:
        raise InstanceError("stretch t must be at least 1")
    seen: set[Edge] = set()
    for e in _checked_edges(g_edges, gamma.n, "G"):
        if e in seen:
            raise InstanceError(f"duplicate G edge {e}")
        seen.add(e)
    dist = []
    for source in range(gamma.n):
        row = gamma.weighted_distances(source)
        if INF in row:
            raise MetricUndefinedError()
        dist.append(tuple(row))
    limit = {(u, v): stretch_limit(dist[u][v], t) for u, v in gamma.edges}
    return Instance(gamma=gamma, g_edges=frozenset(seen), k=k, t=t,
                    dist_gamma=tuple(dist), limit=limit)


def stretch_limit(d_gamma: int, t: Stretch) -> int:
    """The largest integer d <= t * d_gamma: a distance in G + S, an integer
    or INF, is within t of d_gamma exactly when it is at most this."""
    return t.numerator * d_gamma // t.denominator


def _violations(inst: Instance, s: Iterable[Edge]) -> Iterator[Edge]:
    """The Gamma-adjacent pairs whose G+S distance exceeds t * d_Gamma,
    lazily and in order; one Dijkstra run per distinct first endpoint."""
    adj = inst.g_adjacency(s)
    limit = inst.limit
    rows: dict[int, list[float]] = {}
    for u, v in sorted(inst.gamma.edges):
        row = rows.get(u)
        if row is None:
            row = rows[u] = dijkstra(adj, u)
        if row[v] > limit[u, v]:
            yield u, v


def adjacent_conflicts(inst: Instance, s: Iterable[Edge] = ()) -> frozenset[Edge]:
    """All Gamma-adjacent pairs whose G+S distance exceeds t * d_Gamma."""
    return frozenset(_violations(inst, normalize_solution(s, inst.n)))


def is_conflict_free(inst: Instance, s: Iterable[Edge] = ()) -> bool:
    """Early-exiting emptiness check of adjacent_conflicts (hot path)."""
    return next(_violations(inst, s), None) is None


class ConflictChecker:
    """Conflict checks of G + S for many small sets S.

    Built once per engine call: it holds the all-pairs distances D of G and
    the base conflict pairs, the Gamma edges above their ``inst.limit``
    there.  Adding edges only shortens distances, so no other pair can
    conflict once S is added, and a check of S + S' needs only the pairs
    still pending for S.  ``violated`` is the one query: it finds the
    pairs S leaves in conflict, exactly, through the distances among S's
    endpoints; a caller takes their ``frozenset``, or asks ``next`` for a
    yes/no answer that stops at the first conflict.  ``ellipse_masks``
    gives the quick necessary condition a search tests first.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        adj = inst.g_adjacency()
        self.dist = [dijkstra(adj, u) for u in range(inst.n)]
        self.pairs = [(u, v) for u, v in sorted(inst.gamma.edges)
                      if self.dist[u][v] > inst.limit[u, v]]

    def ellipse_masks(self, candidates: Sequence[Edge],
                      pairs: Iterable[Edge]) -> list[int]:
        """One bitmask over ``candidates`` per conflict pair (u, v) of ``pairs``:
        bit i is set when candidate (a, b) lies in the metric ellipse
        d(u, a) + d(a, b) + d(b, v) <= t * d(u, v), in either orientation,
        with d = d_Gamma.  Every edge weighs its d_Gamma, so by the triangle
        inequality a set S that fixes (u, v) contains such a candidate.
        """
        dg = self.inst.dist_gamma
        masks = []
        for u, v in pairs:
            du, dv, limit = dg[u], dg[v], self.inst.limit[u, v]
            mask = 0
            for i, (a, b) in enumerate(candidates):
                if min(du[a] + dv[b], du[b] + dv[a]) + dg[a][b] <= limit:
                    mask |= 1 << i
            masks.append(mask)
        return masks

    def violated(self, s: Collection[Edge] = (),
                 pairs: Iterable[Edge] | None = None) -> Iterator[Edge]:
        """The pairs of ``pairs`` (default: the base conflict pairs) that
        G + s still leaves above t, lazily.  Exact whenever ``pairs`` holds
        every pair in conflict in G + s, as the pending pairs of any subset
        of s do.

        The distances among the endpoints T of s are closed under s one
        edge at a time; then d(u, v) = min(D[u][v], D[u][x] + C[x][y] +
        D[y][v]) over x, y in T.
        """
        dist, dg = self.dist, self.inst.dist_gamma
        terms = sorted({x for e in s for x in e})
        at = {x: i for i, x in enumerate(terms)}
        close = [[dist[x][y] for y in terms] for x in terms]
        for a, b in s:
            ia, ib, w = at[a], at[b], dg[a][b]
            row_a, row_b = close[ia], close[ib]
            close = [[min(cxy, row[ia] + w + cby, row[ib] + w + cay)
                      for cxy, cay, cby in zip(row, row_a, row_b)]
                     for row in close]
        limit = self.inst.limit
        for u, v in self.pairs if pairs is None else pairs:
            du, dv = dist[u], dist[v]
            to_v = [dv[y] for y in terms]
            best = min((du[x] + min(map(add, row, to_v))
                        for x, row in zip(terms, close)), default=INF)
            if min(du[v], best) > limit[u, v]:
                yield u, v


def dilation(inst: Instance, s: Iterable[Edge] = ()) -> Stretch | float:
    """Max over all pairs of d_{G+S}(u, v) / d_Gamma(u, v); inf if disconnected."""
    s = normalize_solution(s, inst.n)
    adj = inst.g_adjacency(s)
    worst = Fraction(1)
    for u in range(inst.n):
        row = dijkstra(adj, u)
        for v in range(u + 1, inst.n):
            if row[v] == INF:
                return INF
            ratio = Fraction(int(row[v]), inst.dist_gamma[u][v])
            if ratio > worst:
                worst = ratio
    return worst


def verify_solution(inst: Instance, s: Iterable[Edge]) -> VerifyResult:
    """Check budget, disjointness from G, and adjacent-conflict-freeness.

    Only Gamma-adjacent pairs are examined; that certifies dilation <= t
    for every pair, since a conflict-free graph is adjacent-conflict-free
    and vice versa.
    """
    s = normalize_solution(s, inst.n)
    if s & inst.g_edges:
        return VerifyResult(False, "overlaps-G")
    if len(s) > inst.k:
        return VerifyResult(False, "budget-exceeded")
    # _violations yields in sorted order: the first conflict is the least.
    conflict = next(_violations(inst, s), None)
    if conflict is not None:
        return VerifyResult(False, "conflict(%d,%d)" % conflict)
    return VerifyResult(True)
