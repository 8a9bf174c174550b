"""Metric embedding of G in Gamma's shortest-path metric.

Houses instances, conflict detection, dilation and solution verification.
Every distance in G + S is an integer or INF, so t enters every stretch
comparison as one integer limit per Gamma edge (``stretch_limit``);
floating point never touches a threshold decision.

The metric is lazy: an instance computes d_Gamma only for the pairs and
rows it is asked about, with Dijkstra runs that stop early for a pair,
until a reader asks for the whole table (``Instance.dist_gamma``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, combinations, groupby
from operator import add, itemgetter
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .graph import INF, Edge, Graph, dijkstra, norm_edge

Stretch = Fraction


class MetricUndefinedError(ValueError):
    """Gamma is disconnected, so the shortest-path metric is undefined."""

    def __init__(self) -> None:
        super().__init__("metric undefined: gamma is disconnected")


class InstanceError(ValueError):
    """Malformed instance data (bad G edges, negative budget, t < 1)."""


class _Rows(dict):
    """Source -> a full distance row from it, computed on first read; a
    hit runs no Python code."""

    def __init__(self, measure: Callable[[int], list[float]]):
        self.measure = measure

    def __missing__(self, source: int) -> list[float]:
        row = self[source] = self.measure(source)
        return row


@dataclass(frozen=True)
class Instance:
    """An immutable (G, Gamma, k, t) instance over Gamma's lazy metric.

    Every G edge (u, v) is embedded with weight d_Gamma(u, v).
    ``d_gamma`` gives one distance, ``gamma_rows[u]`` the row from u,
    ``dist_gamma`` the table, and ``limit[u, v]`` the ``stretch_limit`` of
    each Gamma edge (u, v), u < v.
    """

    gamma: Graph
    g_edges: frozenset[Edge]
    k: int
    t: Stretch
    # Source u -> a Dijkstra row from u over Gamma, INF past its stop.
    _rows: dict[int, list[float]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.gamma.n

    @cached_property
    def gamma_rows(self) -> dict[int, list[float]]:
        """Full rows of d_Gamma by source, each computed on first read: BFS
        on unweighted Gamma, Dijkstra otherwise."""
        gamma = self.gamma
        return _Rows(gamma.hop_distances if gamma.is_unweighted() else gamma.weighted_distances)

    @cached_property
    def dist_gamma(self) -> tuple[tuple[int, ...], ...]:
        """The table of d_Gamma, built from ``gamma_rows`` on first read."""
        rows = self.gamma_rows
        return tuple(tuple(rows[u]) for u in range(self.n))

    def d_gamma(self, u: int, v: int) -> int:
        """d_Gamma(u, v), from the full row of min(u, v) if there is one.

        Else a Gamma edge of weight <= 2 is a shortest path, as any other
        has two edges of weight >= 1.  A heavier one reads a memoised
        Dijkstra run from min(u, v) that stops past the heaviest Gamma edge
        there; only a pair beyond that, a G chord, needs a full row.
        """
        u, v = norm_edge(u, v)
        gamma, full = self.gamma, self.gamma_rows
        row = full.get(u, self._rows.get(u))
        if row is None and (u, v) in gamma.edges:
            w = gamma.edge_weight(u, v)
            if w <= 2:
                return w
            stop = max(gamma.edge_weight(u, x) for x in gamma.neighbors(u) if x > u)
            row = self._rows[u] = gamma.weighted_distances(u, stop)
        return row[v] if row is not None and row[v] != INF else full[u][v]

    @cached_property
    def limit(self) -> dict[Edge, int]:
        return {(u, v): stretch_limit(self.d_gamma(u, v), self.t)
                for u, v in self.gamma.edges}

    def non_edges(self) -> list[Edge]:
        """Non-edges of G in lexicographic order (candidate solution edges)."""
        present = self.g_edges
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                if (u, v) not in present]

    def g_adjacency(self, extra: Iterable[Edge] = ()) -> list[list[tuple[int, int]]]:
        """Weighted adjacency of G + extra, edge weights taken from the metric."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for u, v in chain(self.g_edges, extra):
            w = self.d_gamma(u, v)
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
    """Validate and assemble an instance; computes no distances."""
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
    if not gamma.is_connected():
        raise MetricUndefinedError()
    return Instance(gamma=gamma, g_edges=frozenset(seen), k=k, t=t)


def stretch_limit(d_gamma: int, t: Stretch) -> int:
    """The largest integer d <= t * d_gamma: a distance in G + S, an integer
    or INF, is within t of d_gamma exactly when it is at most this."""
    return t.numerator * d_gamma // t.denominator


def _violations(inst: Instance, s: Iterable[Edge]) -> Iterator[Edge]:
    """The Gamma-adjacent pairs whose G+S distance exceeds t * d_Gamma,
    lazily and in order.

    A pair that is itself an edge of G + S is within its limit.  The
    others get one Dijkstra run per distinct first endpoint u, which stops
    past u's largest limit: a vertex it leaves unsettled is beyond every
    limit of u.
    """
    s = frozenset(s)
    adj = inst.g_adjacency(s)
    limit = inst.limit
    present = inst.g_edges | s
    open_pairs = [e for e in sorted(inst.gamma.edges) if e not in present]
    for u, pairs in groupby(open_pairs, key=itemgetter(0)):
        pairs = list(pairs)
        row = dijkstra(adj, u, max(limit[p] for p in pairs))
        for p in pairs:
            if row[p[1]] > limit[p]:
                yield p


def adjacent_conflicts(inst: Instance, s: Iterable[Edge] = ()) -> frozenset[Edge]:
    """All Gamma-adjacent pairs whose G+S distance exceeds t * d_Gamma."""
    return frozenset(_violations(inst, normalize_solution(s, inst.n)))


def is_conflict_free(inst: Instance, s: Iterable[Edge] = ()) -> bool:
    """Early-exiting emptiness check of adjacent_conflicts (hot path)."""
    return next(_violations(inst, s), None) is None


class ConflictChecker:
    """Conflict checks of G + S for many small sets S.

    Built once per engine call, it computes no row of distances in G
    (``dist``) or Gamma (``inst.gamma_rows``) before its first read.  The
    base conflict pairs are the open Gamma edges (not in G) above their
    ``inst.limit`` in G.  Adding edges only shortens distances, so no
    other pair can conflict once S is added, and a check of S + S' needs
    only the pairs still pending for S.  ``violated`` is the one query: it
    finds the pairs S leaves in conflict, exactly, through the distances
    among S's endpoints; a caller takes their ``frozenset``, or asks
    ``next`` for a yes/no answer that stops at the first conflict.
    ``ellipse_masks`` gives the quick necessary condition a search tests
    first, and ``ellipse_union`` the candidates that can pass it.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self.dg = inst.gamma_rows
        self.dist = _Rows(partial(dijkstra, inst.g_adjacency()))
        limit, present = inst.limit, inst.g_edges
        self.pairs = [(u, v) for u, v in sorted(inst.gamma.edges)
                      if (u, v) not in present and self.dist[u][v] > limit[u, v]]

    def ellipse_masks(self, candidates: Sequence[Edge],
                      pairs: Iterable[Edge]) -> list[int]:
        """One bitmask over ``candidates`` per conflict pair (u, v) of ``pairs``:
        bit i is set when candidate (a, b) lies in the metric ellipse
        d(u, a) + d(a, b) + d(b, v) <= t * d(u, v), in either orientation,
        with d = d_Gamma.  Every edge weighs its d_Gamma, so by the triangle
        inequality a set S that fixes (u, v) contains such a candidate.
        """
        dg = self.dg
        weighted = [(a, b, dg[a][b]) for a, b in candidates]
        masks = []
        for u, v in pairs:
            du, dv, limit = dg[u], dg[v], self.inst.limit[u, v]
            mask = 0
            for i, (a, b, w) in enumerate(weighted):
                if min(du[a] + dv[b], du[b] + dv[a]) + w <= limit:
                    mask |= 1 << i
            masks.append(mask)
        return masks

    def ellipse_union(self, pairs: Iterable[Edge]) -> list[Edge]:
        """The non-edges of G in the ellipse of some pair of ``pairs``,
        sorted.  Both ends of an ellipse edge lie in the pair's vertex
        ellipse d(u, a) + d(a, v) <= t * d(u, v): only pairs inside it are
        tested."""
        dg, present, n = self.dg, self.inst.g_edges, self.inst.n
        union: set[Edge] = set()
        for u, v in pairs:
            du, dv, limit = dg[u], dg[v], self.inst.limit[u, v]
            inside = [a for a in range(n) if du[a] + dv[a] <= limit]
            near = [e for e in combinations(inside, 2) if e not in present]
            [mask] = self.ellipse_masks(near, [(u, v)])
            union.update(e for i, e in enumerate(near) if mask >> i & 1)
        return sorted(union)

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
        dist, dg = self.dist, self.dg
        terms = sorted({x for e in s for x in e})
        at = {x: i for i, x in enumerate(terms)}
        close = [[row[y] for y in terms] for row in [dist[x] for x in terms]]
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
