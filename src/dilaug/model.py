"""Metric embedding of G in Gamma's shortest-path metric.

Houses instances, conflict detection and solution verification.
Every distance in G + S is an integer or INF, so t enters every stretch
comparison as one integer limit per Gamma edge (``stretch_limit``);
floating point never touches a threshold decision.

The metric is lazy: an instance computes d_Gamma only for the pairs and
rows it is asked about, each pair with one bounded bidirectional query
(``graph.within``); the conflict scan reads it only where Gamma's own edge
weights, as upper bounds, leave a pair undecided.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations
from typing import Callable, Collection, Iterable, Iterator

from .graph import INF, Edge, Graph, norm_edge, within

Stretch = Fraction


class MetricUndefinedError(ValueError):
    """Gamma is disconnected, so the shortest-path metric is undefined."""

    def __init__(self) -> None:
        super().__init__("metric undefined: gamma is disconnected")


class InstanceError(ValueError):
    """Malformed instance data (bad G edges, negative budget, t < 1)."""


class _Rows(dict):
    """Key -> the value measured from it on first read: a distance row by
    source, a pair's d_Gamma, or a conflict pair's ellipse; a hit runs no
    Python code."""

    def __init__(self, measure: Callable):
        self.measure = measure

    def __missing__(self, key):
        value = self[key] = self.measure(key)
        return value


@dataclass(frozen=True)
class Instance:
    """An immutable (G, Gamma, k, t) instance over Gamma's lazy metric.

    Every G edge (u, v) is embedded with weight d_Gamma(u, v).
    ``d_gamma`` gives one distance and ``gamma_rows[u]`` the row from u.
    On weighted Gamma, no G or Gamma edge needs a full row.
    """

    gamma: Graph
    g_edges: frozenset[Edge]
    k: int
    t: Stretch

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
    def _pairs(self) -> dict[Edge, float]:
        """Pair -> d_Gamma, by one memoised ``within`` query over Gamma for
        a path shorter than the pair's Gamma weight w (INF off Gamma, so no
        cap); it never pushes the edge itself, and min(w, path) is d_Gamma."""
        adj, weight = self.gamma.adj, self.gamma.weight  # no cycle through self
        return _Rows(lambda e: min(weight.get(e, INF),
                                   within(adj, e[0], e[1], weight.get(e, INF) - 1)))

    def d_gamma(self, u: int, v: int) -> int:
        """d_Gamma(u, v), from the full row of min(u, v) if there is one.

        Else a Gamma edge of weight <= 2 is a shortest path, since every
        other path has two edges of weight >= 1.  A heavier Gamma edge and,
        on weighted Gamma, a G chord (a G edge off Gamma) read the pair's
        memoised query.  The rest, such as a solution edge or a chord on
        unweighted Gamma (a BFS row), read a full row.
        """
        u, v = norm_edge(u, v)
        gamma, full = self.gamma, self.gamma_rows
        if u not in full:
            if (u, v) in gamma.edges:
                w = gamma.weight.get((u, v), 1)
                return w if w <= 2 else self._pairs[u, v]
            if gamma.weight and (u, v) in self.g_edges:
                return self._pairs[u, v]
        return full[u][v]

    def non_edges(self) -> list[Edge]:
        """Non-edges of G in lexicographic order (candidate solution edges)."""
        present = self.g_edges
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                if (u, v) not in present]


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

    A pair that is itself an edge of G + S is within its limit.  Each
    other (open) pair, of Gamma weight w, is first checked by ``within``,
    which stops at the first walk within its cap, over the *upper graph*:
    the G + S edges on Gamma at their Gamma weights, upper bounds of
    d_Gamma.  The cap is ``stretch_limit(w)``.  A walk of length L clears
    the pair once d_Gamma >= need, the least d with t * d >= L: when
    need <= 2 (need <= w, and any other path has two edges), or when Gamma
    has no path of length need - 1 or less.  Else that query is d_Gamma,
    and the pair is checked at its limit over the upper graph, then over
    G + S at exact weights.  Every row is built on first read.
    """
    gamma, t, present = inst.gamma, inst.t, inst.g_edges.union(s)
    chords: dict[int, list[int]] = {}  # G + S edges off Gamma, not in upper
    for a, b in present - gamma.edges:
        chords.setdefault(a, []).append(b)
        chords.setdefault(b, []).append(a)
    upper = _Rows(lambda a: [(b, w) for b, w in gamma.adj[a]
                             if ((a, b) if a < b else (b, a)) in present])
    exact = _Rows(lambda a: [(b, inst.d_gamma(a, b)) for b in
                             [b for b, _ in upper[a]] + chords.get(a, [])])
    for u, v in sorted(gamma.edges - present):
        top = stretch_limit(gamma.weight.get((u, v), 1), t)
        walk = within(upper, u, v, top, first=True)
        if walk <= top:
            need = -(-walk * t.denominator // t.numerator)
            if need <= 2 or (d := within(gamma.adj, u, v, need - 1)) > need - 1:
                continue
            lim = stretch_limit(d, t)
            if within(upper, u, v, lim, first=True) <= lim:
                continue
        else:
            lim = stretch_limit(inst.d_gamma(u, v), t)
        if within(exact, u, v, lim, first=True) > lim:
            yield u, v


def adjacent_conflicts(inst: Instance, s: Iterable[Edge] = ()) -> frozenset[Edge]:
    """All Gamma-adjacent pairs whose G+S distance exceeds t * d_Gamma."""
    return frozenset(_violations(inst, normalize_solution(s, inst.n)))


def is_conflict_free(inst: Instance, s: Iterable[Edge] = ()) -> bool:
    """Early-exiting emptiness check of adjacent_conflicts (brute's per-subset check)."""
    return next(_violations(inst, s), None) is None


def _ellipse(inst: Instance, limit: dict[Edge, int], pair: Edge) -> frozenset[Edge]:
    """The non-edges (a, b) of G in the metric ellipse of ``pair`` (u, v),
    whose ``stretch_limit`` is ``limit[pair]``: d(u, a) + d(a, b) + d(b, v)
    <= t * d(u, v), in either orientation, with d = d_Gamma.  Every edge
    weighs its d_Gamma, so by the triangle inequality a set S that fixes
    (u, v) contains such an edge, and both its ends lie in the vertex
    ellipse d(u, a) + d(a, v) <= t * d(u, v): only pairs inside it are
    tested."""
    dg, present = inst.gamma_rows, inst.g_edges
    du, dv, bound = dg[pair[0]], dg[pair[1]], limit[pair]
    inside = [a for a in range(inst.n) if du[a] + dv[a] <= bound]
    return frozenset((a, b) for a, b in combinations(inside, 2)
                     if (a, b) not in present
                     and min(du[a] + dv[b], du[b] + dv[a]) + dg[a][b] <= bound)


class ConflictChecker:
    """Conflict checks of G + S for many small sets S.

    Built once per engine call, it holds G's adjacency ``g_adj``, each
    edge weighted by its d_Gamma, and keeps no distances in G; rows of
    d_Gamma (``inst.gamma_rows``) are computed on first read.
    ``limit`` holds the ``stretch_limit`` of each open pair, a Gamma edge
    not in G (one in G is within its limit, since d_G <= d_Gamma).
    ``violated`` is the one query: it finds the pairs S leaves in
    conflict, exactly, with one capped ``within`` query per pair over
    G + S; a caller takes their ``frozenset``, or asks ``next`` for a
    yes/no answer that stops at the first conflict.  ``pairs``, the base
    conflict pairs, is its ``frozenset`` for S empty over every open pair.
    Adding edges only shortens distances, so no other pair can conflict
    once S is added, and a check of S + S' needs only the pairs still
    pending for S.
    ``ellipses[pair]`` holds the non-edges of G in the pair's metric
    ellipse, built once on first read: a set that fixes the pair meets it,
    the quick necessary condition a search tests first.  ``ellipse_union``
    is the candidates that can pass it.
    """

    def __init__(self, inst: Instance):
        self.dg = inst.gamma_rows
        self.g_adj: list[list[tuple[int, int]]] = [[] for _ in range(inst.n)]
        for u, v in inst.g_edges:
            w = inst.d_gamma(u, v)
            self.g_adj[u].append((v, w))
            self.g_adj[v].append((u, w))
        self.limit = {(u, v): stretch_limit(inst.d_gamma(u, v), inst.t)
                      for u, v in inst.gamma.edges - inst.g_edges}
        self.pairs = frozenset(self.violated((), self.limit))
        self.ellipses = _Rows(partial(_ellipse, inst, self.limit))  # no cycle through self

    def ellipse_union(self, pairs: Iterable[Edge]) -> list[Edge]:
        """The non-edges of G in the ellipse of some pair of ``pairs``, sorted."""
        return sorted(set().union(*(self.ellipses[p] for p in pairs)))

    def violated(self, s: Collection[Edge] = (),
                 pairs: Iterable[Edge] | None = None) -> Iterator[Edge]:
        """The pairs of ``pairs`` (default: the base conflict pairs) that
        G + s still leaves above t, lazily.  Exact whenever ``pairs`` holds
        every pair in conflict in G + s, as the pending pairs of any subset
        of s do.

        Each pair asks ``within`` once, over G plus s's edges at their
        d_Gamma weights, for a path within its limit.
        """
        adj, dg, limit = self.g_adj.copy(), self.dg, self.limit
        for a, b in s:
            w = dg[a][b]
            adj[a] = adj[a] + [(b, w)]
            adj[b] = adj[b] + [(a, w)]
        for u, v in self.pairs if pairs is None else pairs:
            if within(adj, u, v, limit[u, v], first=True) > limit[u, v]:
                yield u, v


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
