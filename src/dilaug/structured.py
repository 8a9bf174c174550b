"""The bounded-degree engine, under the names of the paper's two
parameterizations.

The engine localizes the search: a minimum solution uses only edges in the
metric ellipse of some conflict pair, so enumeration is restricted to the
union of those ellipses, on weighted Gamma too.  On unweighted Gamma the
conflict vertices lie within floor(t) hops of a solution's ends, in Gamma
and in G, which bounds their number by the smaller maximum degree.  The
order is: base conflict scan, ball bound, a packing of the ellipses as
they are built, union, search.  The ball bound needs no ellipse, so it
goes first: on Gamma = K_60 with a path G it decides, where packing
cannot and builds all 1,653 ellipses.  The engine is correct for any
degree, merely slow when both are large.  When
Gamma is an unweighted tree and t < 3, the ellipse of each conflict pair
holds only the pair itself, so the search's forced-edge rule decides the
instance without enumerating a subset.
"""

from __future__ import annotations

import math

from .model import ConflictChecker, Instance
from .oracle import Verdict
from .search import first_conflict_free


class EngineInapplicable(ValueError):
    """The instance violates a structural precondition of the engine."""


def _ball_size_bound(count: int, delta: int, radius: int) -> int:
    # |N^r(U)| <= |U| * sum_{i=0}^{r} delta^i.  The usual delta^{r+1}
    # simplification is wrong for delta <= 1, so keep the exact sum.
    return count * sum(delta ** i for i in range(radius + 1))


def _solve_bounded(inst: Instance) -> Verdict:
    """Search the ellipse union of the conflicts in brute's order: an edge
    of a solution S in no ellipse fixes no conflict, so a minimum S lies
    in the union, and a YES is brute's certificate.  First, on unweighted
    Gamma, each conflict vertex is within floor(t) hops, in Gamma and in
    G, of one of S's <= 2k ends; more than fit in the smaller ball prove
    NO.  Then each pair's ellipse, built in pair order, joins a greedy
    packing: S needs an edge in every ellipse, so an empty one, or more
    than k pairwise disjoint ones, prove NO without the rest."""
    checker = ConflictChecker(inst)
    conflicts = checker.pairs
    if inst.gamma.is_unweighted():
        vc = {x for e in conflicts for x in e}
        delta = min(max(map(len, adj), default=0) for adj in (inst.gamma.adj, checker.g_adj))
        if len(vc) > _ball_size_bound(2 * inst.k, delta, math.floor(inst.t)):
            return Verdict.no()
    packed, used = 0, set()
    for pair in sorted(conflicts):
        ellipse = checker.ellipses[pair]
        if used.isdisjoint(ellipse):
            packed += 1
            if not ellipse or packed > inst.k:
                return Verdict.no()
            used |= ellipse
    candidates = checker.ellipse_union(conflicts)
    sol = first_conflict_free(checker, conflicts, candidates, inst.k)
    return Verdict.of(sol) if sol is not None else Verdict.no()


def solve_bounded_gamma(inst: Instance) -> Verdict:
    """FPT in k + t + the maximum degree of Gamma (see ``_solve_bounded``)."""
    return _solve_bounded(inst)


def solve_bounded_g(inst: Instance) -> Verdict:
    """FPT in k + t + the maximum degree of G (see ``_solve_bounded``)."""
    return _solve_bounded(inst)


def solve_tree_gamma(inst: Instance) -> Verdict:
    """``_solve_bounded`` under a library name that tests and the
    benchmark's tracer call; no CLI engine runs it."""
    return _solve_bounded(inst)
