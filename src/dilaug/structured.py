"""Tree-metric polynomial engine and the two bounded-degree engines.

The bounded-degree engines localize the search: on unweighted Gamma,
solution endpoints lie near the conflict vertices, so enumeration can be
restricted to a candidate region.  They are correct for any maximum degree, merely slow
when it is large.
"""

from __future__ import annotations

import math

from .graph import Graph, ball
from .model import ConflictChecker, Instance
from .oracle import Verdict
from .search import first_conflict_free


class EngineInapplicable(ValueError):
    """The instance violates a structural precondition of the engine."""


def tree_inapplicable(inst: Instance) -> str | None:
    """Why ``solve_tree_gamma`` cannot decide ``inst``; None if it can."""
    if not inst.gamma.is_tree():
        return "gamma is not a tree"
    if not inst.gamma.is_unweighted():
        # With weights a detour around a tree edge of weight w costs only
        # w + 2 * (lightest edge), so the edge is no longer forced.
        return "tree engine requires an unweighted gamma"
    if inst.t >= 3:
        # A tree edge (u, v) missing from G+S could be bridged by a longer
        # detour once t reaches 3, so the forced-edge argument only covers
        # integral distances <= 2, i.e. t < 3.
        return "tree engine requires t < 3"
    return None


def solve_tree_gamma(inst: Instance) -> Verdict:
    """When Gamma is an unweighted tree, every solution must contain all
    tree edges missing from G; the only question is whether they fit in the
    budget.
    """
    reason = tree_inapplicable(inst)
    if reason is not None:
        raise EngineInapplicable(reason)
    missing = sorted(inst.gamma.edges - inst.g_edges)
    if len(missing) > inst.k:
        return Verdict.no()
    return Verdict.of(missing)


def _ball_size_bound(count: int, delta: int, radius: int) -> int:
    # |N^r(U)| <= |U| * sum_{i=0}^{r} delta^i.  The usual delta^{r+1}
    # simplification is wrong for delta <= 1, so keep the exact sum.
    return count * sum(delta ** i for i in range(radius + 1))


def _solve_bounded(inst: Instance, host: Graph, radius: int) -> Verdict:
    """Search the non-edges within ``radius`` hops of the conflict vertices
    in ``host``.  When the host is edgeless (the degree bound is vacuous)
    or Gamma is weighted (a fixing path may run many hops from the
    conflicts), the region is every vertex and no ball-size bound applies:
    the search is then brute's, in brute's order."""
    checker = ConflictChecker(inst)
    conflicts = frozenset(checker.violated())
    delta = host.max_degree()
    if delta == 0 or not inst.gamma.is_unweighted():
        region = set(range(inst.n))
    else:
        vc = {x for e in conflicts for x in e}
        if len(vc) > _ball_size_bound(2 * inst.k, delta, math.floor(inst.t)):
            return Verdict.no()
        region = set(ball(host, vc, radius))
    candidates = [e for e in inst.non_edges() if e[0] in region and e[1] in region]
    sol = first_conflict_free(checker, conflicts, candidates, inst.k)
    return Verdict.of(sol) if sol is not None else Verdict.no()


def solve_bounded_gamma(inst: Instance) -> Verdict:
    """FPT engine parameterized by the maximum degree of Gamma.  Gamma is
    connected, so it is edgeless only when n = 1, with no conflict."""
    return _solve_bounded(inst, inst.gamma, math.floor(inst.t))


def solve_bounded_g(inst: Instance) -> Verdict:
    """FPT engine parameterized by the maximum degree of G.

    The candidate region is a hop-distance ball in the unweighted shadow
    of G, of radius floor(t)^2.
    """
    return _solve_bounded(inst, Graph(inst.n, inst.g_edges), math.floor(inst.t) ** 2)
