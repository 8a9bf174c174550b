"""Tree-metric polynomial engine and the two bounded-degree engines.

The bounded-degree engines localize the search: a minimum solution uses
only edges in the metric ellipse of some conflict pair, so enumeration is
restricted to the union of those ellipses, on weighted Gamma too.  On
unweighted Gamma that union lies within floor(t) hops of the conflict
vertices, which bounds their number by the host's maximum degree.  The
engines are correct for any maximum degree, merely slow when it is large.
"""

from __future__ import annotations

import math

from .graph import max_degree
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


def _solve_bounded(inst: Instance, delta: int) -> Verdict:
    """Search the ellipse union of the conflicts in brute's order: an edge
    of a solution S in no ellipse fixes no conflict, so a minimum S lies
    in the union, and a YES is brute's certificate.  On unweighted Gamma
    each conflict vertex is within floor(t) hops, in a host of maximum
    degree ``delta``, of one of S's <= 2k ends; more than fit prove NO."""
    checker = ConflictChecker(inst)
    conflicts = frozenset(checker.violated())
    if inst.gamma.is_unweighted():
        vc = {x for e in conflicts for x in e}
        if len(vc) > _ball_size_bound(2 * inst.k, delta, math.floor(inst.t)):
            return Verdict.no()
    candidates = checker.ellipse_union(conflicts)
    sol = first_conflict_free(checker, conflicts, candidates, inst.k)
    return Verdict.of(sol) if sol is not None else Verdict.no()


def solve_bounded_gamma(inst: Instance) -> Verdict:
    """FPT engine parameterized by the maximum degree of Gamma."""
    return _solve_bounded(inst, inst.gamma.max_degree())


def solve_bounded_g(inst: Instance) -> Verdict:
    """FPT engine parameterized by the maximum degree of G."""
    return _solve_bounded(inst, max_degree(inst.g_edges))
