"""Tree-metric polynomial engine and the two bounded-degree engines.

The bounded-degree engines localize the search: conflict endpoints must
lie near the conflict vertices, so enumeration can be restricted to a
candidate region.  They are correct for any maximum degree, merely slow
when it is large.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, ball
from .model import ConflictChecker, Instance
from .oracle import Verdict
from .search import first_conflict_free


class EngineInapplicable(ValueError):
    """The instance violates a structural precondition of the engine."""


@dataclass(frozen=True)
class CandidateRegion:
    """Vertex set guaranteed to contain every solution-edge endpoint."""

    vertices: tuple[int, ...]


def solve_tree_gamma(inst: Instance) -> Verdict:
    """When Gamma is an unweighted tree, every solution must contain all
    tree edges missing from G; the only question is whether they fit in the
    budget.
    """
    if not inst.gamma.is_tree():
        raise EngineInapplicable("gamma is not a tree")
    if not inst.gamma.is_unweighted():
        # With weights a detour around a tree edge of weight w costs only
        # w + 2 * (lightest edge), so the edge is no longer forced.
        raise EngineInapplicable("tree engine requires an unweighted gamma")
    if inst.t >= 3:
        # A tree edge (u, v) missing from G+S could be bridged by a longer
        # detour once t reaches 3, so the forced-edge argument only covers
        # integral distances <= 2, i.e. t < 3.
        raise EngineInapplicable("tree engine requires t < 3")
    missing = sorted(inst.gamma.edges - inst.g_edges)
    if len(missing) > inst.k:
        return Verdict.no()
    return Verdict.of(missing)


def _floor(t) -> int:
    return t.numerator // t.denominator


def _ball_size_bound(count: int, delta: int, radius: int) -> int:
    # |N^r(U)| <= |U| * sum_{i=0}^{r} delta^i.  The usual delta^{r+1}
    # simplification is wrong for delta <= 1, so keep the exact sum.
    return count * sum(delta ** i for i in range(radius + 1))


def _endpoint_candidates(inst: Instance, region: CandidateRegion) -> list:
    allowed = set(region.vertices)
    return [e for e in inst.non_edges() if e[0] in allowed and e[1] in allowed]


def solve_bounded_gamma(inst: Instance) -> Verdict:
    """FPT engine parameterized by the maximum degree of Gamma."""
    checker = ConflictChecker(inst)
    conflicts = checker.analysis()
    if not conflicts:
        return Verdict.of(())
    vc = conflicts.conflict_vertices
    t_floor = _floor(inst.t)
    delta = inst.gamma.max_degree()
    if len(vc) > _ball_size_bound(2 * inst.k, delta, t_floor):
        return Verdict.no()
    region = CandidateRegion(tuple(ball(inst.gamma, vc, t_floor)))
    sol = first_conflict_free(checker, _endpoint_candidates(inst, region), inst.k)
    return Verdict.of(sol) if sol is not None else Verdict.no()


def solve_bounded_g(inst: Instance) -> Verdict:
    """FPT engine parameterized by the maximum degree of G.

    The candidate region is a hop-distance ball in the unweighted shadow
    of G.  With an edgeless G the degree threshold is vacuous, so the
    region falls back to all vertices instead of answering no.
    """
    checker = ConflictChecker(inst)
    conflicts = checker.analysis()
    if not conflicts:
        return Verdict.of(())
    vc = conflicts.conflict_vertices
    t_floor = _floor(inst.t)
    shadow = Graph(inst.n, inst.g_edges)
    delta = shadow.max_degree()
    if delta == 0:
        region = CandidateRegion(tuple(range(inst.n)))
    else:
        if len(vc) > _ball_size_bound(2 * inst.k, delta, t_floor):
            return Verdict.no()
        region = CandidateRegion(tuple(ball(shadow, vc, t_floor * t_floor)))
    sol = first_conflict_free(checker, _endpoint_candidates(inst, region), inst.k)
    return Verdict.of(sol) if sol is not None else Verdict.no()
