"""FPT pipeline for Dilation 2-Augmentation when G is K_{d,d}-free.

Stages: conflict graph -> matching-based vertex cover R -> guesses of the
solution edges inside R -> below each guess, one node function that
branches on blocking sets around high-conflict-degree cover vertices and
otherwise is a leaf: twin reduction, then a bounded final enumeration.
The guesses and the leaves read the kernel's ellipse union.  A node
returns a whole solution, one that contains its committed edges, or None.
A child's budget is k - |W'| - |E'| with |W'| >= 1 and R grows only by W',
so every branch cuts the budget and |R| <= 4k + k = 5k.

K_{d,d}-freeness of G is a caller contract.  It is not verified up front
(detection is expensive); if the blocking-set construction ever produces
d witnesses, which is impossible for K_{d,d}-free inputs, the engine
aborts loudly instead of answering.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, count, islice

from .graph import Edge, Graph, greedy_maximal_matching, norm_edge
from .model import ConflictChecker, Instance
from .oracle import Verdict
from .search import first_conflict_free, iter_subsets
from .structured import EngineInapplicable


class NotKddFree(RuntimeError):
    """Blocking-set growth reached d witnesses: the input graph contains a
    K_{d,d}, violating the caller contract."""


@dataclass(frozen=True)
class AnnotatedInstance:
    """A branch node: the base instance plus edges committed so far, the
    remaining budget and the current cover R.  Solution edges added below
    this node must have at most one endpoint in R.
    """

    base: Instance
    added: frozenset[Edge]
    k: int
    r: tuple[int, ...]

    @property
    def g_edges(self) -> frozenset[Edge]:
        return self.base.g_edges | self.added


@dataclass(frozen=True)
class BlockingSet:
    """Witnesses w_1..w_delta for a cover vertex v: any small solution must
    use one of the edges (v, w_i)."""

    center: int
    witnesses: tuple[int, ...]


@dataclass(frozen=True)
class ReducedSearch:
    """Outcome of the twin reduction: candidate endpoints for the final
    enumeration."""

    candidates: tuple[int, ...]


def f_value(i: int, k: int, d: int) -> int:
    """Conflict-count threshold used by the blocking-set construction."""
    if not (0 <= i <= d):
        raise ValueError(f"i={i} out of range [0, {d}]")
    if k < 1 or d < 1:
        raise ValueError("need k >= 1 and d >= 1")
    if i == d:
        return d
    return (d * k ** (d - i) + k ** (d - i + 1)
            + 2 * sum(k ** j for j in range(2, d - i + 1)) + k)


def find_blocking_set(ann: AnnotatedInstance, v: int, d: int,
                      conflicts: frozenset[Edge]) -> BlockingSet | None:
    """Grow the witness sequence for a high-conflict-degree cover vertex.

    Returns None when no vertex of I has more than f(1) G-neighbors among
    v's conflict partners: in that case the branch is a no-instance.
    Raises NotKddFree if d witnesses ever accumulate.  ``conflicts`` is
    the node's set of conflict pairs.
    """
    g = Graph(ann.base.n, ann.g_edges)
    i_set = [x for x in range(ann.base.n) if x not in ann.r]
    u_cur = {x for x in i_set if norm_edge(v, x) in conflicts}
    if len(u_cur) <= f_value(0, ann.k, d):
        raise ValueError("find_blocking_set needs deg_C(v) in I above f(0)")
    witnesses: list[int] = []
    for step in count(1):
        # The first vertex of I with the most G-neighbors in u_cur wins.
        hits = {w: len(u_cur.intersection(g.neighbors(w)))
                for w in i_set if w not in witnesses}
        best = max(hits, key=hits.__getitem__, default=None)
        if best is None or hits[best] <= f_value(step, ann.k, d):
            return BlockingSet(center=v, witnesses=tuple(witnesses)) if witnesses else None
        witnesses.append(best)
        if len(witnesses) == d:
            raise NotKddFree("input not K_{d,d}-free: found d witnesses")
        u_cur &= set(g.neighbors(best))


def branch_blocking(ann: AnnotatedInstance, bs: BlockingSet) -> list[AnnotatedInstance]:
    """Children per the guessing rule: commit edges from the center to a
    non-empty witness subset W', plus any affordable set of non-edges
    between W' and the rest of the new cover.  Budget strictly drops.
    """
    v = bs.center
    g_cur = ann.g_edges
    usable = sorted(w for w in bs.witnesses if norm_edge(v, w) not in g_cur)
    children = []
    for wprime in islice(iter_subsets(usable, ann.k), 1, None):  # W' is not empty
        r = tuple(sorted(set(ann.r).union(wprime)))
        eligible = [(a, b) for a, b in combinations(r, 2) if (a, b) not in g_cur
                    and v not in (a, b) and (a in wprime or b in wprime)]
        budget_left = ann.k - len(wprime)
        added = ann.added.union(norm_edge(v, w) for w in wprime)
        for ex in iter_subsets(eligible, budget_left):
            children.append(AnnotatedInstance(base=ann.base, added=added | frozenset(ex),
                                              k=budget_left - len(ex), r=r))
    return children


def twin_reduce(ann: AnnotatedInstance, conflicts: frozenset[Edge]) -> ReducedSearch:
    """Partition the conflict-free vertices by twin signature and keep one
    representative per class.

    Implemented as a candidate-endpoint restriction rather than a literal
    deletion from Gamma: deleting vertices could change d_Gamma between
    survivors and silently alter edge weights, whereas the replacement
    argument only relocates solution endpoints onto representatives.
    ``conflicts`` is the node's set of conflict pairs.
    """
    vc = {x for e in conflicts for x in e}
    g_cur = ann.g_edges
    gamma = ann.base.gamma
    classes: dict[tuple[frozenset[int], frozenset[int]], list[int]] = {}
    for v in set(range(ann.base.n)) - vc:
        # kdd refuses weighted Gamma, so d_Gamma(u, v) = 1 means adjacency.
        near = vc.intersection(gamma.neighbors(v))
        a = frozenset(u for u in near if norm_edge(u, v) in g_cur)
        b = frozenset(near - a)
        classes.setdefault((a, b), []).append(v)
    reps = {min(members) for members in classes.values()}
    return ReducedSearch(candidates=tuple(sorted(vc | reps)))


def _solve_annotated(ann: AnnotatedInstance, d: int, root: ConflictChecker,
                     pending: frozenset[Edge]) -> frozenset[Edge] | None:
    """A solution that contains ``ann.added``, found below ``ann``, or
    None.  ``pending`` holds its parent's conflict pairs, a superset of its
    own since ``ann.added`` holds the parent's edges.  A leaf is the
    search's ``first_conflict_free``, a node with the same contract."""
    if ann.k == 0:
        return None if next(root.violated(ann.added, pending), None) else ann.added
    conflicts = frozenset(root.violated(ann.added, pending))
    in_r = set(ann.r)
    partners = Counter(x for e in conflicts for x, y in (e, e[::-1]) if y not in in_r)
    f0 = f_value(0, ann.k, d)
    high = next((v for v in ann.r if partners[v] > f0), None)
    if high is not None:
        bs = find_blocking_set(ann, high, d, conflicts)
        if bs is None:
            return None
        for child in branch_blocking(ann, bs):
            solution = _solve_annotated(child, d, root, conflicts)
            if solution is not None:
                return solution
        return None
    # The leaf: an edge outside every pending ellipse fixes no pair.
    allowed = set(twin_reduce(ann, conflicts).candidates)
    candidates = [(a, b) for a, b in root.ellipse_union(conflicts)
                  if {a, b} <= allowed and (a, b) not in ann.added and not {a, b} <= in_r]
    return first_conflict_free(root, conflicts, candidates, ann.k, ann.added)


def kdd_inapplicable(inst: Instance) -> str | None:
    """Why ``solve_kdd`` cannot decide ``inst``; None if it can."""
    if inst.t != 2:
        return "kdd engine requires t = 2"
    if not inst.gamma.is_unweighted():
        return "kdd engine requires an unweighted gamma"
    return None


def solve_kdd(inst: Instance, d: int) -> Verdict:
    """Exact engine for t = 2 on a K_{d,d}-free G (caller contract)."""
    reason = kdd_inapplicable(inst)
    if reason is not None:
        raise EngineInapplicable(reason)
    if d < 1:
        raise ValueError("d must be at least 1")
    # f(0, k, d) >= 3d, and no conflict degree exceeds n - 1: once d >= n
    # no node branches, so d = n answers alike without d powers per node.
    d = min(d, inst.n)
    # Every node's conflicts, the root guesses and every leaf's search come
    # from this one checker of G: a node adds at most k edges, and each
    # check is one capped query per pending pair over G plus those edges.
    root = ConflictChecker(inst)
    conflicts = root.pairs
    matching = greedy_maximal_matching(conflicts)
    if len(matching) > 2 * inst.k:
        return Verdict.no()
    r = tuple(sorted({x for e in matching for x in e}))
    # Guess a minimum solution's edges inside R: like all its edges, they
    # lie in the ellipse of some conflict pair.
    in_r = set(r)
    inside_r = [e for e in root.ellipse_union(conflicts) if in_r.issuperset(e)]
    for committed in map(frozenset, iter_subsets(inside_r, inst.k)):
        ann = AnnotatedInstance(base=inst, added=committed,
                                k=inst.k - len(committed), r=r)
        solution = _solve_annotated(ann, d, root, conflicts)
        if solution is not None:
            return Verdict.of(solution)
    return Verdict.no()
