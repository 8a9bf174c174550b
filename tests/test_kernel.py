"""The shared conflict kernel against the naive per-subset check.

Instances have weighted Gamma (weights 1-4), stretches other than the
corpus defaults, and random committed edges, none of which
``randinst.random_instance`` generates.  The kernel holds G alone; the
committed edges reach it only through the sets it checks, and the pairs
pending at a set through its conflict analysis.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from dilaug.graph import INF, Graph
from dilaug.model import (ConflictChecker, adjacent_conflicts, build_instance,
                          is_conflict_free, stretch_limit)
from dilaug.search import first_conflict_free, iter_subsets

STRETCHES = (Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(7, 3),
             Fraction(5, 2), Fraction(3))


@st.composite
def searches(draw, max_n=6):
    """(instance, committed edges, candidate edges)."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    tree = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n))
    gamma_edges = sorted(set(tree) | set(extra))
    weights = {e: draw(st.integers(min_value=1, max_value=4)) for e in gamma_edges}
    g_edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    t = draw(st.sampled_from(STRETCHES))
    inst = build_instance(Graph(n, gamma_edges, weights), g_edges, 3, t)
    non_edges = inst.non_edges()
    committed = draw(st.lists(st.sampled_from(non_edges), unique=True, max_size=2)
                     if non_edges else st.just([]))
    candidates = [e for e in non_edges if e not in committed]
    return inst, frozenset(committed), candidates


def naive_first(inst, candidates, k, committed):
    for combo in iter_subsets(candidates, k):
        if is_conflict_free(inst, committed.union(combo)):
            return frozenset(combo)
    return None


stretches = st.one_of(
    st.sampled_from(STRETCHES),
    st.tuples(st.integers(min_value=1, max_value=10 ** 6),
              st.integers(min_value=1, max_value=10 ** 6))
    .map(lambda pq: Fraction(max(pq), min(pq))))


@given(st.integers(min_value=0), st.integers(min_value=1), stretches)
def test_stretch_limit_is_exact(d, dg, t):
    assert (d <= stretch_limit(dg, t)) == (Fraction(d) <= t * dg)
    assert not INF <= stretch_limit(dg, t)


@settings(max_examples=80, deadline=None)
@given(searches())
def test_checker_agrees_with_is_conflict_free(case):
    inst, committed, candidates = case
    checker = ConflictChecker(inst)
    for s in iter_subsets(candidates, 3):
        full = sorted(committed) + list(s)
        assert checker.is_free(full) == is_conflict_free(inst, full)
        assert checker.analysis(full) == adjacent_conflicts(inst, full)


@settings(max_examples=80, deadline=None)
@given(searches())
def test_pending_pairs_of_a_subset_give_the_same_analysis(case):
    # For A within B, the pairs in conflict in G + B are among those of
    # G + A, so checking only A's pending pairs loses nothing.
    inst, committed, candidates = case
    checker = ConflictChecker(inst)
    base = sorted(committed)
    pending = checker.analysis(base).conflict_edges
    for s in iter_subsets(candidates, 3):
        bigger = base + list(s)
        assert checker.analysis(bigger, pending) == checker.analysis(bigger)


@settings(max_examples=80, deadline=None)
@given(searches())
def test_ellipse_filter_never_rejects_a_solution(case):
    inst, committed, candidates = case
    ordered = sorted(candidates)
    checker = ConflictChecker(inst)
    masks = checker.ellipse_masks(ordered, checker.violated(sorted(committed)))
    for s in iter_subsets(ordered, 3):
        if is_conflict_free(inst, committed.union(s)):
            bits = sum(1 << ordered.index(e) for e in s)
            assert all(mask & bits for mask in masks)


@settings(max_examples=80, deadline=None)
@given(searches(), st.integers(min_value=0, max_value=3))
def test_first_conflict_free_matches_naive_loop(case, k):
    inst, committed, candidates = case
    checker = ConflictChecker(inst)
    conflicts = checker.analysis(sorted(committed))
    assert (first_conflict_free(checker, conflicts, candidates, k, committed)
            == naive_first(inst, candidates, k, committed))
