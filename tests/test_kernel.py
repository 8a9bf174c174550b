"""The shared conflict kernel against the naive per-subset check.

Instances come from conftest's ``searches``: weighted Gamma (weights
1-4), t from ``randinst.STRETCHES`` and random committed edges.  The
kernel holds G alone; the committed edges reach it only through the sets
it checks, and the pairs pending at a set through the pairs passed to
``violated``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dilaug.graph import INF
from dilaug.model import (ConflictChecker, adjacent_conflicts,
                          is_conflict_free, stretch_limit)
from dilaug.randinst import STRETCHES
from dilaug.search import first_conflict_free, iter_subsets

from conftest import searches


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
        free = next(checker.violated(full), None) is None
        assert free == is_conflict_free(inst, full)
        assert frozenset(checker.violated(full)) == adjacent_conflicts(inst, full)


@settings(max_examples=80, deadline=None)
@given(searches())
def test_pending_pairs_of_a_subset_give_the_same_analysis(case):
    # For A within B, the pairs in conflict in G + B are among those of
    # G + A, so checking only A's pending pairs loses nothing.
    inst, committed, candidates = case
    checker = ConflictChecker(inst)
    base = sorted(committed)
    pending = frozenset(checker.violated(base))
    for s in iter_subsets(candidates, 3):
        bigger = base + list(s)
        assert (frozenset(checker.violated(bigger, pending))
                == frozenset(checker.violated(bigger)))


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
    conflicts = frozenset(checker.violated(sorted(committed)))
    assert (first_conflict_free(checker, conflicts, candidates, k, committed)
            == naive_first(inst, candidates, k, committed))
