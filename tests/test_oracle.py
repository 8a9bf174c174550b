import random
from fractions import Fraction
from itertools import combinations

import pytest

from dilaug import search
from dilaug.fileformat import parse_instance
from dilaug.graph import Graph, norm_edge
from dilaug.model import ConflictChecker, build_instance, verify_solution
from dilaug.oracle import SearchBudgetExceeded, Verdict, solve_min
from dilaug.randinst import random_instance
from dilaug.search import first_conflict_free, iter_subsets
from dilaug.structured import solve_bounded_gamma


class TestIterSubsets:
    def test_order(self):
        cands = [(0, 1), (0, 2), (1, 2)]
        got = list(iter_subsets(cands, 2))
        assert got == [(), ((0, 1),), ((0, 2),), ((1, 2),),
                       ((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2))]

    def test_unsorted_input_is_canonicalized(self):
        assert list(iter_subsets([(1, 2), (0, 1)], 1)) == \
            list(iter_subsets([(0, 1), (1, 2)], 1))

    def test_zero_budget(self):
        assert list(iter_subsets([(0, 1)], 0)) == [()]


class TestSolveMin:
    def test_triangle_yes(self, triangle_path_instance):
        verdict = solve_min(triangle_path_instance)
        assert verdict == Verdict(True, frozenset({(0, 2)}))

    def test_star_needs_three_edges(self, star_instance):
        # K_{1,3} at t=2 with edgeless G: no two edges suffice.
        assert not solve_min(star_instance).yes
        gamma = star_instance.gamma
        inst3 = build_instance(gamma, [], 3, Fraction(2))
        verdict = solve_min(inst3)
        assert verdict.yes and len(verdict.solution) == 3

    def test_conflict_free_gives_empty_solution(self, triangle_gamma):
        inst = build_instance(triangle_gamma, triangle_gamma.edges, 2, 1)
        assert solve_min(inst) == Verdict(True, frozenset())

    def test_budget_zero_no(self, triangle_path_instance):
        gamma = triangle_path_instance.gamma
        inst = build_instance(gamma, triangle_path_instance.g_edges, 0,
                              Fraction(3, 2))
        assert not solve_min(inst).yes

    def test_candidate_cap(self, star_instance):
        with pytest.raises(SearchBudgetExceeded):
            solve_min(star_instance, max_candidates=2)

    def test_solutions_always_verify(self):
        rng = random.Random(555)
        yes = 0
        for _ in range(200):
            inst = random_instance(rng, n_max=7, k_max=2)
            verdict = solve_min(inst)
            if verdict.yes:
                yes += 1
                assert verify_solution(inst, verdict.solution).ok
        assert yes > 50

    def test_minimum_cardinality(self):
        # No strictly smaller subset of non-edges can verify.
        rng = random.Random(556)
        for _ in range(80):
            inst = random_instance(rng, n_max=6, k_max=2)
            verdict = solve_min(inst)
            if not verdict.yes or not verdict.solution:
                continue
            smaller = len(verdict.solution) - 1
            for combo in combinations(inst.non_edges(), smaller):
                assert not verify_solution(inst, combo).ok

    def test_relabeling_invariance(self):
        # The yes/no answer is preserved under any vertex permutation.
        rng = random.Random(557)
        for _ in range(60):
            inst = random_instance(rng, n_max=6, k_max=2)
            perm = list(range(inst.n))
            rng.shuffle(perm)
            gamma2 = Graph(inst.n,
                           [(perm[u], perm[v]) for u, v in inst.gamma.edges],
                           {norm_edge(perm[u], perm[v]): w
                            for (u, v), w in inst.gamma.weight.items()})
            inst2 = build_instance(
                gamma2, [(perm[u], perm[v]) for u, v in inst.g_edges],
                inst.k, inst.t)
            assert solve_min(inst).yes == solve_min(inst2).yes


# Case search-105 of perfbench's search corpus at seed 47.  The mask of the
# pair (5, 10) (0-based) is that edge alone, and the root packing is 2 <= k;
# once the edge is committed, (0, 2) and (5, 8) stay pending with disjoint
# masks {(0, 2), (2, 7)} and {(2, 8), (5, 8), (8, 10)}: 2 > k - 1.
SEARCH_105 = """p dilaug 13 2 7/3
e 1 2 3
e 1 3 2
e 1 4 2
e 1 7 2
e 1 8 1
e 3 6 2
e 4 5 3
e 4 8 4
e 6 9 4
e 6 11 1
e 6 13 4
e 7 10 2
e 8 12 1
e 9 12 4
g 1 2
g 1 4
g 1 7
g 1 8
g 3 6
g 4 5
g 4 8
g 5 7
g 6 13
g 7 10
g 8 12
g 9 12
"""


class TestFirstConflictFree:
    def test_committed_edges_count_toward_result(self, star_instance):
        # The committed edge fixes the pair (0, 1) and is returned too.
        checker = ConflictChecker(star_instance)
        sol = first_conflict_free(checker, frozenset(checker.violated([(0, 1)])),
                                  [(0, 2), (0, 3)], 2, {(0, 1)})
        assert sol == frozenset({(0, 1), (0, 2), (0, 3)})
        assert first_conflict_free(checker, frozenset(checker.violated()),
                                   [(0, 2), (0, 3)], 2) is None

    def test_none_when_unsatisfiable(self, star_instance):
        checker = ConflictChecker(star_instance)
        conflicts = frozenset(checker.violated())
        assert first_conflict_free(checker, conflicts, [(1, 2)], 1) is None

    def test_masks_decide_without_a_prefix_loop(self, star_instance, monkeypatch):
        # Weighted Gamma, so no ball bound: each pair's ellipse is the pair
        # alone, and five disjoint masks exceed k = 2.
        path = Graph(6, [(v, v + 1) for v in range(5)], {(0, 1): 3, (2, 3): 3, (4, 5): 3})
        packed = build_instance(path, [], 2, Fraction(3, 2))
        # On an unweighted tree at t < 3 every missing edge is forced.
        tree = build_instance(Graph(4, [(0, 1), (1, 2), (1, 3)]), [(1, 2)], 2, 2)
        # Packing decides only after the forced edge (SEARCH_105 above).
        forced = parse_instance(SEARCH_105)
        expected = [solve_min(packed), solve_min(tree), solve_min(forced)]
        assert expected == [Verdict.no(), Verdict.of([(0, 1), (1, 3)]), Verdict.no()]
        loops = []
        monkeypatch.setattr(search, "combinations",
                            lambda *args: loops.append(args) or combinations(*args))
        assert [solve_bounded_gamma(i) for i in (packed, tree, forced)] == expected
        # The pending pair (0, 3) has an empty mask, as at a kdd leaf.
        checker = ConflictChecker(star_instance)
        conflicts = frozenset(checker.violated())
        assert first_conflict_free(checker, conflicts, [(1, 2)], 1) is None
        # Two empty masks and one singleton: the packing fits k = 3.
        assert first_conflict_free(checker, conflicts, [(0, 1), (1, 2)], 3) is None
        assert loops == []
