import random
from fractions import Fraction

import pytest

from dilaug.graph import Graph, ball
from dilaug.model import (ConflictChecker, adjacent_conflicts, build_instance,
                          verify_solution)
from dilaug.oracle import solve_min
from dilaug.randinst import random_instance
from dilaug.structured import (EngineInapplicable, solve_bounded_g,
                               solve_bounded_gamma, solve_tree_gamma)

from conftest import far_bridge_instance


class TestTreeEngine:
    def test_path_needs_both_edges(self):
        gamma = Graph(3, [(0, 1), (1, 2)])
        inst = build_instance(gamma, [], 2, 2)
        verdict = solve_tree_gamma(inst)
        assert verdict.yes and verdict.solution == frozenset(gamma.edges)

    def test_path_budget_one_is_no(self):
        gamma = Graph(3, [(0, 1), (1, 2)])
        inst = build_instance(gamma, [], 1, 2)
        assert not solve_tree_gamma(inst).yes

    def test_g_containing_tree_is_trivially_yes(self):
        gamma = Graph(4, [(0, 1), (1, 2), (1, 3)])
        inst = build_instance(gamma, gamma.edges, 0, Fraction(3, 2))
        assert solve_tree_gamma(inst).solution == frozenset()

    def test_non_tree_rejected(self, triangle_path_instance):
        with pytest.raises(EngineInapplicable):
            solve_tree_gamma(triangle_path_instance)

    def test_weighted_tree_rejected(self):
        # The detour 0-2-1 has length 12 <= 3/2 * 10, so the missing tree
        # edge 0-1 is not forced: brute says YES with k = 0.
        gamma = Graph(3, [(0, 1), (1, 2)], {(0, 1): 10})
        inst = build_instance(gamma, [(1, 2), (0, 2)], 0, Fraction(3, 2))
        assert solve_min(inst).yes
        with pytest.raises(EngineInapplicable):
            solve_tree_gamma(inst)

    def test_large_stretch_rejected(self):
        # At t >= 3 a missing tree edge can be served by a detour, so the
        # forced-edge argument no longer applies.
        gamma = Graph(3, [(0, 1), (1, 2)])
        inst = build_instance(gamma, [], 2, 3)
        with pytest.raises(EngineInapplicable):
            solve_tree_gamma(inst)

    def test_agrees_with_oracle(self):
        rng = random.Random(1001)
        for i in range(250):
            inst = random_instance(rng, n_max=8, k_max=3,
                                   ts=(Fraction(3, 2), Fraction(2)),
                                   tree_gamma=True, forest_g=(i % 2 == 0))
            got = solve_tree_gamma(inst)
            expected = solve_min(inst)
            assert got.yes == expected.yes
            if got.yes:
                assert verify_solution(inst, got.solution).ok


class TestBoundedEngines:
    def test_conflict_free_short_circuits(self, triangle_gamma):
        inst = build_instance(triangle_gamma, triangle_gamma.edges, 0, 1)
        assert solve_bounded_gamma(inst).solution == frozenset()
        assert solve_bounded_g(inst).solution == frozenset()

    def test_triangle(self, triangle_path_instance):
        for engine in (solve_bounded_gamma, solve_bounded_g):
            verdict = engine(triangle_path_instance)
            assert verdict.yes and verdict.solution == frozenset({(0, 2)})

    def test_edgeless_g_star(self, star_instance):
        # Degree of G is 0 here; the bounded-g engine must not answer no
        # off its threshold, it has to fall back to the full vertex set.
        gamma = star_instance.gamma
        inst = build_instance(gamma, [], 3, Fraction(2))
        assert solve_bounded_g(inst).yes
        assert not solve_bounded_g(star_instance).yes

    def test_both_agree_with_oracle(self):
        rng = random.Random(2002)
        for i in range(300):
            inst = random_instance(rng, n_max=8, k_max=2, forest_g=(i % 2 == 0))
            expected = solve_min(inst)
            for engine in (solve_bounded_gamma, solve_bounded_g):
                got = engine(inst)
                assert got.yes == expected.yes
                if got.yes:
                    assert verify_solution(inst, got.solution).ok


class TestWeightedGamma:
    # On weighted Gamma a fixing edge can lie far from every conflict
    # vertex: a is 3 hops from them, beyond the Gamma ball of radius
    # floor(t) = 2, then 8 hops, beyond the G ball of radius 4 too.  It
    # still lies in their metric ellipses.
    @pytest.mark.parametrize("sizes", [(3, 4, 2, 4), (8, 6, 3, 10)])
    def test_far_bridge_matches_oracle(self, sizes):
        inst = far_bridge_instance(*sizes)
        assert adjacent_conflicts(inst) == {(2, 4), (3, 5)}
        expected = solve_min(inst)
        assert expected.solution == frozenset({(0, 1)})
        checker = ConflictChecker(inst)
        assert (0, 1) in checker.ellipse_union(checker.violated())
        for engine in (solve_bounded_gamma, solve_bounded_g):
            assert engine(inst) == expected


class TestLocality:
    def test_minimal_solutions_live_near_conflicts(self):
        # Endpoints of a minimum solution stay within floor(t) Gamma-hops
        # of the conflict vertices, and vice versa; in the G-shadow the
        # radius grows to floor(t) squared.
        rng = random.Random(3003)
        seen = 0
        for _ in range(200):
            inst = random_instance(rng, n_max=7, k_max=2)
            conflicts = adjacent_conflicts(inst)
            if not conflicts:
                continue
            verdict = solve_min(inst)
            if not verdict.yes or not verdict.solution:
                continue
            seen += 1
            vc = sorted({x for e in conflicts for x in e})
            vs = sorted({x for e in verdict.solution for x in e})
            t_floor = inst.t.numerator // inst.t.denominator
            assert set(vs) <= set(ball(inst.gamma, vc, t_floor))
            assert set(vc) <= set(ball(inst.gamma, vs, t_floor))
            shadow = Graph(inst.n, inst.g_edges)
            if shadow.max_degree() > 0:
                assert set(vs) <= set(ball(shadow, vc, t_floor * t_floor))
        assert seen > 30
