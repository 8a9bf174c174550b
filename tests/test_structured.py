import random
from fractions import Fraction
from itertools import combinations

import pytest

from dilaug import model, structured
from dilaug.graph import Graph, ball
from dilaug.model import (ConflictChecker, adjacent_conflicts, build_instance,
                          verify_solution)
from dilaug.oracle import Verdict, solve_min
from dilaug.randinst import STRETCHES, random_instance
from dilaug.structured import (solve_bounded_g, solve_bounded_gamma,
                               solve_tree_gamma)

from conftest import far_bridge_instance, max_degree


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

    def test_non_tree_matches_brute(self, triangle_path_instance):
        assert solve_tree_gamma(triangle_path_instance) == solve_min(triangle_path_instance)

    def test_weighted_tree_matches_brute(self):
        # The detour 0-2-1 has length 12 <= 3/2 * 10, so the missing tree
        # edge 0-1 is not forced: brute says YES with k = 0.
        gamma = Graph(3, [(0, 1), (1, 2)], {(0, 1): 10})
        inst = build_instance(gamma, [(1, 2), (0, 2)], 0, Fraction(3, 2))
        assert solve_tree_gamma(inst) == solve_min(inst) == Verdict.of([])

    def test_large_stretch_matches_brute(self):
        # At t >= 3 a missing tree edge can be served by a detour, so it is
        # no longer forced.
        gamma = Graph(3, [(0, 1), (1, 2)])
        inst = build_instance(gamma, [], 2, 3)
        assert solve_tree_gamma(inst) == solve_min(inst)

    def test_agrees_with_oracle(self):
        rng = random.Random(1001)
        for i in range(250):
            inst = random_instance(rng, n_max=8, k_max=3, ts=STRETCHES,
                                   tree_gamma=True, forest_g=(i % 2 == 0),
                                   max_weight=4 if i % 3 == 2 else 1)
            assert solve_tree_gamma(inst) == solve_min(inst)


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
        # G has degree 0, so its ball is just the 2k ends of a solution:
        # the three leaves fit with k = 3 but not with k = 2.
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

    def test_g_ball_proves_no_without_a_search(self, monkeypatch):
        # Gamma = K_60, G a path, t = 2: all 60 vertices are in conflict,
        # but the G ball of radius 2 around 2k = 6 ends holds at most 42.
        # The ball bound runs before the packing pass, so no ellipse of
        # the 1,653 conflict pairs is built.
        def search(*args):
            raise AssertionError("the ball bound should decide this")

        monkeypatch.setattr(structured, "first_conflict_free", search)
        monkeypatch.setattr(model, "_ellipse", search)
        gamma = Graph(60, combinations(range(60), 2))
        inst = build_instance(gamma, [(v, v + 1) for v in range(59)], 3, 2)
        assert not solve_bounded_gamma(inst).yes

    def test_ball_bounds_agree_with_oracle(self, monkeypatch):
        # Unweighted Gamma and a forest G: here the balls prove NO without
        # an ellipse often, and both engine names must still print brute's
        # verdict and certificate.  A NO of the packing pass skips the
        # search too, but only after it builds an ellipse.
        built = []
        ellipse = model._ellipse
        monkeypatch.setattr(model, "_ellipse",
                            lambda *args: built.append(1) or ellipse(*args))
        rng = random.Random(4004)
        decided_by_ball = 0
        for _ in range(400):
            inst = random_instance(rng, n_max=13, k_max=2, forest_g=True)
            if inst.n < 6:
                continue
            expected = solve_min(inst)
            built.clear()
            for engine in (solve_bounded_gamma, solve_bounded_g):
                assert engine(inst) == expected
            decided_by_ball += inst.k > 0 and not expected.yes and not built
        assert decided_by_ball >= 15

    def test_packing_proves_no_from_the_first_ellipses(self, monkeypatch):
        # Weighted Gamma, so no ball bound: the path 0-1-...-5 with every
        # weight 2 and an edgeless G puts all five pairs in conflict at
        # t = 2, and each pair's ellipse is the pair alone.  The first two
        # ellipses are disjoint, which proves NO for k = 1 before the
        # other three are built and before any search.
        built, searches = [], []
        ellipse, search = model._ellipse, structured.first_conflict_free
        monkeypatch.setattr(model, "_ellipse",
                            lambda inst, limit, pair: built.append(pair)
                            or ellipse(inst, limit, pair))
        monkeypatch.setattr(structured, "first_conflict_free",
                            lambda *args: searches.append(1) or search(*args))
        path = [(v, v + 1) for v in range(5)]
        inst = build_instance(Graph(6, path, {e: 2 for e in path}), [], 1, 2)
        assert solve_min(inst) == Verdict.no()
        assert solve_bounded_gamma(inst) == Verdict.no()
        assert built == [(0, 1), (1, 2)]
        assert not searches


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
        # of the conflict vertices, and vice versa.  The conflict vertices
        # are also within floor(t) G-hops of the endpoints, the premise of
        # the G ball bound; the other way round the radius grows to
        # floor(t) squared.
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
            assert set(vc) <= set(ball(shadow, vs, t_floor))
            if max_degree(inst.g_edges) > 0:
                assert set(vs) <= set(ball(shadow, vc, t_floor * t_floor))
        assert seen > 30
