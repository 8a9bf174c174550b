import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilaug import model
from dilaug.graph import Graph
from dilaug.model import (ConflictChecker, InstanceError, MetricUndefinedError,
                          VerifyResult, adjacent_conflicts, build_instance,
                          is_conflict_free, normalize_solution, stretch_limit,
                          verify_solution)
from dilaug.randinst import random_instance, random_solution

from conftest import (all_pairs_within_stretch, embedded_apsp, gamma_apsp,
                      nx_apsp, searches)


class TestBuildInstance:
    def test_metric_table(self, triangle_path_instance):
        inst = triangle_path_instance
        assert inst.n == 3
        assert inst.gamma_rows[0][2] == 1
        assert inst.gamma_rows[0][0] == 0

    def test_weighted_metric(self):
        gamma = Graph(3, [(0, 1), (1, 2)], {(0, 1): 2, (1, 2): 3})
        inst = build_instance(gamma, [], 0, 1)
        assert inst.gamma_rows[0][2] == 5

    def test_disconnected_gamma_rejected(self):
        with pytest.raises(MetricUndefinedError):
            build_instance(Graph(3, [(0, 1)]), [], 1, 2)

    def test_negative_budget_rejected(self, triangle_gamma):
        with pytest.raises(InstanceError):
            build_instance(triangle_gamma, [], -1, 2)

    def test_stretch_below_one_rejected(self, triangle_gamma):
        with pytest.raises(InstanceError):
            build_instance(triangle_gamma, [], 0, Fraction(1, 2))

    def test_duplicate_g_edge_rejected(self, triangle_gamma):
        with pytest.raises(InstanceError):
            build_instance(triangle_gamma, [(0, 1), (1, 0)], 0, 2)

    def test_g_self_loop_rejected(self, triangle_gamma):
        with pytest.raises(InstanceError, match=r"G edge \(2, 2\) is a self-loop"):
            build_instance(triangle_gamma, [(0, 1), (2, 2)], 0, 2)

    def test_g_edge_out_of_range_rejected(self, triangle_gamma):
        with pytest.raises(InstanceError, match=r"G edge \(1, 3\) out of range \[0, 3\)"):
            build_instance(triangle_gamma, [(1, 3)], 0, 2)

    def test_g_need_not_be_subgraph_of_gamma(self, triangle_gamma):
        gamma = Graph(4, [(0, 1), (1, 2), (2, 3)])
        inst = build_instance(gamma, [(0, 3)], 0, 2)
        assert (0, 3) in inst.g_edges

    def test_non_edges_order(self, triangle_path_instance):
        assert triangle_path_instance.non_edges() == [(0, 2)]

    def test_normalize_solution_rejects_self_loop(self):
        with pytest.raises(InstanceError):
            normalize_solution([(1, 1)], 3)

    def test_normalize_solution_rejects_out_of_range(self):
        with pytest.raises(InstanceError, match=r"out of range \[0, 3\)"):
            normalize_solution([(0, 3)], 3)


class TestLazyMetric:
    @settings(max_examples=150, deadline=None)
    @given(searches(max_n=9, max_weight=10), st.integers(min_value=0))
    def test_lazy_reads_equal_the_full_table(self, case, pick):
        inst, committed, candidates = case
        s = committed.union([candidates[pick % len(candidates)]] if candidates else [])

        def fresh():
            return build_instance(inst.gamma, inst.g_edges, inst.k, inst.t)

        table = gamma_apsp(inst)  # networkx, like embedded_apsp
        limit = {e: stretch_limit(table[e], inst.t) for e in inst.gamma.edges - inst.g_edges}
        weights = sorted((u, v, table[u, v]) for u, v in inst.g_edges)
        dist = embedded_apsp(inst, s)
        conflicts = {e for e, lim in limit.items() if dist[e] > lim}
        expected = (VerifyResult(False, "conflict(%d,%d)" % min(conflicts))
                    if conflicts else VerifyResult(True))

        lazy = [fresh() for _ in range(4)]
        assert ConflictChecker(lazy[0]).limit == limit
        assert sorted((u, v, w) for u, row in enumerate(ConflictChecker(lazy[1]).g_adj)
                      for v, w in row if u < v) == weights
        assert verify_solution(lazy[2], s) == expected
        assert adjacent_conflicts(lazy[3], s) == conflicts
        # Only a pair off Gamma may read a full row, from its first end.
        off_gamma = {u for u, _ in (inst.g_edges | s) - inst.gamma.edges}
        assert all(set(each.gamma_rows) <= off_gamma for each in lazy)


class TestStretchLimit:
    def test_exact_boundary(self):
        assert 3 <= stretch_limit(2, Fraction(3, 2))
        assert not 4 <= stretch_limit(2, Fraction(3, 2))

    def test_infinite_distance_fails(self):
        assert not math.inf <= stretch_limit(1, Fraction(100))

    def test_no_float_rounding(self):
        # 1/3 * 3 must compare exactly, not as 0.9999...
        assert 1 <= stretch_limit(3, Fraction(1, 3))


class TestConflicts:
    def test_triangle_path_conflict(self, triangle_path_instance):
        # d_G(0, 2) = 2 > (3/2) * 1
        assert adjacent_conflicts(triangle_path_instance) == frozenset({(0, 2)})

    def test_triangle_path_no_conflict_at_two(self, triangle_gamma):
        inst = build_instance(triangle_gamma, [(0, 1), (1, 2)], 1, 2)
        assert not adjacent_conflicts(inst)
        assert is_conflict_free(inst)

    def test_solution_clears_conflict(self, triangle_path_instance):
        assert not adjacent_conflicts(triangle_path_instance, [(0, 2)])

    def test_star_all_edges_conflict(self, star_instance):
        assert adjacent_conflicts(star_instance) == star_instance.gamma.edges

    def test_adjacent_check_agrees_with_full_apsp(self):
        # The adjacent-pairs test is equivalent to checking every pair.
        rng = random.Random(424242)
        for _ in range(300):
            inst = random_instance(rng, n_max=7, k_max=2)
            s = random_solution(rng, inst)
            assert is_conflict_free(inst, s) == all_pairs_within_stretch(inst, s)


class TestTwoPassScan:
    """The scan first bounds G + S by its Gamma edges at their Gamma weights,
    capped at each pair's stretched Gamma weight.  A walk found there
    clears the pair once Gamma has no path short enough to put the walk
    above t * d_Gamma; else the scan re-checks the pair at its limit, over
    that bound and then exactly."""

    @staticmethod
    def expected(inst, s=frozenset()):
        """The pairs in conflict and the suspects, both by networkx."""
        dist, dg = embedded_apsp(inst, s), gamma_apsp(inst)
        upper = nx_apsp(inst.n, (inst.g_edges | s) & inst.gamma.edges, inst.gamma.weight)
        limit = {e: stretch_limit(dg[e], inst.t) for e in inst.gamma.edges - inst.g_edges - s}
        return ({e for e, lim in limit.items() if dist[e] > lim},
                {e for e, lim in limit.items() if upper[e] > lim})

    def test_cleared_by_an_edge_shorter_than_its_weight(self):
        # d_Gamma(0, 2) = 2 through vertex 1, below the weight 5 of the G
        # edge (0, 2); only that edge brings (0, 3) within 3/2 * 3.
        weights = {(0, 1): 1, (1, 2): 1, (0, 2): 5, (2, 3): 1, (0, 3): 3}
        inst = build_instance(Graph(4, weights, weights), [(0, 1), (0, 2), (2, 3)],
                              0, Fraction(3, 2))
        conflicts, suspects = self.expected(inst)
        assert conflicts == {(1, 2)} and suspects == {(0, 3), (1, 2)}
        assert adjacent_conflicts(inst) == conflicts

    @staticmethod
    def chord_instance():
        """(0, 2) is a G edge off Gamma, and only it brings (0, 3) within
        3/2 * 3."""
        weights = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 3}
        return build_instance(Graph(4, weights, weights), [(0, 2), (2, 3)],
                              1, Fraction(3, 2))

    def test_cleared_by_a_chord(self):
        inst = self.chord_instance()
        conflicts, suspects = self.expected(inst)
        assert conflicts == {(0, 1), (1, 2)} and (0, 3) in suspects
        assert adjacent_conflicts(inst) == conflicts

    def test_suspect_before_the_least_conflict(self):
        inst, s = self.chord_instance(), frozenset({(0, 1)})
        conflicts, suspects = self.expected(inst, s)
        assert conflicts == {(1, 2)} and min(suspects) == (0, 3)
        assert verify_solution(inst, s) == VerifyResult(False, "conflict(1,2)")

    @staticmethod
    def shortcut_instance(t):
        """d_Gamma(0, 3) = 4 through vertex 1, below the weight 6 of the
        Gamma edge (0, 3); G's walk 0-2-3 from 0 to 3 has length 7."""
        weights = {(0, 3): 6, (0, 1): 2, (1, 3): 2, (0, 2): 3, (2, 3): 4}
        return build_instance(Graph(4, weights, weights), [(0, 2), (2, 3)], 2, t)

    @staticmethod
    def gamma_queries(inst, monkeypatch):
        """The (pair, cap) of each ``within`` query over Gamma's adjacency."""
        queries, real = [], model.within

        def counted(adj, u, v, cap, first=False):
            if adj is inst.gamma.adj:
                queries.append(((u, v), cap))
            return real(adj, u, v, cap, first)
        monkeypatch.setattr(model, "within", counted)
        return queries

    def test_cleared_by_one_query_below_the_walk(self, monkeypatch):
        # At t = 2 the walk 0-2-3 (7 <= 2 * 6) needs d_Gamma(0, 3) >= 4, so
        # one query asks whether Gamma has a path of length 3 or less.
        inst = self.shortcut_instance(2)
        queries = self.gamma_queries(inst, monkeypatch)
        assert adjacent_conflicts(inst) == self.expected(inst)[0] == {(0, 1), (1, 3)}
        assert [q for q in queries if q[0] == (0, 3)] == [((0, 3), 3)]

    def test_walk_within_the_stretched_weight_is_not_enough(self):
        # At t = 3/2 the walk fits 3/2 * 6 = 9 but not 3/2 * d_Gamma = 6.
        inst = self.shortcut_instance(Fraction(3, 2))
        assert adjacent_conflicts(inst) == self.expected(inst)[0] == {(0, 1), (0, 3), (1, 3)}

    def test_pair_query_asks_for_a_strictly_shorter_path(self, monkeypatch):
        inst = self.shortcut_instance(2)
        queries = self.gamma_queries(inst, monkeypatch)
        assert (inst.d_gamma(2, 3), inst.d_gamma(0, 3)) == (4, 4)
        assert queries == [((2, 3), 3), ((0, 3), 5)]

    @staticmethod
    def pair_caps(pair, monkeypatch):
        """The cap of each ``within`` query the scan asks about ``pair``."""
        caps, real = [], model.within

        def counted(adj, u, v, cap, first=False):
            if (u, v) == pair:
                caps.append(cap)
            return real(adj, u, v, cap, first)
        monkeypatch.setattr(model, "within", counted)
        return caps

    # In both, Gamma's path 0-2-1 of length 4 undercuts the Gamma edge
    # (0, 1), so at t = 2 the limit of (0, 1) is 8, while its Gamma
    # weight w lets the first walk over G run to 2w.

    def test_recheck_at_the_limit_clears_the_pair(self, monkeypatch):
        # The first walk found, 0-3-1 of length 10, is above 8; the walk
        # 0-4-5-1 of length 8 is within it, and the re-check finds it.
        weights = {(0, 1): 6, (0, 2): 2, (1, 2): 2, (0, 3): 5, (1, 3): 5,
                   (0, 4): 2, (4, 5): 3, (1, 5): 3}
        inst = build_instance(Graph(6, weights, weights),
                              [(0, 3), (1, 3), (0, 4), (4, 5), (1, 5)], 0, 2)
        caps = self.pair_caps((0, 1), monkeypatch)
        conflicts, suspects = self.expected(inst)
        assert conflicts == {(0, 2), (1, 2)} and (0, 1) not in suspects
        assert adjacent_conflicts(inst) == conflicts
        # The walk within 2w = 12, the query over Gamma below its need of
        # 5, and the re-check at 8, with no exact check after it.
        assert caps == [12, 4, 8]

    def test_walk_one_past_the_limit_is_a_conflict(self, monkeypatch):
        # G's only walk from 0 to 1, 0-3-4-1, has length 9 = 8 + 1, at
        # Gamma weights and at d_Gamma alike.
        weights = {(0, 1): 5, (0, 2): 2, (1, 2): 2, (0, 3): 3, (3, 4): 3, (1, 4): 3}
        inst = build_instance(Graph(5, weights, weights), [(0, 3), (3, 4), (1, 4)], 0, 2)
        caps = self.pair_caps((0, 1), monkeypatch)
        conflicts, suspects = self.expected(inst)
        assert conflicts == {(0, 1), (0, 2), (1, 2)} and (0, 1) in suspects
        assert adjacent_conflicts(inst) == conflicts
        # The walk within 10, the query over Gamma, the re-check at 8 and
        # the exact check at 8.
        assert caps == [10, 4, 8, 8]


class TestDilation:
    """Dilation <= t exactly when no Gamma edge is in conflict."""

    def test_identity_embedding(self, triangle_gamma):
        inst = build_instance(triangle_gamma, triangle_gamma.edges, 0, 1)
        assert adjacent_conflicts(inst) == frozenset()

    def test_triangle_path(self, triangle_path_instance):
        # G's path 0-1-2 stretches the Gamma edge (0, 2) by exactly 2.
        inst = triangle_path_instance
        assert adjacent_conflicts(inst) == {(0, 2)}
        assert adjacent_conflicts(build_instance(inst.gamma, inst.g_edges, 0, 2)) == frozenset()

    def test_disconnected_g_is_inf(self, star_instance):
        # No t fixes a pair that G leaves disconnected.
        inst = build_instance(star_instance.gamma, [], 0, 100)
        assert adjacent_conflicts(inst) == inst.gamma.edges

    def test_adding_edges_never_hurts(self):
        rng = random.Random(7)
        for _ in range(60):
            inst = random_instance(rng, n_max=6, k_max=1)
            s = random_solution(rng, inst)
            assert adjacent_conflicts(inst, s) <= adjacent_conflicts(inst)

    def test_gamma_is_a_lower_bound(self):
        # d_{G+S} >= d_Gamma pointwise, so dilation is always >= 1.
        rng = random.Random(8)
        for _ in range(60):
            inst = random_instance(rng, n_max=6, k_max=2)
            s = random_solution(rng, inst)
            dist, dg = embedded_apsp(inst, s), gamma_apsp(inst)
            assert all(dist[pair] >= d for pair, d in dg.items())


class TestVerify:
    def test_valid(self, triangle_path_instance):
        assert verify_solution(triangle_path_instance, [(0, 2)]).ok

    def test_overlap(self, triangle_path_instance):
        res = verify_solution(triangle_path_instance, [(0, 1)])
        assert not res.ok and res.reason == "overlaps-G"

    def test_budget(self, star_instance):
        res = verify_solution(star_instance, [(0, 1), (1, 2), (1, 3)])
        assert not res.ok and res.reason == "budget-exceeded"

    def test_conflict_reports_smallest_pair(self, star_instance):
        res = verify_solution(star_instance, [])
        assert not res.ok and res.reason == "conflict(0,1)"

    @settings(max_examples=150, deadline=None)
    @given(searches(), st.integers(min_value=0))
    def test_conflict_reported_is_the_least(self, case, pick):
        # The star's pairs all share vertex 0, so it cannot tell the least
        # pair from another; these pairs need not share an endpoint.
        inst, committed, candidates = case
        extra = [candidates[pick % len(candidates)]] if candidates else []
        s = committed.union(extra)  # within the budget of 3, disjoint from G
        conflicts = adjacent_conflicts(inst, s)
        res = verify_solution(inst, s)
        if conflicts:
            assert res == VerifyResult(False, "conflict(%d,%d)" % min(conflicts))
        else:
            assert res.ok

    def test_empty_solution_on_conflict_free(self, triangle_gamma):
        inst = build_instance(triangle_gamma, triangle_gamma.edges, 0, 1)
        assert verify_solution(inst, []).ok

    def test_verify_implies_dilation_bound(self):
        # A verified solution certifies dilation <= t over all pairs.
        rng = random.Random(31)
        checked = 0
        for _ in range(200):
            inst = random_instance(rng, n_max=6, k_max=2)
            s = random_solution(rng, inst)
            if verify_solution(inst, s).ok:
                checked += 1
                assert all_pairs_within_stretch(inst, s)
        assert checked > 20
