import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilaug.graph import (Graph, GraphError, ball, greedy_maximal_matching,
                          max_degree, norm_edge)

from conftest import brute_max_matching, enumerate_path_distance, nx_apsp, nx_graph


def small_graphs(max_n=7, weighted=False):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        weights = {}
        if weighted:
            for e in edges:
                weights[e] = draw(st.integers(min_value=1, max_value=5))
        return Graph(n, edges, weights or None)

    return build()


class TestConstruction:
    def test_empty(self):
        g = Graph(0)
        assert g.n == 0 and not g.edges
        assert g.max_degree() == 0

    def test_normalizes_edge_order(self):
        g = Graph(3, [(2, 0), (0, 2), (1, 2)])
        assert g.edges == frozenset({(0, 2), (1, 2)})

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])

    def test_rejects_weight_on_non_edge(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1)], {(1, 2): 4})

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1)], {(0, 1): 0})

    def test_unit_weights_are_implicit(self):
        g = Graph(3, [(0, 1), (1, 2)], {(0, 1): 1, (1, 2): 3})
        assert g.is_unweighted() is False
        assert g.edge_weight(0, 1) == 1
        assert g.edge_weight(2, 1) == 3

    def test_norm_edge(self):
        assert norm_edge(4, 1) == (1, 4)
        assert norm_edge(1, 4) == (1, 4)


class TestDistances:
    def test_hop_path(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.hop_distances(0) == [0, 1, 2, 3]

    def test_hop_disconnected_is_inf(self):
        g = Graph(3, [(0, 1)])
        assert g.hop_distances(0)[2] == math.inf

    def test_weighted_prefers_light_detour(self):
        # Direct edge weight 5, two-hop detour weight 2+2.
        g = Graph(3, [(0, 2), (0, 1), (1, 2)],
                  {(0, 2): 5, (0, 1): 2, (1, 2): 2})
        assert g.weighted_distances(0)[2] == 4

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(weighted=True))
    def test_weighted_matches_networkx(self, g):
        for source in range(g.n):
            mine = g.weighted_distances(source)
            theirs = nx_apsp(g.n, g.edges, g.weight)
            for v in range(g.n):
                assert mine[v] == theirs[(source, v)]

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_n=6, weighted=True))
    def test_weighted_matches_path_enumeration(self, g):
        for v in range(1, g.n):
            assert g.weighted_distances(0)[v] == enumerate_path_distance(g, 0, v)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(weighted=True), st.integers(min_value=0, max_value=12))
    def test_early_stop_is_exact_within_stop(self, g, stop):
        # Every vertex within ``stop`` is settled exactly; every other one
        # is left INF, so it is beyond the stop.
        for source in range(g.n):
            full = g.weighted_distances(source)
            assert g.weighted_distances(source, stop) == [
                d if d <= stop else math.inf for d in full]

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_unweighted_dijkstra_equals_bfs(self, g):
        for source in range(g.n):
            assert g.weighted_distances(source) == g.hop_distances(source)


class TestStructure:
    def test_is_tree(self):
        assert Graph(4, [(0, 1), (1, 2), (1, 3)]).is_tree()
        assert not Graph(3, [(0, 1), (1, 2), (0, 2)]).is_tree()
        assert not Graph(4, [(0, 1), (2, 3)]).is_tree()
        assert Graph(1).is_tree()

    def test_is_connected(self):
        assert Graph(1).is_connected()
        assert Graph(2, [(0, 1)]).is_connected()
        assert not Graph(2).is_connected()

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_is_forest_matches_networkx(self, g):
        assert g.is_forest() == nx.is_forest(nx_graph(g.n, g.edges))

    def test_max_degree_star(self):
        g = Graph(5, [(0, i) for i in range(1, 5)])
        assert g.max_degree() == 4
        assert g.degree(0) == 4 and g.degree(3) == 1

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_max_degree_of_an_edge_set(self, g):
        assert max_degree(g.edges) == g.max_degree()


class TestBall:
    def test_radius_zero_is_the_seed_set(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert ball(g, [2], 0) == [2]

    def test_path_radii(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert ball(g, [0], 2) == [0, 1, 2]
        assert ball(g, [0, 4], 1) == [0, 1, 3, 4]

    def test_negative_radius_rejected(self):
        with pytest.raises(GraphError):
            ball(Graph(2, [(0, 1)]), [0], -1)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.integers(min_value=0, max_value=3))
    def test_ball_is_hop_ball(self, g, radius):
        if g.n == 0:
            return
        seeds = [0, g.n - 1]
        got = set(ball(g, seeds, radius))
        expected = {v for v in range(g.n)
                    if min(g.hop_distances(s)[v] for s in seeds) <= radius}
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.integers(min_value=0, max_value=3))
    def test_ball_size_bound(self, g, radius):
        if g.n == 0:
            return
        seeds = [0]
        delta = g.max_degree()
        # Exact bound |ball| <= |W| * sum_i delta^i; the classic
        # |W| * delta^{r+1} form additionally needs delta >= 2.
        size = len(ball(g, seeds, radius))
        assert size <= sum(delta ** i for i in range(radius + 1))
        if delta >= 2:
            assert size <= delta ** (radius + 1)


class TestGreedyMatching:
    def test_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert greedy_maximal_matching(g) == frozenset({(0, 1)})

    def test_perfect_on_disjoint_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert greedy_maximal_matching(g) == frozenset({(0, 1), (2, 3)})

    def test_empty_graph(self):
        assert greedy_maximal_matching(Graph(4)) == frozenset()

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_is_a_matching_and_maximal(self, g):
        m = greedy_maximal_matching(g)
        covered = {x for e in m for x in e}
        assert len(covered) == 2 * len(m)
        for u, v in g.edges:
            assert u in covered or v in covered

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_n=6))
    def test_within_factor_two_of_maximum(self, g):
        m = len(greedy_maximal_matching(g))
        opt = brute_max_matching(g.n, g.edges)
        assert m <= opt <= 2 * m
