import heapq
import math
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilaug import graph as graph_module
from dilaug.graph import (Graph, GraphError, ball, exceeding,
                          greedy_maximal_matching, max_degree, norm_edge)

from conftest import brute_max_matching, enumerate_path_distance, nx_apsp, nx_graph


def small_graphs(max_n=7, weighted=False, max_weight=5):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        weights = {}
        if weighted:
            for e in edges:
                weights[e] = draw(st.integers(min_value=1, max_value=max_weight))
        return Graph(n, edges, weights or None)

    return build()


class TestConstruction:
    def test_empty(self):
        g = Graph(0)
        assert g.n == 0 and not g.edges
        assert max_degree(g.edges) == 0

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
        assert g.weight == {(1, 2): 3}

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

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_n=9, weighted=True, max_weight=10), st.data())
    def test_target_distances_match_full_row(self, g, data):
        # A run that stops once its targets are final still gives each of
        # them, the source or an unreachable vertex included, its exact
        # distance.
        source = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        targets = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
        full = g.weighted_distances(source)
        row = g.weighted_distances(source, targets)
        assert {x: row[x] for x in targets} == {x: full[x] for x in targets}

    def test_target_run_stops_once_its_targets_are_final(self):
        # Popping 1 at distance 1 decides target 2: its tentative 2 (the
        # edge 0-2) is at most 1 plus the lightest edge at 2, so the run
        # stops before it relaxes 1-3.
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3)], {(0, 2): 2})
        assert g.weighted_distances(0, {2}) == [0, 1, 2, math.inf]
        assert g.weighted_distances(0) == [0, 1, 2, 2]
        # With 0-2 at 3 the same pop does not decide 2: 1-2 is shorter.
        g = Graph(3, [(0, 1), (0, 2), (1, 2)], {(0, 2): 3})
        assert g.weighted_distances(0, {2}) == [0, 1, 2]

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(max_n=9, weighted=True, max_weight=10), st.data())
    def test_neighbour_targets_match_full_row(self, g, data):
        # Targets drawn from the source's neighbours only, so every run has
        # a finite push cap; a single neighbour has the tightest one.
        for source in range(g.n):
            near = g.neighbors(source)
            full = g.weighted_distances(source)
            drawn = data.draw(st.sets(st.sampled_from(near))) if near else set()
            for targets in [{x} for x in near] + [drawn]:
                row = g.weighted_distances(source, targets)
                assert {x: row[x] for x in targets} == {x: full[x] for x in targets}

    def test_push_cap(self, monkeypatch):
        # The target 3 sits across 0-3 of weight 5 and its lightest edge is
        # 2-3 of weight 1, so the run expands nothing at 5 - 1 = 4 or more:
        # 3 at 5 and 4 at 4 are relaxed but not pushed, 2 at 3 is pushed
        # and lowers 3 to its exact 4, and 5 beyond 4 is never reached.
        g = Graph(6, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (4, 5)],
                  {(0, 3): 5, (1, 2): 2, (1, 4): 3})
        pushed = []
        monkeypatch.setattr(graph_module, "heapq", SimpleNamespace(
            heapify=heapq.heapify, heappop=heapq.heappop,
            heappush=lambda heap, item: pushed.append(item) or heapq.heappush(heap, item)))
        assert g.weighted_distances(0, {3}) == [0, 1, 3, 4, 4, math.inf]
        assert pushed == [(1, 1), (3, 2)]
        assert g.weighted_distances(0) == [0, 1, 3, 4, 4, 5]

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(max_n=9, weighted=True, max_weight=10))
    def test_light_is_each_rows_minimum(self, g):
        assert g.light == [min((g.weight.get(norm_edge(x, y), 1) for y in g.neighbors(x)),
                               default=math.inf) for x in range(g.n)]

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_n=9, weighted=True, max_weight=10), st.data())
    def test_exceeding_matches_full_row(self, g, data):
        # Bounds below, at and above the distances, and bounds above every
        # distance that never stop the run early: exactly the vertices past
        # their bound, unreachable ones included.
        source = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        bound = data.draw(st.dictionaries(
            st.integers(min_value=0, max_value=g.n - 1),
            st.one_of(st.integers(min_value=-1, max_value=40), st.just(10 ** 6))))
        full = g.weighted_distances(source)
        assert exceeding(g._adj, source, bound, g.n) == {x for x in bound if full[x] > bound[x]}

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
        assert max_degree(g.edges) == 4
        assert g.neighbors(0) == [1, 2, 3, 4] and g.neighbors(3) == [0]

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_max_degree_of_an_edge_set(self, g):
        degrees = [d for _, d in nx_graph(g.n, g.edges).degree()]
        assert max_degree(g.edges) == max(degrees, default=0)


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
        delta = max_degree(g.edges)
        # Exact bound |ball| <= |W| * sum_i delta^i; the classic
        # |W| * delta^{r+1} form additionally needs delta >= 2.
        size = len(ball(g, seeds, radius))
        assert size <= sum(delta ** i for i in range(radius + 1))
        if delta >= 2:
            assert size <= delta ** (radius + 1)


class TestGreedyMatching:
    def test_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert greedy_maximal_matching(g.edges) == frozenset({(0, 1)})

    def test_perfect_on_disjoint_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert greedy_maximal_matching(g.edges) == frozenset({(0, 1), (2, 3)})

    def test_empty_graph(self):
        assert greedy_maximal_matching(()) == frozenset()

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_is_a_matching_and_maximal(self, g):
        m = greedy_maximal_matching(g.edges)
        covered = {x for e in m for x in e}
        assert len(covered) == 2 * len(m)
        for u, v in g.edges:
            assert u in covered or v in covered

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_n=6))
    def test_within_factor_two_of_maximum(self, g):
        m = len(greedy_maximal_matching(g.edges))
        opt = brute_max_matching(g.n, g.edges)
        assert m <= opt <= 2 * m
