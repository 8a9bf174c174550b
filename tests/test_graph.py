import math
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilaug.graph import Graph, GraphError, ball, greedy_maximal_matching, norm_edge, within

from conftest import (brute_max_matching, enumerate_path_distance, max_degree, nx_apsp,
                      nx_graph)


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


def walk_lengths(g, source, bound):
    """Vertex -> the lengths at most ``bound`` of the walks to it from
    ``source``."""
    lengths = [set() for _ in range(g.n)]
    lengths[source].add(0)
    todo = [(source, 0)]
    while todo:
        u, length = todo.pop()
        for v in g.neighbors(u):
            nl = length + g.weight.get(norm_edge(u, v), 1)
            if nl <= bound and nl not in lengths[v]:
                lengths[v].add(nl)
                todo.append((v, nl))
    return lengths


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

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphError, match="^vertex count must be nonnegative$"):
            Graph(-1)

    def test_rejects_weight_on_non_edge(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1)], {(1, 2): 4})

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1)], {(0, 1): 0})

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.5, Fraction(7, 2)],
                             ids=["inf", "-inf", "nan", "2.5", "7/2"])
    def test_rejects_weight_that_is_no_integer(self, bad):
        with pytest.raises(GraphError, match=r"^weight of \(0, 1\) must be a positive integer$"):
            Graph(2, [(0, 1)], {(0, 1): bad})

    @pytest.mark.parametrize("good", [3, 3.0, Fraction(3)], ids=["3", "3.0", "Fraction(3)"])
    def test_accepts_weight_equal_to_an_integer(self, good):
        assert Graph(2, [(0, 1)], {(0, 1): good}).weight == {(0, 1): 3}

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

    @pytest.mark.parametrize("source", [-1, 3])
    @pytest.mark.parametrize("method", ["hop_distances", "weighted_distances"])
    def test_source_out_of_range(self, method, source):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match=rf"^source {source} out of range \[0, 3\)$"):
            getattr(g, method)(source)

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

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(max_n=9, weighted=True, max_weight=10), st.data())
    def test_pair_query_matches_full_row(self, g, data):
        # Every target, the source and unreachable vertices included, with
        # a cap below, at or above its distance, or INF.  With first, the
        # answer is the length of some walk from s to t within the cap.
        s = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        full = g.weighted_distances(s)
        firsts = {}
        for t in range(g.n):
            d = full[t]
            near = [d - 1, d, d + 1] if d < math.inf else []
            cap = data.draw(st.one_of(st.sampled_from(near + [math.inf]),
                                      st.integers(min_value=-1, max_value=40)))
            assert within(g.adj, s, t, cap) == (d if d <= cap else math.inf)
            found = within(g.adj, s, t, cap, first=True)
            if d <= cap and d < math.inf:
                assert d <= found <= cap
                firsts[t] = found
            else:
                assert found == math.inf
        lengths = walk_lengths(g, s, max(firsts.values(), default=0))
        assert all(found in lengths[t] for t, found in firsts.items())

    def test_pair_query_at_its_cap(self):
        # The path 0-1-2-3 of length 3 is found at cap 3 and not at cap 2,
        # and the single edge 0-3 of weight 3 at cap 3: a relaxation that
        # lands exactly on the cap still labels its vertex.
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert [within(g.adj, 0, 3, cap) for cap in (2, 3, 4)] == [math.inf, 3, 3]
        g = Graph(2, [(0, 1)], {(0, 1): 3})
        assert [within(g.adj, 0, 1, cap) for cap in (2, 3)] == [math.inf, 3]
        # With first, the first path within the cap, 4 by the edge 0-3,
        # ends the run before the shortest, 3 around 0-1-2-3.
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], {(0, 3): 4})
        assert within(g.adj, 0, 3, 4, first=True) == 4
        assert within(g.adj, 0, 3, 4) == 3

    def test_pair_query_reads_a_lazy_mapping(self):
        # Only the rows of expanded vertices are read: the two ends meet at
        # 1 before either side expands it, and 3 lies past the cap.
        rows = {0: [(1, 1)], 1: [(0, 1), (2, 1)], 2: [(1, 1), (3, 5)], 3: [(2, 5)]}
        read = []

        class Lazy(dict):
            def __missing__(self, u):
                read.append(u)
                return rows[u]

        assert within(Lazy(), 0, 2, 2) == 2
        assert sorted(read) == [0, 2]

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_unweighted_dijkstra_equals_bfs(self, g):
        for source in range(g.n):
            assert g.weighted_distances(source) == g.hop_distances(source)


class TestStructure:
    def test_is_connected(self):
        assert Graph(1).is_connected()
        assert Graph(2, [(0, 1)]).is_connected()
        assert not Graph(2).is_connected()

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_is_forest_matches_networkx(self, g):
        assert g.is_forest() == nx.is_forest(nx_graph(g.n, g.edges))

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(weighted=True))
    def test_checked_constructor_matches_the_public_one(self, g):
        # The parser's path: a normalized edge -> weight dict, weight 1 kept.
        w = {e: g.weight.get(e, 1) for e in sorted(g.edges, reverse=True)}
        fast, public = Graph._checked(g.n, w), Graph(g.n, w, w)
        assert (fast.n, fast.edges, fast.weight, fast.adj) == \
            (public.n, public.edges, public.weight, public.adj)

    def test_star_neighbors(self):
        g = Graph(5, [(0, i) for i in range(1, 5)])
        assert g.neighbors(0) == [1, 2, 3, 4] and g.neighbors(3) == [0]


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
