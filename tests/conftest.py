"""Shared fixtures and independent oracles for the test suite.

The helpers here deliberately avoid the library's own shortest-path and
matching code: networkx and tiny brute-force routines act as the second
opinion the implementation is checked against.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import strategies as st

from dilaug import kdd
from dilaug.graph import Graph, norm_edge
from dilaug.model import Instance, build_instance
from dilaug.randinst import STRETCHES


ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def nx_graph(n: int, edges, weights=None) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u, v in edges:
        w = (weights or {}).get(norm_edge(u, v), 1)
        g.add_edge(u, v, weight=w)
    return g


def nx_apsp(n: int, edges, weights=None) -> dict:
    """All-pairs weighted distances via networkx; missing pair = inf."""
    g = nx_graph(n, edges, weights)
    dist = dict(nx.all_pairs_dijkstra_path_length(g, weight="weight"))
    return {(u, v): dist.get(u, {}).get(v, math.inf)
            for u in range(n) for v in range(n)}


def gamma_apsp(inst: Instance) -> dict:
    """d_Gamma over all pairs, by networkx over Gamma's weighted edges."""
    return nx_apsp(inst.n, inst.gamma.edges, inst.gamma.weight)


def embedded_apsp(inst: Instance, s=()) -> dict:
    """All-pairs distances of G+S, each edge weighted by its d_Gamma; both
    come from networkx, not from the library's metric."""
    dg = gamma_apsp(inst)
    edges = set(inst.g_edges) | {norm_edge(u, v) for u, v in s}
    return nx_apsp(inst.n, edges, {e: dg[e] for e in edges})


def all_pairs_within_stretch(inst: Instance, s=()) -> bool:
    dist, dg = embedded_apsp(inst, s), gamma_apsp(inst)
    t = inst.t
    for u in range(inst.n):
        for v in range(u + 1, inst.n):
            d = dist[(u, v)]
            if d == math.inf or t.denominator * d > t.numerator * dg[(u, v)]:
                return False
    return True


def max_degree(edges) -> int:
    """The maximum degree of the graph with edge set ``edges``."""
    return max(Counter(x for e in edges for x in e).values(), default=0)


def brute_max_matching(n: int, edges) -> int:
    """Maximum matching size by exhaustive search (tiny graphs only)."""
    edges = sorted({norm_edge(u, v) for u, v in edges})
    best = 0
    for size in range(len(edges), 0, -1):
        if size <= best:
            break
        for combo in combinations(edges, size):
            seen = set()
            ok = True
            for u, v in combo:
                if u in seen or v in seen:
                    ok = False
                    break
                seen.update((u, v))
            if ok:
                best = max(best, size)
                break
    return best


def enumerate_path_distance(g: Graph, source: int, target: int) -> float:
    """Min weighted length over all simple paths, by exhaustive DFS."""
    best = [math.inf]

    def walk(u, used, total):
        if total >= best[0]:
            return
        if u == target:
            best[0] = total
            return
        for v in g.neighbors(u):
            if v not in used:
                walk(v, used | {v}, total + g.weight.get(norm_edge(u, v), 1))

    walk(source, {source}, 0)
    return best[0]


@st.composite
def searches(draw, max_n=6, max_weight=4):
    """(instance, committed edges, candidate edges): weighted Gamma (weights
    1 to ``max_weight``), G with non-Gamma chords, t from ``STRETCHES``,
    k = 3 and up to two committed non-edges."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    tree = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n))
    gamma_edges = sorted(set(tree) | set(extra))
    weights = {e: draw(st.integers(min_value=1, max_value=max_weight))
               for e in gamma_edges}
    g_edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    t = draw(st.sampled_from(STRETCHES))
    inst = build_instance(Graph(n, gamma_edges, weights), g_edges, 3, t)
    non_edges = inst.non_edges()
    committed = draw(st.lists(st.sampled_from(non_edges), unique=True, max_size=2)
                     if non_edges else st.just([]))
    candidates = [e for e in non_edges if e not in committed]
    return inst, frozenset(committed), candidates


@pytest.fixture
def triangle_gamma() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def triangle_path_instance(triangle_gamma) -> Instance:
    """Gamma a triangle, G the path 0-1-2: the running example."""
    return build_instance(triangle_gamma, [(0, 1), (1, 2)], 1, Fraction(3, 2))


@pytest.fixture
def star_instance() -> Instance:
    """Gamma = K_{1,3} with center 0, G edgeless."""
    gamma = Graph(4, [(0, 1), (0, 2), (0, 3)])
    return build_instance(gamma, [], 2, Fraction(2))


def far_bridge_instance(hops: int, bridge: int, w: int, far: int) -> Instance:
    """A YES instance (t = 2, k = 1) that hop-ball localization misses.

    Unit Gamma edges, all in G, form paths of ``hops`` edges u1-a, u2-a,
    b-v1 and b-v2, and a path of ``bridge`` edges a-b.  Gamma also has
    (a, b) of weight ``w`` and (u1, v1), (u2, v2) of weight ``far``, none
    in G.  For the sizes used here both (u_i, v_i) conflict and the one
    edge (a, b) fixes them, though a lies ``hops`` hops from every
    conflict vertex.  Returns the instance; a = 0 and b = 1.
    """
    a, b, u1, u2, v1, v2 = range(6)
    count = 6
    path_edges = []

    def path(x, y, length):
        nonlocal count
        inner = list(range(count, count + length - 1))
        count += length - 1
        stops = [x, *inner, y]
        path_edges.extend(zip(stops, stops[1:]))

    for x, y in ((u1, a), (u2, a), (b, v1), (b, v2)):
        path(x, y, hops)
    path(a, b, bridge)
    weights = {(a, b): w, (u1, v1): far, (u2, v2): far}
    gamma = Graph(count, path_edges + list(weights), weights)
    return build_instance(gamma, path_edges, 1, Fraction(2))


def blocking_instance(rng: random.Random, pendant: bool) -> Instance:
    """A t = 2, k = 1 instance on which kdd can branch on a blocking set.

    In Gamma, v is adjacent to w, to y and to 8-10 leaves, and w to y and
    to every leaf.  G is the tree v-y, y-w and w-every leaf, so each
    (v, leaf) pair conflicts, and the one edge (v, w) fixes them all: w
    is the witness of v once v's conflict degree outside the cover
    exceeds f(0, 1, 2) = 6.  With ``pendant`` a new vertex hangs off a
    random leaf by a Gamma edge not in G, a second conflict that no
    single edge fixes with the first, and the answer is NO.  Vertex ids
    are shuffled.
    """
    leaves = range(3, 3 + rng.randint(8, 10))
    v, w, y = 0, 1, 2
    gamma_edges = [(v, w), (v, y), (w, y)]
    gamma_edges += [(x, leaf) for leaf in leaves for x in (v, w)]
    g_edges = [(v, y), (y, w)] + [(w, leaf) for leaf in leaves]
    n = leaves.stop
    if pendant:
        gamma_edges.append((rng.choice(leaves), n))
        n += 1
    ids = list(range(n))
    rng.shuffle(ids)
    gamma = Graph(n, [(ids[a], ids[b]) for a, b in gamma_edges])
    return build_instance(gamma, [(ids[a], ids[b]) for a, b in g_edges],
                          1, Fraction(2))


@pytest.fixture
def kdd_branchings(monkeypatch) -> Counter:
    """Wraps ``kdd.branch_blocking`` and counts its calls ("branchings")
    and the children that break the recursion's invariants ("violations"):
    a budget not below the parent's, or a cover larger than 5k for the
    instance's budget k."""
    tally: Counter = Counter()
    inner = kdd.branch_blocking

    def branch_blocking(ann, bs):
        children = inner(ann, bs)
        tally["branchings"] += 1
        tally["violations"] += sum(child.k >= ann.k or len(child.r) > 5 * ann.base.k
                                   for child in children)
        return children

    monkeypatch.setattr(kdd, "branch_blocking", branch_blocking)
    return tally


@pytest.fixture
def kdd_empty_blocking_sets(monkeypatch) -> Counter:
    """Wraps ``kdd.find_blocking_set`` and counts the calls that find no
    witness ("empty"), where a node answers None without branching."""
    tally: Counter = Counter()
    inner = kdd.find_blocking_set

    def find_blocking_set(*args):
        bs = inner(*args)
        tally["empty"] += bs is None
        return bs

    monkeypatch.setattr(kdd, "find_blocking_set", find_blocking_set)
    return tally
