"""Seeded random instance generation for fuzzing and property tests.

All randomness flows through an explicit ``random.Random``; no ambient
entropy anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .graph import Edge, Graph, find, norm_edge
from .model import Instance, build_instance

DEFAULT_TS = (Fraction(3, 2), Fraction(2), Fraction(3))
# A wider set of stretches, non-integral ones included, for weighted corpora.
STRETCHES = (Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(7, 3),
             Fraction(5, 2), Fraction(3))


def random_connected_gamma(rng: random.Random, n: int, extra_p: float = 0.3) -> Graph:
    """Random spanning tree plus extra edges; always connected."""
    edges = {norm_edge(v, rng.randrange(v)) for v in range(1, n)}
    for u, v in combinations(range(n), 2):
        if (u, v) not in edges and rng.random() < extra_p:
            edges.add((u, v))
    return Graph(n, edges)


def random_tree(rng: random.Random, n: int) -> Graph:
    return Graph(n, {norm_edge(v, rng.randrange(v)) for v in range(1, n)})


def random_forest_edges(rng: random.Random, n: int, p: float = 0.35) -> set[Edge]:
    """Random acyclic edge set via union-find over a shuffled pair stream."""
    parent = list(range(n))
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    edges = set()
    for u, v in pairs:
        if rng.random() < p:
            ru, rv = find(parent, u), find(parent, v)
            if ru != rv:
                parent[ru] = rv
                edges.add((u, v))
    return edges


def random_instance(rng: random.Random, n_max: int = 8, k_max: int = 2,
                    ts=DEFAULT_TS, forest_g: bool = False,
                    tree_gamma: bool = False, max_weight: int = 1) -> Instance:
    n = rng.randint(2, n_max)
    gamma = random_tree(rng, n) if tree_gamma else random_connected_gamma(rng, n)
    if max_weight > 1:  # Gamma weights from 1..max_weight; none drawn at 1
        weights = {e: rng.randint(1, max_weight) for e in sorted(gamma.edges)}
        gamma = Graph(n, gamma.edges, weights)
    if forest_g:
        g_edges = random_forest_edges(rng, n)
    else:
        g_edges = {e for e in combinations(range(n), 2) if rng.random() < 0.35}
    k = rng.randint(0, k_max)
    t = rng.choice(list(ts))
    return build_instance(gamma, g_edges, k, t)


def random_solution(rng: random.Random, inst: Instance, max_size: int = 2) -> frozenset[Edge]:
    non_edges = inst.non_edges()
    size = rng.randint(0, min(max_size, len(non_edges)))
    return frozenset(rng.sample(non_edges, size))
