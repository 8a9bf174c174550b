"""Hardness constructions as instance generators, with witness lifting.

Each generator maps a source problem (multicolored clique, dominating set,
diameter-2 augmentation, 2-spanner) to a dilation-augmentation instance
with a deterministic vertex numbering, and emits a label map so gadget
vertices can be addressed symbolically.  ``lift_witness`` maps a valid
source certificate to a solution of the generated instance; extracting
source certificates back out of dilation solutions is deliberately not
implemented.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .graph import Edge, Graph, norm_edge
from .model import Instance, build_instance

KINDS = ("multicolored-clique", "dominating-set", "diameter2-augmentation",
         "two-spanner")


@dataclass(frozen=True)
class SourceProblem:
    kind: str
    graph: Graph
    k: int
    partition: tuple[tuple[int, ...], ...] | None = None
    epsilon: Fraction | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if (self.kind == "multicolored-clique") != (self.partition is not None):
            raise ValueError("partition present iff kind is multicolored-clique")
        if self.partition is not None:
            flat = [v for part in self.partition for v in part]
            if sorted(flat) != list(range(self.graph.n)):
                raise ValueError("partition must cover all vertices disjointly")


@dataclass(frozen=True)
class GeneratedInstance:
    instance: Instance
    labels: dict[int, str]


# ---------------------------------------------------------------------------
# Multicolored clique -> dilation 3 with G a star forest (star + isolates)

def _mcq_layout(src: SourceProblem):
    k = src.k
    n_h = src.graph.n
    u_size, w_size = k * k, 3 * k ** 3

    def u_id(i: int, a: int) -> int:          # i in [1, k], a in [0, u_size)
        return n_h + (i - 1) * u_size + a

    def w_id(i: int, a: int) -> int:
        return n_h + k * u_size + (i - 1) * w_size + a

    c = n_h + k * u_size + k * w_size
    return u_id, w_id, c, u_size, w_size


def gen_multicolored_clique(src: SourceProblem) -> GeneratedInstance:
    if src.kind != "multicolored-clique":
        raise ValueError("source kind must be multicolored-clique")
    if src.k < 2:
        raise ValueError("multicolored clique reduction needs k >= 2")
    k, h = src.k, src.graph
    for i, part in enumerate(src.partition, start=1):
        for a, b in combinations(sorted(part), 2):
            if norm_edge(a, b) in h.edges:
                warnings.warn(f"color class {i} is not an independent set")
                break
    u_id, w_id, c, u_size, w_size = _mcq_layout(src)
    n = c + 1
    edges: set[Edge] = set()
    edges.update(h.edges)                                   # E_H
    for i in range(1, k + 1):                               # E_U: V_i -- U_i
        for v in src.partition[i - 1]:
            for a in range(u_size):
                edges.add(norm_edge(v, u_id(i, a)))
    for i, j in combinations(range(1, k + 1), 2):           # E_U: U_i -- U_j
        for a in range(u_size):
            for b in range(u_size):
                edges.add(norm_edge(u_id(i, a), u_id(j, b)))
    for i in range(1, k + 1):                               # E_W: U_i -- W_i
        for a in range(u_size):
            for b in range(w_size):
                edges.add(norm_edge(u_id(i, a), w_id(i, b)))
    e_c = {norm_edge(c, v) for v in range(h.n)}
    e_c |= {norm_edge(c, w_id(i, b))
            for i in range(1, k + 1) for b in range(w_size)}
    edges |= e_c
    gamma = Graph(n, edges)
    assert gamma.is_unweighted()
    budget = k * (k - 1) // 2 + k ** 3
    inst = build_instance(gamma, e_c, budget, Fraction(3))
    labels = {v: f"h[{v}]" for v in range(h.n)}
    for i in range(1, k + 1):
        for a in range(u_size):
            labels[u_id(i, a)] = f"u[{i}][{a}]"
        for b in range(w_size):
            labels[w_id(i, b)] = f"w[{i}][{b}]"
    labels[c] = "c"
    return GeneratedInstance(inst, labels)


# ---------------------------------------------------------------------------
# Dominating set -> dilation 3 with Gamma a star

def gen_dominating_set_star(src: SourceProblem) -> GeneratedInstance:
    if src.kind != "dominating-set":
        raise ValueError("source kind must be dominating-set")
    h = src.graph
    c = h.n
    gamma = Graph(h.n + 1, [(c, v) for v in range(h.n)])
    inst = build_instance(gamma, h.edges, src.k, Fraction(3))
    labels = {v: f"h[{v}]" for v in range(h.n)}
    labels[c] = "c"
    return GeneratedInstance(inst, labels)


# ---------------------------------------------------------------------------
# Diameter-2 augmentation -> dilation (2+eps) with (1,w)-weighted Gamma

def _grid_id(i: int, j: int, n: int) -> int:
    """Vertex v_i^j (row i, column j), both 1-based."""
    return (j - 1) * n + (i - 1)


def gen_diameter2_weighted(src: SourceProblem, epsilon: Fraction) -> GeneratedInstance:
    if src.kind != "diameter2-augmentation":
        raise ValueError("source kind must be diameter2-augmentation")
    epsilon = Fraction(epsilon)
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must lie in (0, 1)")
    if src.epsilon != epsilon:  # lift_witness maps into the grid only then
        raise ValueError("epsilon must equal the source's epsilon")
    h = src.graph
    n = h.n
    w_exact = Fraction(3 * n, 1) / (2 * epsilon)
    # Keep all weights integral by scaling the whole metric; dilation is
    # scale-invariant since d_G and d_Gamma scale together.
    scale = w_exact.denominator
    w_int = w_exact.numerator
    vid = lambda i, j: _grid_id(i, j, n)
    edges: set[Edge] = set()
    weights: dict[Edge, int] = {}
    for j in range(1, n + 1):
        for jp in range(j + 1, n + 1):                      # E_1, weight w
            for i in range(1, n + 1):
                for ip in range(1, n + 1):
                    e = norm_edge(vid(i, j), vid(ip, jp))
                    edges.add(e)
                    weights[e] = w_int
    column: set[Edge] = set()
    for j in range(1, n + 1):                               # E_2 and E_3
        for i in range(1, n):
            column.add(norm_edge(vid(i, j), vid(i + 1, j)))
        if n > 2:
            column.add(norm_edge(vid(1, j), vid(n, j)))
    for e in column:
        edges.add(e)
        weights[e] = scale
    e4 = {norm_edge(vid(i, j), vid(j, i)) for i, j in
          ((a + 1, b + 1) for a, b in h.edges)}
    gamma = Graph(n * n, edges, weights)
    inst = build_instance(gamma, column | e4, src.k, 2 + epsilon)
    labels = {vid(i, j): f"v[{i}]^[{j}]"
              for i in range(1, n + 1) for j in range(1, n + 1)}
    return GeneratedInstance(inst, labels)


# ---------------------------------------------------------------------------
# 2-spanner -> dilation 2 with edgeless G

def gen_spanner_edgeless(src: SourceProblem) -> GeneratedInstance:
    if src.kind != "two-spanner":
        raise ValueError("source kind must be two-spanner")
    if not src.graph.is_connected():
        raise ValueError("spanner source graph must be connected")
    inst = build_instance(src.graph, (), src.k, Fraction(2))
    return GeneratedInstance(inst, {v: f"h[{v}]" for v in range(src.graph.n)})


# ---------------------------------------------------------------------------
# Diameter-2 augmentation -> dilation 2 with Gamma a clique

def gen_diameter2_clique(src: SourceProblem) -> GeneratedInstance:
    if src.kind != "diameter2-augmentation":
        raise ValueError("source kind must be diameter2-augmentation")
    h = src.graph
    gamma = Graph(h.n, combinations(range(h.n), 2))
    inst = build_instance(gamma, h.edges, src.k, Fraction(2))
    return GeneratedInstance(inst, {v: f"h[{v}]" for v in range(h.n)})


# ---------------------------------------------------------------------------
# Witness lifting (forward direction only)

def lift_witness(src: SourceProblem, certificate) -> frozenset[Edge]:
    """Map a source certificate to a solution of the generated instance.

    Certificate shapes: multicolored-clique -> sequence of k vertices, one
    per color class; dominating-set -> vertex set; diameter2-augmentation
    -> edge set; two-spanner -> edge set.
    """
    if src.kind == "multicolored-clique":
        verts = list(certificate)
        if len(verts) != src.k:
            raise ValueError("clique certificate must have exactly k vertices")
        for i, part in enumerate(src.partition):
            if verts[i] not in part:
                raise ValueError(f"certificate vertex {verts[i]} not in class {i + 1}")
        for a, b in combinations(verts, 2):
            if norm_edge(a, b) not in src.graph.edges:
                raise ValueError("certificate vertices do not form a clique")
        u_id, _, _, u_size, _ = _mcq_layout(src)
        e_q = {norm_edge(a, b) for a, b in combinations(verts, 2)}
        e_vu = {norm_edge(verts[i - 1], u_id(i, a))
                for i in range(1, src.k + 1) for a in range(u_size)}
        return frozenset(e_q | e_vu)
    if src.kind == "dominating-set":
        dom = set(certificate)
        if not dom <= set(range(src.graph.n)):
            raise ValueError("dominating set certificate out of range")
        c = src.graph.n
        return frozenset(norm_edge(c, v) for v in dom)
    if src.kind == "diameter2-augmentation":
        cert = {norm_edge(u, v) for u, v in certificate}
        if any(e in src.graph.edges for e in cert):
            raise ValueError("augmentation certificate overlaps the source edges")
        if src.epsilon is not None:
            n = src.graph.n
            return frozenset(norm_edge(_grid_id(i + 1, j + 1, n),
                                       _grid_id(j + 1, i + 1, n))
                             for i, j in cert)
        return frozenset(cert)
    if src.kind == "two-spanner":
        cert = {norm_edge(u, v) for u, v in certificate}
        if not cert <= src.graph.edges:
            raise ValueError("spanner certificate must be a subset of E(H)")
        return frozenset(cert)
    raise ValueError(f"unknown source kind {src.kind!r}")
