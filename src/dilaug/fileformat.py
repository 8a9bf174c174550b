"""Instance, solution and source file parsing and serialization.

Instance format (UTF-8, newline-delimited, 1-based vertex ids):

    c <comment>            ignored
    p dilaug <n> <k> <p>/<q>   exactly once, first non-comment line
    e <u> <v> <w>          Gamma edge, integer weight w >= 1
    g <u> <v>              G edge
    l <v> <label>          optional vertex label, checked and ignored

Solution files contain lines ``s <u> <v>``.  Source files for the
hardness generators contain ``p src <n> <k>`` once, then ``e <u> <v>``
edges and ``v <u> <color>`` colors.  Internally vertices are 0-based; the
translation happens here and only here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .graph import Edge, Graph
from .model import Instance, MetricUndefinedError


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


def parse_rational(text: str) -> Fraction:
    """An integer or ``p/q`` with integers p and q != 0."""
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def _int(tok: str, what: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"bad {what} {tok!r}", lineno) from None


def _vertex(tok: str, n: int, lineno: int) -> int:
    v = _int(tok, "vertex id", lineno)
    if not (1 <= v <= n):
        raise ParseError(f"vertex {v} out of range [1, {n}]", lineno)
    return v - 1


def _edge(parts: list[str], n: int, lineno: int) -> Edge:
    """The 0-based edge of the tokens ``parts[1]`` and ``parts[2]``."""
    try:
        u, v = int(parts[1]), int(parts[2])
    except ValueError:
        u = v = 0
    if 0 < u <= n and 0 < v <= n and u != v:
        return (u - 1, v - 1) if u < v else (v - 1, u - 1)
    _vertex(parts[1], n, lineno), _vertex(parts[2], n, lineno)  # raises unless a self-loop
    raise ParseError("self-loop", lineno)


def _lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of every line not blank and not a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and parts[0][0] != "c":  # a comment's first token starts with c
            yield lineno, parts


def parse_instance(text: str) -> Instance:
    header = None
    n = 0  # so that no edge line passes the range test before the header
    gamma_edges: dict[Edge, int] = {}
    g_edges: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "c":  # a comment's first token starts with c
            continue
        kind = parts[0]
        # A well-formed edge line is taken here; any other line, and any
        # edge line that breaks a rule, goes on to the checks below.
        try:
            if kind == "e" and len(parts) == 4:
                u, v, w = int(parts[1]), int(parts[2]), int(parts[3])
                e = (u - 1, v - 1) if u < v else (v - 1, u - 1)
                if 0 < u <= n and 0 < v <= n and u != v and w >= 1 and e not in gamma_edges:
                    gamma_edges[e] = w
                    continue
            elif kind == "g" and len(parts) == 3:
                u, v = int(parts[1]), int(parts[2])
                e = (u - 1, v - 1) if u < v else (v - 1, u - 1)
                if 0 < u <= n and 0 < v <= n and u != v and e not in g_edges:
                    g_edges.add(e)
                    continue
        except ValueError:
            pass
        if kind == "p":
            if header is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 5 or parts[1] != "dilaug":
                raise ParseError("header must be 'p dilaug <n> <k> <t>'", lineno)
            n, k = _int(parts[2], "n", lineno), _int(parts[3], "k", lineno)
            if n < 1 or k < 0:
                raise ParseError("need n >= 1 and k >= 0", lineno)
            try:
                t = parse_rational(parts[4])
            except ParseError as exc:
                raise ParseError(str(exc), lineno) from None
            if t < 1:
                raise ParseError(f"stretch {parts[4]} is below 1", lineno)
            header = (n, k, t)
            continue
        if header is None:
            raise ParseError("header must precede edge lines", lineno)
        # The first branch takes every well-formed edge line: these only raise.
        if kind == "e":
            if len(parts) != 4:
                raise ParseError("gamma edge line must be 'e <u> <v> <w>'", lineno)
            _edge(parts, n, lineno)
            w = _int(parts[3], "weight", lineno)
            if w < 1:
                raise ParseError(f"weight {w} must be >= 1", lineno)
            raise ParseError("duplicate gamma edge", lineno)
        elif kind == "g":
            if len(parts) != 3:
                raise ParseError("G edge line must be 'g <u> <v>'", lineno)
            _edge(parts, n, lineno)
            raise ParseError("duplicate G edge", lineno)
        elif kind == "l":
            if len(parts) < 3:
                raise ParseError("label line must be 'l <v> <label>'", lineno)
            _vertex(parts[1], n, lineno)
        else:
            raise ParseError(f"unknown line type {kind!r}", lineno)
    if header is None:
        raise ParseError("missing 'p dilaug' header")
    n, k, t = header
    # Too few edges to connect n vertices: fail before Graph allocates.
    gamma = Graph._checked(n, gamma_edges) if len(gamma_edges) >= n - 1 else None
    if gamma is None or not gamma.is_connected():
        raise ParseError(str(MetricUndefinedError()))
    # The lines above make every check of Graph() and build_instance.
    return Instance(gamma, frozenset(g_edges), k, t)


def serialize_instance(inst: Instance) -> str:
    lines = [f"p dilaug {inst.n} {inst.k} {inst.t}"]
    for u, v in sorted(inst.gamma.edges):
        w = inst.gamma.weight.get((u, v), 1)
        lines.append(f"e {u + 1} {v + 1} {w}")
    for u, v in sorted(inst.g_edges):
        lines.append(f"g {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str, n: int) -> frozenset[Edge]:
    edges: set[Edge] = set()
    for lineno, parts in _lines(text):
        if parts[0] != "s" or len(parts) != 3:
            raise ParseError("solution line must be 's <u> <v>'", lineno)
        edges.add(_edge(parts, n, lineno))
    return frozenset(edges)


def serialize_solution(edges) -> str:
    return "".join(f"s {u + 1} {v + 1}\n" for u, v in sorted(edges))


def parse_source(text: str, want_partition: bool
                 ) -> tuple[Graph, int, tuple[tuple[int, ...], ...] | None]:
    """A generator's source graph, k and, if ``want_partition``, the color
    classes 1..k (every vertex needs a color)."""
    header = None
    edges: list[Edge] = []
    colors: dict[int, int] = {}
    for lineno, parts in _lines(text):
        kind = parts[0]
        if kind == "p":
            if header is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 4 or parts[1] != "src":
                raise ParseError("header must be 'p src <n> <k>'", lineno)
            header = (_int(parts[2], "n", lineno), _int(parts[3], "k", lineno))
            if header[0] < 1 or header[1] < 0:
                raise ParseError("need n >= 1 and k >= 0", lineno)
        elif kind == "e":
            if header is None or len(parts) != 3:
                raise ParseError("bad edge line", lineno)
            edges.append(_edge(parts, header[0], lineno))
        elif kind == "v":
            if header is None or len(parts) != 3:
                raise ParseError("bad color line", lineno)
            v = _vertex(parts[1], header[0], lineno)
            if want_partition and v in colors:
                raise ParseError(f"vertex {v + 1} has a second color", lineno)
            colors[v] = _int(parts[2], "color", lineno)
            if want_partition and not 1 <= colors[v] <= header[1]:
                raise ParseError(f"color {colors[v]} out of range [1, {header[1]}]", lineno)
        else:
            raise ParseError(f"unknown line type {kind!r}", lineno)
    if header is None:
        raise ParseError("missing 'p src' header")
    n, k = header
    # _edge checked every edge, and the header n >= 1: Graph() would raise nothing.
    graph = Graph._checked(n, dict.fromkeys(edges, 1))
    partition = None
    if want_partition:
        if set(colors) != set(range(n)):
            raise ParseError("multicolored clique source needs a color for every vertex")
        partition = tuple(tuple(sorted(v for v, c in colors.items() if c == i))
                          for i in range(1, k + 1))
    return graph, k, partition
