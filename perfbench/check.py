"""Independent correctness checks for benchmark outputs.

Certificates are checked with networkx over *all* vertex pairs, without
calling ``dilaug.verify_solution``: both metrics come from
``networkx.floyd_warshall_numpy`` (integer path lengths, exact in float64
far beyond these sizes) and every pair is compared exactly, as
d_{G+S} * q <= d_Gamma * p for t = p/q.  Verdicts of ``solve`` operations
are compared with reference verdicts from the brute-force oracle, which the
benchmark computes outside the timed loop.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from corpus import Case, Spec, norm


def _metric(n: int, weighted_edges) -> np.ndarray:
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for (u, v), w in weighted_edges:
        graph.add_edge(u, v, weight=w)
    return nx.floyd_warshall_numpy(graph, nodelist=range(n), weight="weight")


class Checker:
    """Checks certificates against instances, caching each instance's
    Gamma metric (a verify corpus checks two certificates per instance)."""

    def __init__(self) -> None:
        # id(spec) -> (spec, metric); holding the spec keeps its id unique.
        self._gamma_metric: dict[int, tuple[Spec, np.ndarray]] = {}

    def _d_gamma(self, spec: Spec) -> np.ndarray:
        key = id(spec)
        if key not in self._gamma_metric:
            self._gamma_metric[key] = (spec, _metric(spec.n, spec.gamma.items()))
        return self._gamma_metric[key][1]

    def certificate_error(self, spec: Spec, solution: frozenset) -> str | None:
        """None if G + solution has dilation <= t within budget, else why not."""
        if len(solution) > spec.k:
            return "budget exceeded"
        if solution & spec.g:
            return "overlaps G"
        d_gamma = self._d_gamma(spec)
        if np.isinf(d_gamma).any():
            return "gamma disconnected"
        d_h = _metric(spec.n, (((u, v), d_gamma[u, v]) for u, v in spec.g | solution))
        if np.isinf(d_h).any():
            return "G + S disconnected"
        worse = (d_h.astype(np.int64) * spec.t.denominator
                 > d_gamma.astype(np.int64) * spec.t.numerator)
        if worse.any():
            u, v = np.argwhere(worse)[0]
            return f"dilation of ({u},{v}) exceeds t"
        return None


def parse_certificate(lines: list[str], n: int) -> frozenset | None:
    """``s u v`` lines (1-based) as normalized 0-based edges; None if any
    line is malformed or out of range."""
    edges = set()
    for line in lines:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "s":
            return None
        try:
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
        except ValueError:
            return None
        if u == v or not (0 <= u < n and 0 <= v < n):
            return None
        edges.add(norm(u, v))
    return frozenset(edges)


def outcome_error(checker: Checker, case: Case, expected: bool, code, output: str,
                  error: str | None) -> str | None:
    """None if one operation's exit code and output are right, else why not.

    ``expected`` is the reference verdict: YES for a solve case, valid for a
    verify case.
    """
    if error is not None:
        return f"raised {error}"
    if code not in (0, 1):
        return f"exit code {code}"
    lines = output.splitlines()
    head = lines[0].split()[0] if lines and lines[0].split() else ""
    if case.solution is not None:
        word = "valid" if code == 0 else "invalid"
        if head != word:
            return f"exit code {code} with output {head!r}"
        if (code == 0) != expected:
            return f"said {word}, reference says {'valid' if expected else 'invalid'}"
        return None
    word = "YES" if code == 0 else "NO"
    if head != word or (code == 1 and len(lines) != 1):
        return f"exit code {code} with output {head!r}"
    if (code == 0) != expected:
        return f"said {word}, reference says {'YES' if expected else 'NO'}"
    if code == 0:
        cert = parse_certificate(lines[1:], case.spec.n)
        if cert is None:
            return "malformed certificate"
        problem = checker.certificate_error(case.spec, cert)
        if problem is not None:
            return f"invalid certificate: {problem}"
    return None
