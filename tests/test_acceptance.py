"""End-to-end acceptance checks, one test per criterion.

Each test records a single PASS/FAIL line that the terminal summary
prints, with the tolerance it was run at.  Criteria 1-3 and 7 demand
exact agreement (zero disagreements); 4 is an exact arithmetic identity;
5 is an exact containment; 6 adds wall-clock budgets on top of exact
structural counts; 8 demands byte-identical output.
"""

import io
import random
import time
from fractions import Fraction
from itertools import combinations

from dilaug.cli import run as cli_run
from dilaug.fileformat import serialize_instance
from dilaug.graph import Graph, ball
from dilaug.kdd import f_value, solve_kdd
from dilaug.model import adjacent_conflicts, is_conflict_free, verify_solution
from dilaug.oracle import solve_min
from dilaug.randinst import STRETCHES, random_instance, random_solution
from dilaug.reductions import (SourceProblem, gen_diameter2_clique,
                               gen_diameter2_weighted, gen_dominating_set_star,
                               gen_multicolored_clique, gen_spanner_edgeless,
                               lift_witness)
from dilaug.structured import (solve_bounded_g, solve_bounded_gamma,
                               solve_tree_gamma)

from conftest import (all_pairs_within_stretch, blocking_instance, max_degree,
                      record_acceptance)


def _report(num: int, desc: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    record_acceptance(f"criterion {num}: {status} - {desc} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _mixed_corpus(seed: int, count: int):
    rng = random.Random(seed)
    return [random_instance(rng, n_max=8, k_max=2, forest_g=(i % 2 == 0))
            for i in range(count)]


def test_criterion_1_adjacent_check_equals_full_check():
    """The verifier may look only at Gamma-adjacent pairs."""
    start = time.perf_counter()
    rng = random.Random(10001)
    mismatches = 0
    # Unweighted draws have no Gamma edge longer than its d_Gamma; the
    # weighted ones do, so they reach the scan's exact pass.
    draws = [{}] * 1000 + [{"ts": STRETCHES, "max_weight": 10}] * 200
    for kwargs in draws:
        inst = random_instance(rng, n_max=8, k_max=2, **kwargs)
        s = random_solution(rng, inst)
        if is_conflict_free(inst, s) != all_pairs_within_stretch(inst, s):
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(1, "adjacent-pair check equivalent to all-pairs stretch check",
            mismatches == 0 and elapsed < 60,
            f"1200 instances (200 weighted), {mismatches} mismatches, "
            f"{elapsed:.1f}s, tolerance: exact, < 60s")


def _weighted_corpus(seed: int, count: int):
    rng = random.Random(seed)
    return [random_instance(rng, n_max=8, k_max=2, ts=STRETCHES, max_weight=4)
            for _ in range(count)]


def test_criterion_2_structured_engines_match_oracle():
    mismatches = {"bounded-gamma": 0, "bounded-g": 0, "tree": 0}
    for inst in _mixed_corpus(10002, 500) + _weighted_corpus(10009, 200):
        expected = solve_min(inst).yes
        if solve_bounded_gamma(inst).yes != expected:
            mismatches["bounded-gamma"] += 1
        if solve_bounded_g(inst).yes != expected:
            mismatches["bounded-g"] += 1
    rng = random.Random(10003)
    for i in range(500):
        inst = random_instance(rng, n_max=8, k_max=3,
                               ts=(Fraction(3, 2), Fraction(2)),
                               tree_gamma=True, forest_g=(i % 2 == 0))
        if solve_tree_gamma(inst).yes != solve_min(inst).yes:
            mismatches["tree"] += 1
    total = sum(mismatches.values())
    _report(2, "bounded-gamma/bounded-g/tree engines agree with brute force",
            total == 0,
            f"700 instances (200 weighted) per bounded engine, 500 for tree, "
            f"disagreements {mismatches}, "
            f"tolerance: zero")


def test_criterion_3_kdd_matches_oracle_with_invariants(kdd_branchings):
    # The random draws are too small for kdd to branch; the blocking
    # instances make it branch, and every branching's children are checked.
    rng, family = random.Random(10004), random.Random(2)
    instances = [random_instance(rng, n_max=8, k_max=2,
                                 ts=(Fraction(2),), forest_g=True)
                 for _ in range(300)]
    instances += [blocking_instance(family, pendant=i % 2 == 1)
                  for i in range(200)]
    mismatches = sum(solve_kdd(inst, 2).yes != solve_min(inst).yes
                     for inst in instances)
    branchings, violations = kdd_branchings["branchings"], kdd_branchings["violations"]
    ok = mismatches == 0 and violations == 0 and branchings >= 100
    _report(3, "kdd engine (d=2, t=2, forest G) agrees with brute force and "
            "keeps its branching invariants",
            ok,
            f"300 random and 200 blocking instances, {mismatches} disagreements, "
            f"{violations} children over budget or cover bound in "
            f"{branchings} branchings (at least 100), tolerance: zero")


def test_criterion_4_threshold_function_identity():
    bad = 0
    for d in range(1, 7):
        for k in range(1, 7):
            for i in range(1, d + 1):
                if f_value(i - 1, k, d) != (f_value(i, k, d) + k) * k + k:
                    bad += 1
    spots_ok = ([f_value(i, 1, 2) for i in (2, 1, 0)] == [2, 4, 6]
                and [f_value(i, 2, 3) for i in (3, 2, 1, 0)] == [3, 12, 30, 66])
    _report(4, "f satisfies f(i-1) = (f(i)+k)k+k for all d,k <= 6 plus spot "
            "values",
            bad == 0 and spots_ok,
            f"{bad} recurrence failures, spot values "
            f"{'ok' if spots_ok else 'wrong'}, tolerance: exact")


def test_criterion_5_minimum_solutions_are_local():
    # Unweighted Gamma only: on weighted Gamma a solution edge can lie
    # many hops from every conflict vertex (conftest's far_bridge_instance).
    violations = 0
    checked = 0
    for inst in _mixed_corpus(10002, 500):
        conflicts = adjacent_conflicts(inst)
        if not conflicts:
            continue
        verdict = solve_min(inst)
        if not verdict.yes or not verdict.solution:
            continue
        checked += 1
        vc = sorted({x for e in conflicts for x in e})
        vs = sorted({x for e in verdict.solution for x in e})
        t_floor = inst.t.numerator // inst.t.denominator
        if not set(vs) <= set(ball(inst.gamma, vc, t_floor)):
            violations += 1
        if not set(vc) <= set(ball(inst.gamma, vs, t_floor)):
            violations += 1
        shadow = Graph(inst.n, inst.g_edges)
        if max_degree(inst.g_edges) > 0 and \
                not set(vs) <= set(ball(shadow, vc, t_floor * t_floor)):
            violations += 1
    _report(5, "minimum solutions stay within floor(t) Gamma-hops of the "
            "conflict vertices (and floor(t)^2 G-hops)",
            violations == 0 and checked >= 100,
            f"{checked} yes-instances checked, {violations} locality "
            f"violations, tolerance: zero")


def _mcq_src(k):
    n = 2 * k
    clique = [2 * i for i in range(k)]
    edges = set(combinations(clique, 2))
    partition = tuple((2 * i, 2 * i + 1) for i in range(k))
    return SourceProblem("multicolored-clique", Graph(n, edges), k,
                         partition=partition), clique


def test_criterion_6_generator_structure_and_lifts():
    start = time.perf_counter()
    problems = []

    for k in (2, 3):
        src, clique = _mcq_src(k)
        gen = gen_multicolored_clique(src)
        inst = gen.instance
        problems.append(inst.k == k * (k - 1) // 2 + k ** 3)
        problems.append(inst.n == 2 * k + k * k * k + 3 * k ** 4 + 1)
        problems.append(inst.t == 3 and inst.gamma.is_unweighted())
        witness = lift_witness(src, clique)
        problems.append(len(witness) == inst.k)
        problems.append(verify_solution(inst, witness).ok)

    h = Graph(3, [(0, 1), (1, 2)])
    src = SourceProblem("dominating-set", h, 1)
    gen = gen_dominating_set_star(src)
    problems.append(verify_solution(gen.instance, lift_witness(src, {1})).ok)

    h = Graph(4, [(0, 1), (1, 2), (2, 3)])
    src = SourceProblem("diameter2-augmentation", h, 1, epsilon=Fraction(1, 2))
    gen = gen_diameter2_weighted(src, Fraction(1, 2))
    inst = gen.instance
    problems.append(inst.n == 16)
    problems.append(inst.t == Fraction(5, 2))
    problems.append({inst.gamma.weight.get(e, 1)
                     for e in inst.gamma.edges} == {1, 12})
    problems.append(max_degree(inst.g_edges) <= 3)
    problems.append(verify_solution(inst, lift_witness(src, {(0, 3)})).ok)

    h = Graph(3, [(0, 1), (1, 2), (0, 2)])
    src = SourceProblem("two-spanner", h, 2)
    gen = gen_spanner_edgeless(src)
    problems.append(
        verify_solution(gen.instance, lift_witness(src, [(0, 1), (1, 2)])).ok)

    h = Graph(4, [(0, 1), (1, 2), (2, 3)])
    src = SourceProblem("diameter2-augmentation", h, 1)
    gen = gen_diameter2_clique(src)
    problems.append(verify_solution(gen.instance, lift_witness(src, {(0, 3)})).ok)

    elapsed = time.perf_counter() - start
    failed = problems.count(False)
    _report(6, "generator structural counts (k=2,3) and all five witness "
            "lifts verify",
            failed == 0 and elapsed < 120,
            f"{len(problems)} checks, {failed} failures, {elapsed:.1f}s, "
            f"tolerance: exact, < 120s")


def _hop_apsp(n, edges):
    g = Graph(n, edges)
    return [g.hop_distances(v) for v in range(n)]


def _source_two_spanner_yes(h: Graph, k: int) -> bool:
    base = _hop_apsp(h.n, h.edges)
    for size in range(min(k, len(h.edges)) + 1):
        for sub in combinations(sorted(h.edges), size):
            dist = _hop_apsp(h.n, sub)
            if all(dist[u][v] <= 2 * base[u][v]
                   for u in range(h.n) for v in range(u + 1, h.n)):
                return True
    return False


def _source_diam2_yes(h: Graph, k: int) -> bool:
    non_edges = [e for e in combinations(range(h.n), 2) if e not in h.edges]
    for size in range(min(k, len(non_edges)) + 1):
        for sub in combinations(non_edges, size):
            dist = _hop_apsp(h.n, set(h.edges) | set(sub))
            if all(dist[u][v] <= 2
                   for u in range(h.n) for v in range(u + 1, h.n)):
                return True
    return False


def test_criterion_7_tiny_reverse_equivalence():
    """Each reduced instance is also solved by ``bounded-gamma``, whose
    certificate must be brute's: on an edgeless G every path in G + S is
    made of S's edges alone, and k = n - 1 compares sets of up to four."""
    rng = random.Random(10007)
    disagreements = 0
    mismatches = 0
    cases = 0

    def check(inst, source_yes):
        nonlocal cases, disagreements, mismatches
        cases += 1
        want = solve_min(inst)
        disagreements += source_yes != want.yes
        mismatches += solve_bounded_gamma(inst) != want

    for _ in range(25):
        n = rng.randint(3, 6)
        h = _random_connected(rng, n)
        for k in sorted({0, 1, 2} | ({n - 1} if n <= 5 else set())):
            src = SourceProblem("two-spanner", h, k)
            check(gen_spanner_edgeless(src).instance, _source_two_spanner_yes(h, k))
    for _ in range(25):
        n = rng.randint(3, 7)
        pairs = list(combinations(range(n), 2))
        h = Graph(n, [e for e in pairs if rng.random() < 0.4])
        for k in (0, 1, 2):
            src = SourceProblem("diameter2-augmentation", h, k)
            check(gen_diameter2_clique(src).instance, _source_diam2_yes(h, k))
    _report(7, "two-spanner and diameter-2-clique reductions preserve the "
            "answer on exhaustively solved tiny sources, and bounded-gamma "
            "returns brute's verdict and certificate on each",
            disagreements == 0 and mismatches == 0,
            f"{cases} (source, k) cases, {disagreements} disagreements, "
            f"{mismatches} bounded-gamma mismatches, tolerance: zero")


def _random_connected(rng, n):
    # random spanning tree plus noise
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.3:
            edges.add((u, v))
    return Graph(n, edges)


def test_criterion_8_cli_output_is_deterministic(tmp_path):
    rng = random.Random(10008)
    files = []
    for i in range(20):
        inst = random_instance(rng, n_max=7, k_max=2, forest_g=(i % 2 == 0))
        path = tmp_path / f"inst_{i}.dilaug"
        path.write_text(serialize_instance(inst))
        files.append(str(path))
    unstable = 0
    for path in files:
        outputs = set()
        for attempt in range(3):
            for engine in ("brute", "auto"):
                buf = io.StringIO()
                code = cli_run(["solve", "--engine", engine,
                                "--input", path], out=buf)
                outputs.add((code, buf.getvalue()))
        if len(outputs) != 1:
            unstable += 1
    _report(8, "CLI solve output byte-identical across reruns and "
            "--engine brute/auto",
            unstable == 0,
            f"20 instances x 6 runs, {unstable} unstable, "
            f"tolerance: byte-identical")
