"""Command-line front end.

Exit codes: 0 = YES / valid, 1 = NO / invalid, 2 = usage, parse or
engine-inapplicability errors, 3 = the engine could not answer (the kdd
contract was broken, a search cap was hit, --d is below 1, or a YES
certificate failed verification).  Output is deterministic for fixed
inputs, engine and seed.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

from . import kdd, oracle, structured
from .fileformat import (ParseError, parse_instance, parse_rational,
                         parse_solution, parse_source, serialize_instance,
                         serialize_solution)
from .graph import Graph, max_degree
from .model import Instance, verify_solution
from .oracle import SearchBudgetExceeded, Verdict
from .randinst import DEFAULT_TS, STRETCHES, random_instance
from .reductions import (SourceProblem, gen_diameter2_clique,
                         gen_diameter2_weighted, gen_dominating_set_star,
                         gen_multicolored_clique, gen_spanner_edgeless)
from .structured import EngineInapplicable

ENGINES = ("brute", "tree", "bounded-gamma", "bounded-g", "kdd", "auto")

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_ENGINE = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _pick_auto(inst: Instance, d: int | None) -> str:
    if structured.tree_inapplicable(inst) is None:
        return "tree"
    if d is not None and kdd.kdd_inapplicable(inst) is None:
        return "kdd"
    if inst.gamma.max_degree() <= max_degree(inst.g_edges):
        return "bounded-gamma"
    return "bounded-g"


def dispatch(inst: Instance, engine: str, d: int | None = None) -> Verdict:
    if engine == "auto":
        engine = _pick_auto(inst, d)
    if engine == "brute":
        return oracle.solve_min(inst)
    if engine == "tree":
        return structured.solve_tree_gamma(inst)
    if engine == "bounded-gamma":
        return structured.solve_bounded_gamma(inst)
    if engine == "bounded-g":
        return structured.solve_bounded_g(inst)
    if engine == "kdd":
        if d is None:
            raise CliError("--d is required for the kdd engine")
        if d < 1:
            raise CliError(f"--d must be at least 1, got {d}", EXIT_ENGINE)
        return kdd.solve_kdd(inst, d)
    raise CliError(f"unknown engine {engine!r}")


def _parse_file(path: str, parse, *args):
    try:
        return parse(Path(path).read_text(), *args)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except ParseError as exc:
        raise CliError(f"{path}: {exc}")


def cmd_solve(args, out) -> int:
    inst = _parse_file(args.input, parse_instance)
    try:
        verdict = dispatch(inst, args.engine, d=args.d)
    except EngineInapplicable as exc:
        raise CliError(f"engine inapplicable: {exc}")
    except (kdd.NotKddFree, SearchBudgetExceeded) as exc:
        raise CliError(f"engine failed: {exc}", EXIT_ENGINE)
    if verdict.yes:
        check = verify_solution(inst, verdict.solution)
        if not check.ok:
            raise CliError(f"engine returned a certificate that fails "
                           f"verification: {check.reason}", EXIT_ENGINE)
        out.write("YES\n")
        out.write(serialize_solution(verdict.solution))
        return EXIT_YES
    out.write("NO\n")
    return EXIT_NO


def cmd_verify(args, out) -> int:
    inst = _parse_file(args.input, parse_instance)
    sol = _parse_file(args.solution, parse_solution, inst.n)
    result = verify_solution(inst, sol)
    if result.ok:
        out.write("valid\n")
        return EXIT_YES
    out.write(f"invalid {result.reason}\n")
    return EXIT_NO


def cmd_gen(args, out) -> int:
    graph, k, partition = _parse_file(args.source, parse_source, args.generator == "mcq")
    try:
        if args.generator == "mcq":
            src = SourceProblem("multicolored-clique", graph, k, partition=partition)
            gen = gen_multicolored_clique(src)
        elif args.generator == "domset":
            gen = gen_dominating_set_star(SourceProblem("dominating-set", graph, k))
        elif args.generator == "diam2w":
            if args.epsilon is None:
                raise CliError("diam2w requires --epsilon")
            eps = parse_rational(args.epsilon)
            src = SourceProblem("diameter2-augmentation", graph, k, epsilon=eps)
            gen = gen_diameter2_weighted(src, eps)
        elif args.generator == "spanner":
            gen = gen_spanner_edgeless(SourceProblem("two-spanner", graph, k))
        else:  # diam2k; argparse admits no other generator
            gen = gen_diameter2_clique(SourceProblem("diameter2-augmentation", graph, k))
    except ValueError as exc:  # includes InstanceError and MetricUndefinedError
        raise CliError(str(exc))
    body = serialize_instance(gen.instance)
    labels = "".join(f"l {v + 1} {gen.labels[v]}\n" for v in sorted(gen.labels))
    if args.output:
        Path(args.output).write_text(body)
        Path(args.output + ".labels").write_text(labels)
        out.write(f"wrote {args.output} and {args.output}.labels\n")
    else:
        out.write(body)
        out.write(labels)
    return EXIT_YES


def _applicable_engines(inst: Instance) -> list[str]:
    """Names of the engines besides brute that can decide ``inst``."""
    names = ["bounded-gamma", "bounded-g"]
    if structured.tree_inapplicable(inst) is None:
        names.append("tree")
    # A forest is K_{2,2}-free, so d = 2 keeps the kdd contract.
    if kdd.kdd_inapplicable(inst) is None and Graph(inst.n, inst.g_edges).is_forest():
        names.append("kdd")
    return names


def cmd_fuzz(args, out) -> int:
    rng = random.Random(args.seed)
    failures = 0
    for i in range(args.count):
        weighted = i % 2 == 1  # even draws have a forest G, for kdd and tree
        inst = random_instance(rng, n_max=8, k_max=2, forest_g=not weighted,
                               ts=STRETCHES if weighted else DEFAULT_TS,
                               max_weight=4 if weighted else 1)
        expected = oracle.solve_min(inst)
        for name in _applicable_engines(inst):
            got = dispatch(inst, name, d=2)
            # kdd may print any minimum certificate; the others print brute's.
            if (got.yes != expected.yes if name == "kdd" else got != expected):
                failures += 1
                dump = f"fuzz_fail_{args.seed}_{i}_{name}.dilaug"
                Path(dump).write_text(serialize_instance(inst))
                out.write(f"DISAGREEMENT engine={name} oracle={expected} "
                          f"got={got} dumped={dump}\n")
    out.write(f"fuzz: {args.count} instances, {failures} disagreements\n")
    return EXIT_YES if failures == 0 else EXIT_NO


def cmd_bench(args, out) -> int:
    rng = random.Random(12345)
    rows = []
    for i in range(10):
        inst = random_instance(rng, n_max=8, k_max=2, forest_g=(i % 2 == 0))
        for name in ["brute", *_applicable_engines(inst)]:
            start = time.perf_counter()
            verdict = dispatch(inst, name, d=2)
            elapsed = time.perf_counter() - start
            rows.append((i, name, verdict.yes, elapsed))
    out.write(f"{'inst':>4} {'engine':>14} {'answer':>6} {'seconds':>10}\n")
    for i, name, yes, elapsed in rows:
        out.write(f"{i:>4} {name:>14} {'YES' if yes else 'NO':>6} {elapsed:>10.4f}\n")
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dilaug",
        description="Exact solvers for the dilation t-augmentation problem")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide an instance")
    p_solve.add_argument("--engine", choices=ENGINES, default="auto")
    p_solve.add_argument("--d", type=int, default=None,
                         help="biclique parameter for the kdd engine")
    p_solve.add_argument("--input", required=True)

    p_verify = sub.add_parser("verify", help="check a solution file")
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument("--solution", required=True)

    p_gen = sub.add_parser("gen", help="generate a hardness-construction instance")
    p_gen.add_argument("generator",
                       choices=("mcq", "domset", "diam2w", "spanner", "diam2k"))
    p_gen.add_argument("--source", required=True,
                       help="source problem file ('p src <n> <k>', 'e u v', 'v u color')")
    p_gen.add_argument("--epsilon", default=None, help="rational in (0,1), diam2w only")
    p_gen.add_argument("--output", default=None)

    p_fuzz = sub.add_parser("fuzz", help="cross-check engines against the oracle")
    p_fuzz.add_argument("--seed", type=int, required=True)
    p_fuzz.add_argument("--count", type=int, required=True)

    p_bench = sub.add_parser("bench", help="timing report")
    p_bench.add_argument("--suite", required=True, choices=("quick",))
    return parser


# Built once: building it costs about as much as a small solve.
PARSER = build_parser()


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handlers = {"solve": cmd_solve, "verify": cmd_verify, "gen": cmd_gen,
                "fuzz": cmd_fuzz, "bench": cmd_bench}
    try:
        return handlers[args.command](args, out)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
