"""Command-line front end.

Exit codes: 0 = YES / valid, 1 = NO / invalid, 2 = usage, parse, file
read or write, or engine-inapplicability errors, 3 = the engine could not
answer (the kdd contract was broken, a search cap was hit, or a YES
certificate failed verification), or --d is below 1, whatever the engine.
Output is deterministic for fixed inputs, engine and seed; ``auto`` runs
bounded-gamma, so its output is brute's whatever the flags.
"""

from __future__ import annotations

import argparse
import random
import sys
import warnings
from pathlib import Path

from . import kdd, oracle, structured
from .fileformat import (ParseError, parse_instance, parse_rational,
                         parse_solution, parse_source, serialize_instance,
                         serialize_solution)
from .graph import Graph
from .model import Instance, verify_solution
from .oracle import SearchBudgetExceeded, Verdict
from .randinst import DEFAULT_TS, STRETCHES, random_instance
from .reductions import (SourceProblem, gen_diameter2_clique,
                         gen_diameter2_weighted, gen_dominating_set_star,
                         gen_multicolored_clique, gen_spanner_edgeless)
from .structured import EngineInapplicable

ENGINES = ("brute", "bounded-gamma", "bounded-g", "kdd", "auto")

# Each generator's source kind and function; diam2w alone takes --epsilon.
GENERATORS = {
    "mcq": ("multicolored-clique", gen_multicolored_clique),
    "domset": ("dominating-set", gen_dominating_set_star),
    "diam2w": ("diameter2-augmentation", gen_diameter2_weighted),
    "spanner": ("two-spanner", gen_spanner_edgeless),
    "diam2k": ("diameter2-augmentation", gen_diameter2_clique),
}

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_ENGINE = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def dispatch(inst: Instance, engine: str, d: int | None = None) -> Verdict:
    if d is not None and d < 1:
        raise CliError(f"--d must be at least 1, got {d}", EXIT_ENGINE)
    if engine == "brute":
        return oracle.solve_min(inst)
    if engine in ("bounded-gamma", "auto"):
        return structured.solve_bounded_gamma(inst)
    if engine == "bounded-g":
        return structured.solve_bounded_g(inst)
    if engine == "kdd":
        if d is None:
            raise CliError("--d is required for the kdd engine")
        return kdd.solve_kdd(inst, d)
    raise CliError(f"unknown engine {engine!r}")


def _parse_file(path: str, parse, *args):
    try:
        with open(path, encoding="utf-8") as file:
            return parse(file.read(), *args)
    except (OSError, UnicodeDecodeError) as exc:
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
    if (args.epsilon is None) == (args.generator == "diam2w"):
        raise CliError("--epsilon is required by diam2w and accepted by no other generator")
    kind, generate = GENERATORS[args.generator]
    graph, k, partition = _parse_file(args.source, parse_source, kind == "multicolored-clique")
    # Each library warning is one "warning: " line, like the error lines.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            eps = None if args.epsilon is None else parse_rational(args.epsilon)
            src = SourceProblem(kind, graph, k, partition=partition, epsilon=eps)
            gen = generate(src) if eps is None else generate(src, eps)
        except ValueError as exc:  # includes InstanceError and MetricUndefinedError
            raise CliError(str(exc))
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
    body = serialize_instance(gen.instance)
    labels = "".join(f"l {v + 1} {gen.labels[v]}\n" for v in sorted(gen.labels))
    if args.output:
        try:
            Path(args.output).write_text(body, encoding="utf-8")
            Path(args.output + ".labels").write_text(labels, encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc}")
        out.write(f"wrote {args.output} and {args.output}.labels\n")
    else:
        out.write(body)
        out.write(labels)
    return EXIT_YES


def _applicable_engines(inst: Instance) -> list[str]:
    """Names of the engines besides brute that can decide ``inst``.
    ``bounded-g`` runs ``bounded-gamma``'s body, so it is not listed."""
    names = ["bounded-gamma"]
    # A forest is K_{2,2}-free, so d = 2 keeps the kdd contract.
    if kdd.kdd_inapplicable(inst) is None and Graph(inst.n, inst.g_edges).is_forest():
        names.append("kdd")
    return names


def cmd_fuzz(args, out) -> int:
    if args.count < 0:
        raise CliError(f"--count must be at least 0, got {args.count}")
    rng = random.Random(args.seed)
    failures = 0
    for i in range(args.count):
        weighted = i % 2 == 1  # even draws have a forest G, for kdd
        inst = random_instance(rng, n_max=8, k_max=2, forest_g=not weighted,
                               tree_gamma=i % 3 == 2,
                               ts=STRETCHES if weighted else DEFAULT_TS,
                               max_weight=4 if weighted else 1)
        expected = oracle.solve_min(inst)
        for name in _applicable_engines(inst):
            got = dispatch(inst, name, d=2)
            # kdd prints some certificate within budget; the others print brute's.
            if (got.yes != expected.yes if name == "kdd" else got != expected):
                failures += 1
                dump = f"fuzz_fail_{args.seed}_{i}_{name}.dilaug"
                try:
                    Path(dump).write_text(serialize_instance(inst))
                except OSError as exc:
                    raise CliError(f"cannot write {dump}: {exc}")
                out.write(f"DISAGREEMENT engine={name} oracle={expected} "
                          f"got={got} dumped={dump}\n")
    out.write(f"fuzz: {args.count} instances, {failures} disagreements\n")
    return EXIT_YES if failures == 0 else EXIT_NO


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and each command's (sub-parser, handler) by name."""
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
    p_gen.add_argument("generator", choices=GENERATORS)
    p_gen.add_argument("--source", required=True,
                       help="source problem file ('p src <n> <k>', 'e u v', 'v u color')")
    p_gen.add_argument("--epsilon", default=None, help="rational in (0,1), diam2w only")
    p_gen.add_argument("--output", default=None)

    p_fuzz = sub.add_parser("fuzz", help="cross-check engines against the oracle")
    p_fuzz.add_argument("--seed", type=int, required=True)
    p_fuzz.add_argument("--count", type=int, required=True)
    return parser, {"solve": (p_solve, cmd_solve), "verify": (p_verify, cmd_verify),
                    "gen": (p_gen, cmd_gen), "fuzz": (p_fuzz, cmd_fuzz)}


# A top-level pass takes twice as long as the command's own sub-parser, so
# run() calls that sub-parser, and sends through PARSER only an argv that no
# sub-parser reads in full (no or an unknown command, -h, left-over arguments).
PARSER, COMMANDS = build_parser()


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    command = COMMANDS.get(argv[0]) if argv else None
    try:
        if command is not None:
            args, extra = command[0].parse_known_args(argv[1:])
        if command is None or extra:
            args = PARSER.parse_args(argv)
            command = COMMANDS[args.command]
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return command[1](args, out)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
