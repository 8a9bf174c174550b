#!/usr/bin/env python3
"""End-to-end benchmark of dilaug: decide instances and check certificates.

Run from the repository root:

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Each workload is a closed loop with one client: this process runs one
``dilaug`` command at a time, in-process through ``dilaug.cli.run``, on
files written during set-up.  It makes whole passes over the corpus until
``--seconds`` have passed.  Every time is scaled to a reference host speed
by a calibration chunk run around it (calibrate.py); an operation's latency
is the median of its passes.  Every corpus has at least 100 cases, so at
least ten samples lie beyond the 90th percentile.  Every output of every
pass is then checked against independent references (check.py).

The last line of stdout is one JSON object.  With ``--trace 0`` its
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones of traced passes (tracing.py), alternated with untraced ones to give
the tracing overhead.  Corpus files and spans go to
``.perfbench_out/<workload>/``.  See README.md for the workloads and what
each metric is expected to move.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import corpus  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

SETUP_REPEATS = 5       # setup_s is the median of these
MAX_LOOP_S = 60.0       # stop a loop mid-pass past this, so a slow run still ends

# Only flags that survive the planned CLI clean-up: no --parallel.
COMMANDS = {
    "search": ["solve", "--engine", "auto"],
    "kdd": ["solve", "--engine", "auto", "--d", "2"],
    "verify": ["verify"],
    "wtree": ["solve", "--engine", "auto"],
}


class BenchError(Exception):
    """The benchmark cannot run here (for example, no program to load)."""


@dataclass
class Loop:
    latencies: list[list[float]]                          # per case, one per pass
    scaled: list[list[float]]                             # the same at reference speed
    outcomes: list[tuple[int, object, str, str | None]]   # case, exit code, stdout, error
    wall: float
    passes: int

    @property
    def busy(self) -> float:
        """Seconds spent in the operations themselves, at reference speed."""
        return sum(map(sum, self.scaled))


def load_program():
    """Import dilaug afresh from this checkout's ``src``, never from an
    installed copy."""
    package_dir = SRC / "dilaug"
    if not (package_dir / "__init__.py").is_file():
        raise BenchError(f"no dilaug package at {package_dir}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "dilaug" or m.startswith("dilaug.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dilaug")
    importlib.import_module("dilaug.cli")
    if Path(pkg.__file__).resolve().parent != package_dir.resolve():
        raise BenchError(f"imported dilaug from {pkg.__file__}, not {package_dir}")
    return pkg


def setup(workload: str, seed: int, limit: int | None, out_dir: Path,
          tracer: Tracer | None):
    """Import the program, generate the corpus and write its files.

    Returns (seconds taken, package, cases, argv per case)."""
    start = perf_counter()
    pkg = load_program()
    if tracer is not None:
        tracer.install()
    try:
        cases = corpus.build(workload, seed, pkg, limit)
    finally:
        if tracer is not None:
            tracer.restore()
    # Files are overwritten in place: deleting and re-creating a thousand
    # files cost 5-10 times as much as rewriting them, and varied far more.
    files = out_dir / "corpus"
    files.mkdir(parents=True, exist_ok=True)
    commands = []
    for case in cases:
        path = files / f"{case.name}.dilaug"
        path.write_text(corpus.instance_text(case.spec))
        argv = COMMANDS[workload] + ["--input", str(path)]
        if case.solution is not None:
            sol = files / f"{case.name}.sol"
            sol.write_text(corpus.solution_text(case.solution))
            argv += ["--solution", str(sol)]
        commands.append(argv)
    return perf_counter() - start, pkg, cases, commands


def timed_loop(commands: list[list[str]], seconds: float) -> Loop:
    """Whole passes over ``commands``, at least one, until ``seconds`` have
    passed.  Each operation sits between two calibration gaps, which scale
    its time to the reference speed.  ``cli.run`` is looked up per call, so
    an installed tracer sees every call."""
    cli = sys.modules["dilaug.cli"]
    latencies: list[list[float]] = [[] for _ in commands]
    scaled: list[list[float]] = [[] for _ in commands]
    outcomes = []
    start = perf_counter()
    passes = 0
    before = calibrate.gap()
    while passes < 1 or perf_counter() - start < seconds:
        for index, argv in enumerate(commands):
            out = io.StringIO()
            began = perf_counter()
            try:
                code, error = cli.run(argv, out=out), None
            except Exception as exc:   # a crash is a failed operation
                code, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - began
            after = calibrate.gap(elapsed)
            latencies[index].append(elapsed)
            scaled[index].append(elapsed * calibrate.factor(before, after))
            before = after
            outcomes.append((index, code, out.getvalue(), error))
            if perf_counter() - start > MAX_LOOP_S:
                return Loop(latencies, scaled, outcomes, perf_counter() - start, passes + 1)
        passes += 1
    return Loop(latencies, scaled, outcomes, perf_counter() - start, passes)


def reference_verdicts(pkg, cases: list[corpus.Case], checker) -> list[bool]:
    """YES/NO from the brute-force oracle for solve cases; valid/invalid from
    the independent all-pairs check for verify cases."""
    refs = []
    for case in cases:
        spec = case.spec
        if case.solution is not None:
            refs.append(checker.certificate_error(spec, case.solution) is None)
            continue
        gamma = pkg.Graph(spec.n, spec.gamma, spec.gamma)
        refs.append(pkg.solve_min(pkg.build_instance(gamma, spec.g, spec.k, spec.t)).yes)
    return refs


def evaluate(cases, refs: list[bool], outcomes, checker) -> list[str]:
    """One line per failed operation; each distinct outcome is checked once."""
    from check import outcome_error   # networkx loads only after the timed loop

    verdicts: dict[tuple, str | None] = {}
    failures = []
    for key in outcomes:
        if key not in verdicts:
            index, code, output, error = key
            verdicts[key] = outcome_error(checker, cases[index], refs[index], code, output, error)
        if verdicts[key] is not None:
            failures.append(f"{cases[key[0]].name}: {verdicts[key]}")
    return failures


def run_workload(args) -> dict:
    out_dir = OUT / args.workload
    setup_tracer = Tracer() if args.trace else None
    setup_times = []        # (measured, at reference speed)
    before = calibrate.gap()
    for _ in range(SETUP_REPEATS):
        elapsed, pkg, cases, commands = setup(args.workload, args.seed, args.cases,
                                              out_dir, setup_tracer)
        after = calibrate.gap(elapsed)
        setup_times.append((elapsed, elapsed * calibrate.factor(before, after)))
        before = after
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"corpus=v{corpus.CORPUS_VERSION} cases={len(cases)} "
          f"sha256={corpus.corpus_hash(cases)}")
    if args.trace:
        # Untraced and traced passes alternate, so drift in the host's speed
        # falls on both sides of the overhead ratio.
        loop_tracer = Tracer()
        base_s = traced_s = 0.0
        passes = 0
        outcomes = []
        start = perf_counter()
        while passes < 1 or perf_counter() - start < args.seconds:
            base = timed_loop(commands, 0)
            loop_tracer.install()
            try:
                traced = timed_loop(commands, 0)
            finally:
                loop_tracer.restore()
            base_s += base.busy
            traced_s += traced.busy
            passes += 1
            outcomes += base.outcomes + traced.outcomes
    else:
        loop = timed_loop(commands, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcomes = loop.outcomes

    from check import Checker   # networkx loads only after peak RSS is read

    checker = Checker()
    began = perf_counter()
    refs = reference_verdicts(pkg, cases, checker)
    failures = evaluate(cases, refs, outcomes, checker)
    check_s = perf_counter() - began
    attempted = len(outcomes)
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(f"checked {attempted} ops against references in {check_s:.1f} s: "
          f"failed_frac {len(failures) / attempted:.4f} ({len(failures)} of {attempted})")

    if args.trace:
        overhead = traced_s / base_s
        metrics, absent = summarize(loop_tracer, passes, setup_tracer,
                                    SETUP_REPEATS, overhead)
        spans = out_dir / "spans.tsv"
        setup_tracer.write_spans(out_dir / "setup_spans.tsv")
        loop_tracer.write_spans(spans)
        print(f"traced {passes} passes, {len(loop_tracer.span_name)} spans -> {spans}; "
              f"overhead {overhead:.3f}x (traced {traced_s / passes:.3f} s/pass, "
              f"untraced {base_s / passes:.3f} s/pass)")
        print(f"absent: {', '.join(absent) if absent else 'none'}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:42s} {value:14.6f} {unit}")
    else:
        # An op's latency is the median of its passes, at reference speed;
        # the measured figures are printed beside them.
        ops = sorted(statistics.median(samples) for samples in loop.scaled)
        raw = sorted(statistics.median(samples) for samples in loop.latencies)
        p50, p90, beyond = _percentiles(ops)
        raw_p50, raw_p90, _ = _percentiles(raw)
        measured_setup = statistics.median(m for m, _ in setup_times)
        metrics = {
            "latency_p50_ms": (p50 * 1000, "ms"),
            "latency_p90_ms": (p90 * 1000, "ms"),
            "throughput_ops_per_s": (len(ops) / sum(ops), "1/s"),
            "setup_s": (statistics.median(s for _, s in setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        notes = {
            "latency_p50_ms": f"n={len(ops)} ops, median of {loop.passes} passes each; "
                              f"measured {raw_p50 * 1000:.4f}",
            "latency_p90_ms": f"n={len(ops)} ops, {beyond} beyond p90; "
                              f"measured {raw_p90 * 1000:.4f}",
            "throughput_ops_per_s": f"{len(ops)} ops in {sum(ops):.2f} s; measured "
                                    f"{len(raw) / sum(raw):.4f}; loop wall "
                                    f"{loop.wall:.2f} s for {len(loop.outcomes)} ops",
            "setup_s": f"median of {SETUP_REPEATS} set-ups; measured {measured_setup:.4f}",
            "peak_rss_mb": "max RSS of this process after the loop",
        }
        print(f"  times at reference speed (calibration v{calibrate.VERSION}); "
              f"this host ran at {sum(raw) / sum(ops):.3f}x the reference's time")
        for name, (value, unit) in metrics.items():
            print(f"  {name:22s} {value:12.4f} {unit:4s} ({notes[name]})")
        print(f"  {'failed_frac':22s} {len(failures) / attempted:12.4f} "
              f"     ({len(failures)} of {attempted} ops)")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _percentiles(latencies: list[float]) -> tuple[float, float, int]:
    """(median, 90th percentile, samples beyond it) of sorted latencies."""
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
    return statistics.median(latencies), p90, sum(1 for x in latencies if x > p90)


def run_all(args) -> int:
    """Every workload, each in its own process so peak RSS is its own."""
    worst = 0
    for workload in corpus.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.cases is not None:
            argv += ["--cases", str(args.cases)]
        sys.stdout.flush()
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=corpus.WORKLOADS + corpus.DIAGNOSTICS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cases", type=int, default=None,
                        help="smoke run: only the first N cases of the corpus")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
