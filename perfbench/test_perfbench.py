"""Self-tests of the benchmark, each on a tiny corpus.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from check import Checker  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_one_command_prints_every_metric_with_its_unit(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0", "--cases", "4", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    results = _result_lines(proc.stdout)
    assert len(results) == len(corpus.WORKLOADS)
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert proc.stdout.splitlines()[-1] == json.dumps(results[-1])


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(corpus.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(tracing.LAYER_METRICS)
    assert all(m["unit"] == tracing.LAYER_METRICS[m["name"]][0] for m in BENCHMARK["per_layer"])


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_same_corpus_hash(workload, monkeypatch):
    pkg = run.load_program()
    first = corpus.corpus_hash(corpus.build(workload, 11, pkg, limit=12))
    # The corpus must not depend on the package's own random generator.
    randinst = sys.modules["dilaug.randinst"]
    for name in ("random_instance", "random_connected_gamma", "random_tree",
                 "random_forest_edges", "random_solution"):
        monkeypatch.setattr(randinst, name, None)
    assert corpus.corpus_hash(corpus.build(workload, 11, pkg, limit=12)) == first
    assert corpus.corpus_hash(corpus.build(workload, 12, pkg, limit=12)) != first


def _bindings() -> dict[tuple[str, str], object]:
    found = {(name, attr): value for name, mod in sys.modules.items()
             if name == "dilaug" or name.startswith("dilaug.")
             for attr, value in vars(mod).items() if callable(value)}
    graph = sys.modules["dilaug.graph"].Graph
    found[("dilaug.graph", "Graph.weighted_distances")] = graph.__dict__["weighted_distances"]
    return found


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    _, pkg, cases, commands = run.setup("search", 5, 10, tmp_path, None)
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sys.modules["dilaug.model"].adjacent_conflicts is not \
            before[("dilaug.model", "adjacent_conflicts")]
        loop = run.timed_loop(commands, 0)
    finally:
        tracer.restore()
    assert _bindings() == before
    metrics, absent = tracing.summarize(tracer, loop.passes, tracing.Tracer(), 1, 1.0)
    assert metrics["cli.run.self_s"][0] > 0
    assert sum(metrics[f"cli.route.{e}"][0] for e in tracing.ROUTES) == len(commands)


def test_missing_function_is_reported_absent(tmp_path, monkeypatch):
    _, pkg, cases, commands = run.setup("kdd", 5, 3, tmp_path, None)
    monkeypatch.setitem(tracing.TARGETS, "kdd.twin_reduce", ("dilaug.kdd", "no_such_function"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop = run.timed_loop(commands, 0)
    finally:
        tracer.restore()
    metrics, absent = tracing.summarize(tracer, loop.passes, tracing.Tracer(), 1, 1.0)
    assert {"kdd.twin_reduce.calls", "kdd.twin_reduce.candidate_frac"} <= set(absent)
    assert "kdd.solve_kdd.self_s" not in absent
    assert set(metrics) == set(tracing.LAYER_METRICS)


@pytest.mark.parametrize("workload", ["search", "verify"])
def test_planted_wrong_reference_is_counted_as_failed(workload, tmp_path):
    _, pkg, cases, commands = run.setup(workload, 7, 4, tmp_path, None)
    loop = run.timed_loop(commands, 0)
    checker = Checker()
    refs = run.reference_verdicts(pkg, cases, checker)
    assert run.evaluate(cases, refs, loop.outcomes, checker) == []
    refs[1] = not refs[1]
    failures = run.evaluate(cases, refs, loop.outcomes, checker)
    assert len(failures) == 1 and failures[0].startswith(cases[1].name)


def test_checker_judges_all_pairs():
    # Triangle with unit weights, G = path 0-1-2: d_G(0,2) = 2 = 2 * d_Gamma.
    spec = corpus.Spec(3, 1, Fraction(3, 2), {(0, 1): 1, (1, 2): 1, (0, 2): 1},
                       frozenset({(0, 1), (1, 2)}))
    checker = Checker()
    assert checker.certificate_error(spec, frozenset()) is not None
    assert checker.certificate_error(spec, frozenset({(0, 2)})) is None
    assert checker.certificate_error(spec, frozenset({(0, 1)})) == "overlaps G"


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert _result_lines(proc.stdout) == []
