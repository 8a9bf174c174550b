import functools
import io
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dilaug
from dilaug import cli as cli_module
from dilaug import fileformat, model, oracle, structured
from dilaug.cli import EXIT_ENGINE, EXIT_NO, EXIT_USAGE, EXIT_YES, run
from dilaug.fileformat import (ParseError, parse_rational, serialize_instance,
                               serialize_solution)
from dilaug.graph import Graph, norm_edge
from dilaug.model import adjacent_conflicts, build_instance
from dilaug.oracle import Verdict
from dilaug.randinst import random_connected_gamma, random_instance
from dilaug.reductions import SourceProblem, gen_diameter2_clique, gen_spanner_edgeless

from conftest import far_bridge_instance

TRIANGLE = """\
p dilaug 3 1 3/2
e 1 2 1
e 2 3 1
e 1 3 1
g 1 2
g 2 3
"""

STAR_NO = """\
p dilaug 4 2 2
e 1 2 1
e 1 3 1
e 1 4 1
"""

PATH_TREE = """\
p dilaug 3 2 2
e 1 2 1
e 2 3 1
"""

# G holds two edges at vertex 7, a K_{1,1}: with --d 1 the kdd contract is
# broken, and the blocking set around vertex 1 finds the witness 7.
NOT_K11_FREE = """\
p dilaug 7 1 2
e 1 2 1
e 1 3 1
e 1 4 1
e 1 5 1
e 1 6 1
e 7 2 1
g 3 7
g 4 7
"""

# Gamma is the path 1-2 (weight 10), 2-3; the detour 1-3-2 has length
# 12 <= 15, so no edge is forced and the answer is YES with k = 0.
WEIGHTED_TREE = """\
p dilaug 3 0 3/2
e 1 2 10
e 2 3 1
g 2 3
g 1 3
"""

DOMSET_SOURCE = """\
p src 3 1
e 1 2
e 2 3
"""


def cli(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def cli_process(*argv, timeout=10):
    """``cli`` in a child process, killed with ``subprocess.TimeoutExpired``
    once ``timeout`` seconds pass."""
    env = {**os.environ, "PYTHONPATH": str(Path(dilaug.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "dilaug.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)
    return done.returncode, done.stdout


def parsed_instances(monkeypatch):
    """The instances the CLI builds from now on, in order."""
    built = []

    def keep(text):
        built.append(fileformat.parse_instance(text))
        return built[-1]

    monkeypatch.setattr("dilaug.cli.parse_instance", keep)
    return built


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.dilaug"
    path.write_text(TRIANGLE)
    return str(path)


class TestSolve:
    def test_yes_prints_solution(self, triangle_file):
        code, text = cli("solve", "--engine", "brute", "--input", triangle_file)
        assert code == EXIT_YES
        assert text == "YES\ns 1 3\n"

    def test_no(self, tmp_path):
        path = tmp_path / "star.dilaug"
        path.write_text(STAR_NO)
        code, text = cli("solve", "--engine", "brute", "--input", str(path))
        assert code == EXIT_NO
        assert text == "NO\n"

    def test_auto_picks_something_correct(self, triangle_file):
        code, text = cli("solve", "--input", triangle_file)
        assert code == EXIT_YES and text.startswith("YES\n")

    def test_bounded_gamma_on_path_tree(self, tmp_path, capsys):
        path = tmp_path / "path.dilaug"
        path.write_text(PATH_TREE)
        code, text = cli("solve", "--engine", "bounded-gamma", "--input", str(path))
        assert code == EXIT_YES
        assert text == "YES\ns 1 2\ns 2 3\n"
        # tree is no engine name; argparse rejects it.
        assert cli("solve", "--engine", "tree", "--input", str(path)) == (EXIT_USAGE, "")
        assert "argument --engine: invalid choice: 'tree'" in capsys.readouterr().err

    def test_inapplicable_engine_is_usage_error(self, triangle_file, capsys):
        # kdd requires t = 2; the triangle has t = 3/2.
        code, _ = cli("solve", "--engine", "kdd", "--d", "2", "--input", triangle_file)
        assert code == EXIT_USAGE
        assert "inapplicable" in capsys.readouterr().err

    def test_kdd_requires_d(self, triangle_file, capsys):
        code, _ = cli("solve", "--engine", "kdd", "--input", triangle_file)
        assert code == EXIT_USAGE
        assert "--d" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code, _ = cli("solve", "--input", "/nonexistent.dilaug")
        assert code == EXIT_USAGE

    def test_parse_error_mentions_line(self, tmp_path, capsys):
        path = tmp_path / "bad.dilaug"
        path.write_text("p dilaug 2 0 2\ne 1 7 1\n")
        code, _ = cli("solve", "--input", str(path))
        assert code == EXIT_USAGE
        assert "line 2" in capsys.readouterr().err

    def test_header_n_without_edges_is_rejected_before_allocation(self, tmp_path, capsys):
        # Fewer than n - 1 gamma edges cannot connect n vertices; the
        # parser says so without building a graph of 10^12 vertices.
        path = tmp_path / "huge.dilaug"
        path.write_text("p dilaug 1000000000000 0 2\n")
        code, _ = cli("solve", "--input", str(path))
        assert code == EXIT_USAGE
        assert "metric undefined: gamma is disconnected" in capsys.readouterr().err

    def test_bounded_gamma_prints_brute_on_weighted_tree(self, tmp_path):
        path = tmp_path / "wtree.dilaug"
        path.write_text(WEIGHTED_TREE)
        for engine in ("brute", "bounded-gamma", "auto"):
            assert cli("solve", "--engine", engine, "--input", str(path)) == (EXIT_YES, "YES\n")

    def test_auto_never_calls_brute(self, triangle_file, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("auto ran brute")
        monkeypatch.setattr(oracle, "solve_min", refuse)
        assert cli("solve", "--input", triangle_file) == (EXIT_YES, "YES\ns 1 3\n")

    def test_auto_on_far_bridge_is_yes(self, tmp_path):
        # The fixing edge 1-2 lies 8 hops from the conflicts; see
        # far_bridge_instance.  auto used to print a wrong NO here.
        path = tmp_path / "bridge.dilaug"
        path.write_text(serialize_instance(far_bridge_instance(8, 6, 3, 10)))
        assert cli("solve", "--input", str(path)) == (EXIT_YES, "YES\ns 1 2\n")

    def test_engine_agnostic_output(self, triangle_file):
        outs = set()
        for engine in ("brute", "bounded-gamma", "bounded-g"):
            outs.add(cli("solve", "--engine", engine, "--input", triangle_file))
        assert len(outs) == 1

    def test_auto_ignores_d(self, tmp_path):
        # t = 2 with a forest G is kdd's domain, and kdd may print another
        # minimum certificate than brute's: --d must not route auto there.
        rng = random.Random(10008)
        path = tmp_path / "inst.dilaug"
        for _ in range(200):
            inst = random_instance(rng, n_max=8, k_max=2, forest_g=True, ts=(Fraction(2),))
            path.write_text(serialize_instance(inst))
            assert (cli("solve", "--engine", "auto", "--d", "2", "--input", str(path))
                    == cli("solve", "--engine", "brute", "--input", str(path)))


class TestEngineFailure:
    """Exit code 3: the engine could not give an answer.  Never 1, which
    always means a proven NO."""

    def test_broken_kdd_contract(self, tmp_path, capsys):
        path = tmp_path / "k11.dilaug"
        path.write_text(NOT_K11_FREE)
        code, text = cli("solve", "--engine", "kdd", "--d", "1", "--input", str(path))
        assert (code, text) == (EXIT_ENGINE, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_d_below_one(self, triangle_file, capsys):
        code, _ = cli("solve", "--engine", "kdd", "--d", "0", "--input", triangle_file)
        assert code == EXIT_ENGINE
        assert "--d" in capsys.readouterr().err

    def test_d_below_one_on_auto(self, triangle_file, capsys):
        # The triangle is no kdd instance (t = 3/2); --d is checked anyway.
        code, text = cli("solve", "--engine", "auto", "--d", "0", "--input", triangle_file)
        assert (code, text) == (EXIT_ENGINE, "")
        assert "--d" in capsys.readouterr().err

    def test_search_cap(self, triangle_file, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "solve_min",
                            functools.partial(oracle.solve_min, max_candidates=1))
        code, text = cli("solve", "--engine", "brute", "--input", triangle_file)
        assert (code, text) == (EXIT_ENGINE, "")
        assert "budget" in capsys.readouterr().err

    def test_rejected_certificate(self, triangle_file, monkeypatch, capsys):
        # The triangle needs the edge 1-3; an empty certificate is wrong.
        monkeypatch.setattr(oracle, "solve_min", lambda inst: Verdict.of(()))
        code, text = cli("solve", "--engine", "brute", "--input", triangle_file)
        assert (code, text) == (EXIT_ENGINE, "")
        assert "conflict(0,2)" in capsys.readouterr().err


class TestKddLargeParameters:
    """kdd's work does not grow with a k or a d the instance cannot use."""

    def test_large_budget(self, tmp_path):
        # A NO leaf tries subset sizes up to its candidate count, not up to
        # k: every size up to k costs time quadratic in k.
        path = tmp_path / "path.dilaug"
        path.write_text(PATH_TREE.replace("p dilaug 3 2 2", "p dilaug 3 1000000 2"))
        assert (cli_process("solve", "--engine", "kdd", "--d", "2", "--input", str(path))
                == cli("solve", "--engine", "bounded-gamma", "--input", str(path)))

    def test_large_d(self, tmp_path):
        # d >= n answers as d = n does, without summing d powers of k for
        # the branching threshold at every node.
        path = tmp_path / "path.dilaug"
        path.write_text(PATH_TREE)
        argv = ("solve", "--engine", "kdd", "--input", str(path), "--d")
        assert cli_process(*argv, "1000000000") == cli(*argv, "3")


class TestVerify:
    def test_valid(self, triangle_file, tmp_path):
        sol = tmp_path / "sol.txt"
        sol.write_text("s 1 3\n")
        code, text = cli("verify", "--input", triangle_file,
                         "--solution", str(sol))
        assert (code, text) == (EXIT_YES, "valid\n")

    def test_invalid_reports_reason(self, triangle_file, tmp_path):
        sol = tmp_path / "sol.txt"
        sol.write_text("")
        code, text = cli("verify", "--input", triangle_file,
                         "--solution", str(sol))
        assert code == EXIT_NO
        assert text.startswith("invalid conflict")

    def test_large_weighted_verify_builds_no_full_table(self, tmp_path, monkeypatch):
        # verify reads d_Gamma only for the pairs it needs, with no full
        # row of it (n of them would be the n x n table).  S is G's
        # conflict set, so G + S is valid and every other Gamma pair is
        # scanned.
        rng = random.Random(500)
        n = 500
        gamma_edges = sorted(random_connected_gamma(rng, n, extra_p=4 / n).edges)
        gamma = Graph(n, gamma_edges, {e: rng.randint(1, 10) for e in gamma_edges})
        dropped = rng.sample(gamma_edges, len(gamma_edges) // 3)
        chords = {norm_edge(*rng.sample(range(n), 2)) for _ in range(n // 10)}
        g_edges = (set(gamma_edges) - set(dropped)) | (chords - gamma.edges)
        source = build_instance(gamma, g_edges, len(dropped), Fraction(3, 2))
        s = adjacent_conflicts(source)
        assert s

        built = parsed_instances(monkeypatch)
        inst_file, sol_file = tmp_path / "big.dilaug", tmp_path / "big.sol"
        inst_file.write_text(serialize_instance(source))
        sol_file.write_text(serialize_solution(s))
        code, text = cli("verify", "--input", str(inst_file), "--solution", str(sol_file))
        assert (code, text) == (EXIT_YES, "valid\n")
        [inst] = built
        # Not one full row: each limit, and each G edge the scan reaches,
        # G chords included, is read from a pair query.
        assert not inst.gamma_rows

    def test_verify_runs_gamma_only_from_open_pairs(self, tmp_path, monkeypatch):
        # Every Gamma edge weighs 3 and G has no chord, so at t = 2 the
        # scan's first check finds each open pair a walk of length 6 in
        # G + S, which needs d_Gamma >= 3: one query over Gamma per open
        # pair asks for a path of length 2 or less, finds none and clears
        # the pair.  No pair is re-checked, and no G edge is weighed.
        rng = random.Random(502)
        n = 40
        gamma_edges = sorted(random_connected_gamma(rng, n, extra_p=4 / n).edges)
        gamma = Graph(n, gamma_edges, dict.fromkeys(gamma_edges, 3))
        g_edges = set(gamma_edges) - set(rng.sample(gamma_edges, len(gamma_edges) // 4))
        source = build_instance(gamma, g_edges, n, Fraction(2))
        s = adjacent_conflicts(source)
        open_pairs = sorted(set(gamma_edges) - g_edges - s)
        assert s and open_pairs

        inst_file, sol_file = tmp_path / "even.dilaug", tmp_path / "even.sol"
        inst_file.write_text(serialize_instance(source))
        sol_file.write_text(serialize_solution(s))
        built = parsed_instances(monkeypatch)
        queries = []
        real = model.within

        def counted(adj, u, v, cap, first=False):
            queries.append((adj, u, v, cap))
            return real(adj, u, v, cap, first)

        monkeypatch.setattr(model, "within", counted)
        code, text = cli("verify", "--input", str(inst_file), "--solution", str(sol_file))
        assert (code, text) == (EXIT_YES, "valid\n")
        [inst] = built
        on_gamma = [(u, v, cap) for adj, u, v, cap in queries if adj is inst.gamma.adj]
        assert [(u, v) for u, v, _ in on_gamma] == open_pairs
        assert {cap for _, _, cap in on_gamma} == {2}
        assert not inst.gamma_rows

    def test_large_weighted_bounded_solve_builds_no_full_table(self, tmp_path, monkeypatch):
        # The conflict kernel reads the Gamma rows of one ellipse and the G
        # rows of one pair: full Gamma rows come only from that pair's
        # ends, and the certificate is still brute's.
        rng = random.Random(501)
        n = 500
        gamma_edges = sorted(random_connected_gamma(rng, n, extra_p=4 / n).edges)
        gamma = Graph(n, gamma_edges, {e: rng.randint(1, 10) for e in gamma_edges})
        for dropped in gamma_edges:
            source = build_instance(gamma, set(gamma_edges) - {dropped}, 1, Fraction(3, 2))
            if len(adjacent_conflicts(source)) == 1:
                break
        else:
            pytest.fail("no Gamma edge leaves exactly one conflict when dropped")
        expected = oracle.solve_min(source)
        assert expected.yes

        built = parsed_instances(monkeypatch)
        inst_file = tmp_path / "big.dilaug"
        inst_file.write_text(serialize_instance(source))
        code, text = cli("solve", "--engine", "bounded-gamma", "--input", str(inst_file))
        assert (code, text) == (EXIT_YES, "YES\n" + serialize_solution(expected.solution))
        [inst] = built
        assert set(inst.gamma_rows) <= set(dropped)  # the ends of the one conflict


class TestGen:
    def test_domset_to_stdout(self, tmp_path):
        src = tmp_path / "src.txt"
        src.write_text(DOMSET_SOURCE)
        code, text = cli("gen", "domset", "--source", str(src))
        assert code == EXIT_YES
        lines = text.splitlines()
        assert lines[0] == "p dilaug 4 1 3"
        assert "e 1 4 1" in lines and "g 1 2" in lines
        assert "l 4 c" in lines

    def test_output_files(self, tmp_path):
        src = tmp_path / "src.txt"
        src.write_text(DOMSET_SOURCE)
        dest = tmp_path / "out.dilaug"
        code, _ = cli("gen", "domset", "--source", str(src),
                      "--output", str(dest))
        assert code == EXIT_YES
        assert dest.exists()
        assert (tmp_path / "out.dilaug.labels").read_text().startswith("l 1 ")

    def test_generated_instance_parses_and_solves(self, tmp_path):
        src = tmp_path / "src.txt"
        src.write_text(DOMSET_SOURCE)
        dest = tmp_path / "out.dilaug"
        cli("gen", "domset", "--source", str(src), "--output", str(dest))
        code, text = cli("solve", "--engine", "brute", "--input", str(dest))
        # {1} dominates the path, so one edge suffices.
        assert code == EXIT_YES
        assert text == "YES\ns 2 4\n"

    def test_mcq_needs_colors(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text("p src 2 2\ne 1 2\n")
        code, _ = cli("gen", "mcq", "--source", str(src))
        assert code == EXIT_USAGE
        assert "color" in capsys.readouterr().err

    def test_mcq(self, tmp_path):
        src = tmp_path / "src.txt"
        src.write_text("p src 4 2\ne 1 3\nv 1 1\nv 2 1\nv 3 2\nv 4 2\n")
        code, text = cli("gen", "mcq", "--source", str(src))
        assert code == EXIT_YES
        assert text.splitlines()[0] == "p dilaug 61 9 3"

    def test_diam2w_needs_epsilon(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text(DOMSET_SOURCE)
        code, _ = cli("gen", "diam2w", "--source", str(src))
        assert code == EXIT_USAGE
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("generator", ["mcq", "domset", "spanner", "diam2k"])
    def test_epsilon_is_for_diam2w_only(self, tmp_path, capsys, generator):
        src = tmp_path / "src.txt"
        src.write_text("p src 2 2\ne 1 2\nv 1 1\nv 2 2\n")
        assert cli("gen", generator, "--source", str(src), "--epsilon", "1/2") == (EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "epsilon" in err

    def test_diam2w(self, tmp_path):
        src = tmp_path / "src.txt"
        src.write_text("p src 4 1\ne 1 2\ne 2 3\ne 3 4\n")
        code, text = cli("gen", "diam2w", "--source", str(src),
                         "--epsilon", "1/2")
        assert code == EXIT_YES
        assert text.splitlines()[0] == "p dilaug 16 1 5/2"

    @pytest.mark.parametrize("generator, make, kind", [
        ("spanner", gen_spanner_edgeless, "two-spanner"),
        ("diam2k", gen_diameter2_clique, "diameter2-augmentation"),
    ])
    def test_spanner_and_diam2k(self, tmp_path, generator, make, kind):
        src = tmp_path / "src.txt"
        src.write_text("p src 5 2\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 2 5\n")
        gen = make(SourceProblem(kind, Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)]), 2))
        labels = "".join(f"l {v + 1} {gen.labels[v]}\n" for v in sorted(gen.labels))
        code, text = cli("gen", generator, "--source", str(src))
        assert code == EXIT_YES
        assert text == serialize_instance(gen.instance) + labels
        again = fileformat.parse_instance(text)
        assert serialize_instance(again) == serialize_instance(gen.instance)

    @pytest.mark.parametrize("generator, source, line", [
        ("domset", "p src 3 x\n", 1),
        ("domset", "p src 3 1\ne 1 b\n", 2),
        ("mcq", "p src 2 2\ne 1 2\nv 1 q\nv 2 2\n", 3),
        ("domset", "p src 3 1\ne 1 3\np src 2 1\n", 3),
        ("mcq", "p src 4 2\ne 1 3\nv 1 1\nv 2 1\nv 3 2\nv 4 3\n", 6),
        ("mcq", "p src 2 2\ne 1 2\nv 1 0\nv 2 2\n", 3),
        ("mcq", "p src 2 2\ne 1 2\nv 1 1\nv 2 2\nv 1 2\n", 5),
        ("spanner", "p src 0 1\n", 1),
        ("domset", "p src 3 -1\ne 1 2\n", 1),
        ("domset", "p src -2 1\n", 1),
        # header must be 'p src <n> <k>'
        ("domset", "p src 3\n", 1),
        ("domset", "p dilaug 3 1 2\n", 1),
        # bad edge line: before the header, or not 'e <u> <v>'
        ("domset", "e 1 2\np src 3 1\n", 1),
        ("domset", "p src 3 1\ne 1 2 1\n", 2),
        # bad color line: before the header, or not 'v <u> <color>'
        ("mcq", "v 1 1\np src 2 1\n", 1),
        ("mcq", "p src 2 1\nv 1\n", 2),
        # missing 'p src' header, which names no line
        ("domset", "c no header\n\n", None),
    ])
    def test_malformed_source_is_usage_error(self, tmp_path, capsys, generator,
                                             source, line):
        src = tmp_path / "src.txt"
        src.write_text(source)
        assert cli("gen", generator, "--source", str(src)) == (EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"line {line}" in err if line is not None else ": line " not in err

    # Tokens a header and --epsilon both accept or both reject as rationals;
    # the range checks (t >= 1, 0 < epsilon < 1) differ.
    @pytest.mark.parametrize("token", ["2", "3/2", "1/2", "-1/2", "0.5", "1.5",
                                       "1e0", "x", "1/0", "1/2/3", "/2", "2/"])
    def test_epsilon_and_header_share_rational_syntax(self, tmp_path, capsys, token):
        src = tmp_path / "src.txt"
        src.write_text("p src 4 1\ne 1 2\ne 2 3\ne 3 4\n")
        inst = tmp_path / "inst.dilaug"
        inst.write_text(f"p dilaug 2 0 {token}\ne 1 2 1\ng 1 2\n")
        try:
            value = parse_rational(token)
        except ParseError:
            value = None
        code, _ = cli("gen", "diam2w", "--source", str(src), "--epsilon", token)
        eps_err = capsys.readouterr().err
        assert code == (EXIT_YES if value is not None and 0 < value < 1 else EXIT_USAGE)
        code, _ = cli("solve", "--input", str(inst))
        header_err = capsys.readouterr().err
        assert code == (EXIT_YES if value is not None and value >= 1 else EXIT_USAGE)
        assert ("bad rational" in eps_err) == ("bad rational" in header_err) == (value is None)


class TestFuzzAndBench:
    def test_fuzz_clean(self):
        code, text = cli("fuzz", "--seed", "11", "--count", "25")
        assert code == EXIT_YES
        assert "25 instances, 0 disagreements" in text

    def test_fuzz_negative_count_is_a_usage_error(self, capsys):
        code, text = cli("fuzz", "--seed", "1", "--count", "-3")
        err = capsys.readouterr().err
        assert (code, text) == (EXIT_USAGE, "")
        assert err == "error: --count must be at least 0, got -3\n"

    def test_disagreement_is_reported_and_dumped(self, tmp_path, monkeypatch):
        # bounded-gamma answers every draw wrongly: fuzz prints the line,
        # keeps the instance, and exits 1.
        monkeypatch.chdir(tmp_path)

        def wrong(inst):
            return Verdict.no() if oracle.solve_min(inst).yes else Verdict.of(())

        monkeypatch.setattr(structured, "solve_bounded_gamma", wrong)
        code, text = cli("fuzz", "--seed", "1", "--count", "1")
        dump = "fuzz_fail_1_0_bounded-gamma.dilaug"
        inst = fileformat.parse_instance((tmp_path / dump).read_text())
        assert code == EXIT_NO
        assert text == (f"DISAGREEMENT engine=bounded-gamma oracle={oracle.solve_min(inst)} "
                        f"got={wrong(inst)} dumped={dump}\n"
                        "fuzz: 1 instances, 1 disagreements\n")

    def test_unwritable_dump_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # Every engine disagrees with brute, and a directory stands at each
        # dump path: the write fails, which is no finding about the engines.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("dilaug.cli.dispatch",
                            lambda inst, name, d=None: Verdict(False, frozenset({(0, 1)})))
        for engine in ("bounded-gamma", "kdd"):
            (tmp_path / f"fuzz_fail_1_0_{engine}.dilaug").mkdir()
        code, text = cli("fuzz", "--seed", "1", "--count", "1")
        err = capsys.readouterr().err
        assert (code, text) == (EXIT_USAGE, "")
        assert err.startswith("error: cannot write fuzz_fail_1_0_bounded-gamma.dilaug: ")
        assert err.count("\n") == 1


class TestUsage:
    def test_no_command(self):
        code, _ = cli()
        assert code == EXIT_USAGE

    def test_unknown_engine_rejected_by_argparse(self, triangle_file):
        code, _ = cli("solve", "--engine", "magic", "--input", triangle_file)
        assert code == EXIT_USAGE

    # argv ("F" stands for the input file), the exit code and the program
    # named by the usage line on stderr (None: stderr is empty).  A row with
    # code None only has to match one top-level pass, since its outcome
    # depends on the Python version.
    USAGE_TABLE = [
        ([], EXIT_USAGE, "dilaug"),
        (["-h"], 0, None),
        (["bogus"], EXIT_USAGE, "dilaug"),
        (["solve"], EXIT_USAGE, "dilaug solve"),
        (["solve", "-h"], 0, None),
        (["solve", "--engine", "x", "--input", "F"], EXIT_USAGE, "dilaug solve"),
        # Arguments that no parser knows are reported by the top-level one.
        (["solve", "--input", "F", "--bogus"], EXIT_USAGE, "dilaug"),
        (["solve", "--input", "F", "extra"], EXIT_USAGE, "dilaug"),
        # Newer argparse releases drop the "--" and solve; older ones take
        # "--" for the command.
        (["--", "solve", "--input", "F"], None, None),
        (["verify", "--input", "F"], EXIT_USAGE, "dilaug verify"),
        (["fuzz", "--seed", "x", "--count", "1"], EXIT_USAGE, "dilaug fuzz"),
    ]

    @staticmethod
    def one_pass(argv, out):
        """The exit code of ``run(argv, out)`` were argv parsed by one
        top-level argparse pass."""
        try:
            args = cli_module.PARSER.parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else 0
        return getattr(cli_module, f"cmd_{args.command}")(args, out)

    @pytest.mark.parametrize("argv,code,prog", USAGE_TABLE)
    def test_usage_table(self, argv, code, prog, triangle_file, capsys):
        argv = [triangle_file if a == "F" else a for a in argv]
        outputs = []
        for call in (run, self.one_pass):
            out = io.StringIO()
            got = call(argv, out)
            outputs.append((got, out.getvalue(), *capsys.readouterr()))
        assert outputs[0] == outputs[1]
        got, text, stdout, stderr = outputs[0]
        if code is None:
            return
        assert (got, text) == (code, "")
        if prog is None:  # -h prints the help on stdout
            assert stderr == "" and stdout.startswith("usage: dilaug")
        else:
            assert stdout == ""
            assert stderr.startswith(f"usage: {prog} [-h]")
            assert stderr.splitlines()[-1].startswith(f"{prog}: error: ")


class TestFileErrors:
    """A file that cannot be read or written ends in one ``error:`` line and
    exit 2, never in a traceback or in exit 1, which means a proven NO."""

    @staticmethod
    def check(capsys, argv, message):
        code, text = cli(*argv)
        err = capsys.readouterr().err
        assert (code, text) == (EXIT_USAGE, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_missing_input(self, tmp_path, capsys):
        path = str(tmp_path / "missing.dilaug")
        self.check(capsys, ["solve", "--input", path], f"cannot read {path}: ")

    @pytest.mark.parametrize("command", ["solve", "verify", "gen"])
    def test_file_that_is_not_utf8(self, command, tmp_path, triangle_file, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"p dilaug 3 1 2\n\xff\n")
        argv = {"solve": ["solve", "--input", str(path)],
                "verify": ["verify", "--input", triangle_file, "--solution", str(path)],
                "gen": ["gen", "domset", "--source", str(path)]}[command]
        self.check(capsys, argv, f"cannot read {path}: ")

    def test_unwritable_output(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text(DOMSET_SOURCE)
        dest = str(tmp_path / "no-such-dir" / "out.dilaug")
        self.check(capsys, ["gen", "domset", "--source", str(src), "--output", dest],
                   f"cannot write {dest}: ")
