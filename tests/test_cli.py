import functools
import io
import random
from fractions import Fraction

import pytest

from dilaug import fileformat, oracle
from dilaug.cli import EXIT_ENGINE, EXIT_NO, EXIT_USAGE, EXIT_YES, run
from dilaug.fileformat import (ParseError, parse_rational, serialize_instance,
                               serialize_solution)
from dilaug.graph import Graph, norm_edge
from dilaug.model import adjacent_conflicts, build_instance
from dilaug.oracle import Verdict
from dilaug.randinst import random_connected_gamma

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


def parsed_instances(monkeypatch):
    """The instances the CLI builds from now on, in order."""
    built = []

    def keep(*args):
        built.append(build_instance(*args))
        return built[-1]

    monkeypatch.setattr(fileformat, "build_instance", keep)
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

    def test_tree_engine(self, tmp_path):
        path = tmp_path / "path.dilaug"
        path.write_text(PATH_TREE)
        code, text = cli("solve", "--engine", "tree", "--input", str(path))
        assert code == EXIT_YES
        assert text == "YES\ns 1 2\ns 2 3\n"

    def test_inapplicable_engine_is_usage_error(self, triangle_file, capsys):
        code, _ = cli("solve", "--engine", "tree", "--input", triangle_file)
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

    def test_auto_avoids_tree_on_weighted_tree(self, tmp_path):
        path = tmp_path / "wtree.dilaug"
        path.write_text(WEIGHTED_TREE)
        assert cli("solve", "--input", str(path)) == (EXIT_YES, "YES\n")
        code, _ = cli("solve", "--engine", "tree", "--input", str(path))
        assert code == EXIT_USAGE

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
        # verify reads d_Gamma only for the pairs it needs; the n x n table
        # (n Dijkstra runs) must stay unbuilt.  S is G's conflict set as
        # the table gives it, so G + S is valid and every other Gamma
        # pair is scanned.
        rng = random.Random(500)
        n = 500
        gamma_edges = sorted(random_connected_gamma(rng, n, extra_p=4 / n).edges)
        gamma = Graph(n, gamma_edges, {e: rng.randint(1, 10) for e in gamma_edges})
        dropped = rng.sample(gamma_edges, len(gamma_edges) // 3)
        chords = {norm_edge(*rng.sample(range(n), 2)) for _ in range(n // 10)}
        g_edges = (set(gamma_edges) - set(dropped)) | (chords - gamma.edges)
        table_built = build_instance(gamma, g_edges, len(dropped), Fraction(3, 2))
        assert table_built.dist_gamma
        s = adjacent_conflicts(table_built)
        assert s

        built = parsed_instances(monkeypatch)
        inst_file, sol_file = tmp_path / "big.dilaug", tmp_path / "big.sol"
        inst_file.write_text(serialize_instance(table_built))
        sol_file.write_text(serialize_solution(s))
        code, text = cli("verify", "--input", str(inst_file), "--solution", str(sol_file))
        assert (code, text) == (EXIT_YES, "valid\n")
        [inst] = built
        assert "dist_gamma" not in inst.__dict__

    def test_large_weighted_bounded_solve_builds_no_full_table(self, tmp_path, monkeypatch):
        # The conflict kernel reads the Gamma rows of one ellipse and the G
        # rows of one pair: the n x n table must stay unbuilt, and the
        # certificate is still brute's.
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
        assert "dist_gamma" not in inst.__dict__


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

    def test_diam2w(self, tmp_path):
        src = tmp_path / "src.txt"
        src.write_text("p src 4 1\ne 1 2\ne 2 3\ne 3 4\n")
        code, text = cli("gen", "diam2w", "--source", str(src),
                         "--epsilon", "1/2")
        assert code == EXIT_YES
        assert text.splitlines()[0] == "p dilaug 16 1 5/2"

    @pytest.mark.parametrize("generator, source, line", [
        ("domset", "p src 3 x\n", 1),
        ("domset", "p src 3 1\ne 1 b\n", 2),
        ("mcq", "p src 2 2\ne 1 2\nv 1 q\nv 2 2\n", 3),
        ("domset", "p src 3 1\ne 1 3\np src 2 1\n", 3),
    ])
    def test_malformed_source_is_usage_error(self, tmp_path, capsys, generator,
                                             source, line):
        src = tmp_path / "src.txt"
        src.write_text(source)
        assert cli("gen", generator, "--source", str(src)) == (EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"line {line}" in err

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

    def test_bad_source_line(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text("p src 2 1\nq 1 2\n")
        code, _ = cli("gen", "domset", "--source", str(src))
        assert code == EXIT_USAGE
        assert "line 2" in capsys.readouterr().err


class TestFuzzAndBench:
    def test_fuzz_clean(self):
        code, text = cli("fuzz", "--seed", "11", "--count", "25")
        assert code == EXIT_YES
        assert "25 instances, 0 disagreements" in text

    def test_bench_quick(self):
        code, text = cli("bench", "--suite", "quick")
        assert code == EXIT_YES
        assert "engine" in text.splitlines()[0]

    def test_bench_unknown_suite(self, capsys):
        code, _ = cli("bench", "--suite", "huge")
        assert code == EXIT_USAGE


class TestUsage:
    def test_no_command(self):
        code, _ = cli()
        assert code == EXIT_USAGE

    def test_unknown_engine_rejected_by_argparse(self, triangle_file):
        code, _ = cli("solve", "--engine", "magic", "--input", triangle_file)
        assert code == EXIT_USAGE
