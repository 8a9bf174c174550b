import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilaug.fileformat import (ParseError, parse_instance, parse_solution, parse_source,
                               serialize_instance, serialize_solution)
from dilaug.graph import Graph
from dilaug.model import build_instance
from dilaug.randinst import random_instance

from conftest import searches

SAMPLE = """\
c a triangle with a path G
p dilaug 3 1 3/2
e 1 2 1
e 2 3 1
e 1 3 1
g 1 2
g 2 3
"""


class TestParseInstance:
    def test_sample(self):
        inst = parse_instance(SAMPLE)
        assert inst.n == 3
        assert inst.k == 1
        assert inst.t == Fraction(3, 2)
        assert inst.g_edges == frozenset({(0, 1), (1, 2)})

    def test_integer_stretch(self):
        inst = parse_instance("p dilaug 2 0 2\ne 1 2 1\n")
        assert inst.t == Fraction(2)

    def test_weights(self):
        inst = parse_instance("p dilaug 3 0 2\ne 1 2 4\ne 2 3 1\n")
        assert inst.gamma.weight == {(0, 1): 4}
        assert inst.gamma_rows[0][2] == 5

    def test_missing_header(self):
        with pytest.raises(ParseError, match="missing"):
            parse_instance("c just a comment\n")

    def test_edge_before_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_instance("e 1 2 1\np dilaug 2 0 2\n")

    def test_duplicate_header(self):
        with pytest.raises(ParseError, match="duplicate header"):
            parse_instance("p dilaug 2 0 2\np dilaug 2 0 2\ne 1 2 1\n")

    def test_vertex_out_of_range_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_instance("p dilaug 2 0 2\ne 1 5 1\n")

    def test_duplicate_gamma_edge(self):
        with pytest.raises(ParseError, match="duplicate gamma edge"):
            parse_instance("p dilaug 2 0 2\ne 1 2 1\ne 2 1 1\n")

    def test_bad_weight(self):
        with pytest.raises(ParseError, match="weight"):
            parse_instance("p dilaug 2 0 2\ne 1 2 0\n")

    def test_unknown_line_type(self):
        with pytest.raises(ParseError, match="unknown line type"):
            parse_instance("p dilaug 2 0 2\ne 1 2 1\nx 1 2\n")

    def test_stretch_below_one(self):
        with pytest.raises(ParseError, match="below 1"):
            parse_instance("p dilaug 2 0 1/2\ne 1 2 1\n")

    def test_disconnected_gamma(self):
        with pytest.raises(ParseError, match="disconnected"):
            parse_instance("p dilaug 3 0 2\ne 1 2 1\n")

    def test_comments_and_blanks_ignored(self):
        text = "\nc hello\n\n" + SAMPLE
        assert parse_instance(text).n == 3


HEAD = "p dilaug 3 0 2\n"

# Every error parse_instance raises: (text, message, line number or None).
PARSE_ERRORS = [
    (HEAD + "e 1 x 1\n", "bad vertex id 'x'", 2),
    (HEAD + "e x 9 1\n", "bad vertex id 'x'", 2),
    (HEAD + "e 0 x 1\n", "vertex 0 out of range [1, 3]", 2),
    (HEAD + "e 1 4 1\n", "vertex 4 out of range [1, 3]", 2),
    (HEAD + "g 4 1\n", "vertex 4 out of range [1, 3]", 2),
    # Each bound of the range test, at each end, with the rest valid.
    (HEAD + "e 0 1 1\n", "vertex 0 out of range [1, 3]", 2),
    (HEAD + "e 1 0 1\n", "vertex 0 out of range [1, 3]", 2),
    (HEAD + "e 4 1 1\n", "vertex 4 out of range [1, 3]", 2),
    (HEAD + "g 0 2\n", "vertex 0 out of range [1, 3]", 2),
    (HEAD + "g 1 0\n", "vertex 0 out of range [1, 3]", 2),
    (HEAD + "g 2 4\n", "vertex 4 out of range [1, 3]", 2),
    (HEAD + "g 1 y\n", "bad vertex id 'y'", 2),
    (HEAD + "l 9 far\n", "vertex 9 out of range [1, 3]", 2),
    (HEAD + "l z far\n", "bad vertex id 'z'", 2),
    (HEAD + "e 2 2 1\n", "self-loop", 2),
    (HEAD + "g 3 3\n", "self-loop", 2),
    (HEAD + "e 1 2 w\n", "bad weight 'w'", 2),
    (HEAD + "e 1 2 0\n", "weight 0 must be >= 1", 2),
    (HEAD + "e 1 2 -3\n", "weight -3 must be >= 1", 2),
    (HEAD + "e 1 2 1\ne 2 1 4\n", "duplicate gamma edge", 3),
    (HEAD + "g 1 2\ng 2 1\n", "duplicate G edge", 3),
    (HEAD + "e 1 2\n", "gamma edge line must be 'e <u> <v> <w>'", 2),
    (HEAD + "e 1 2 1 1\n", "gamma edge line must be 'e <u> <v> <w>'", 2),
    (HEAD + "g 1\n", "G edge line must be 'g <u> <v>'", 2),
    (HEAD + "g 1 2 3\n", "G edge line must be 'g <u> <v>'", 2),
    (HEAD + "l 1\n", "label line must be 'l <v> <label>'", 2),
    (HEAD + "x 1 2\n", "unknown line type 'x'", 2),
    (HEAD + "E 1 2 1\n", "unknown line type 'E'", 2),
    ("e 1 2 1\n" + HEAD, "header must precede edge lines", 1),
    ("g 1 2\n" + HEAD, "header must precede edge lines", 1),
    (HEAD + HEAD, "duplicate header", 2),
    ("p dilaug 3 0\n", "header must be 'p dilaug <n> <k> <t>'", 1),
    ("p dilaug 3 0 2 9\n", "header must be 'p dilaug <n> <k> <t>'", 1),
    ("p src 3 0 2\n", "header must be 'p dilaug <n> <k> <t>'", 1),
    ("p dilaug x 0 2\n", "bad n 'x'", 1),
    ("p dilaug 3 y 2\n", "bad k 'y'", 1),
    ("p dilaug 0 0 2\n", "need n >= 1 and k >= 0", 1),
    ("p dilaug 3 -1 2\n", "need n >= 1 and k >= 0", 1),
    ("p dilaug 3 0 z\n", "bad rational 'z'", 1),
    ("p dilaug 3 0 1/2\n", "stretch 1/2 is below 1", 1),
    ("c no header\n\n", "missing 'p dilaug' header", None),
    (HEAD + "e 1 2 1\n", "metric undefined: gamma is disconnected", None),
    ("p dilaug 4 0 2\ne 1 2 1\ne 2 3 1\ne 1 3 1\n",
     "metric undefined: gamma is disconnected", None),
    (HEAD + "e 1 2 1\ne 1 3 1\ng 4 1\n", "vertex 4 out of range [1, 3]", 4),
    # Comments, indented ones too, and blank lines count toward line numbers.
    ("  c note\n" + HEAD + "x\n", "unknown line type 'x'", 3),
    ("\tcomment\n\n" + HEAD + "e 1 1 1\n", "self-loop", 4),
    # A line that breaks two rules reports the first in this order: token
    # count, vertex ids, self-loop, weight, duplicate.
    (HEAD + "e 1 x w\n", "bad vertex id 'x'", 2),
    (HEAD + "e 2 2 0\n", "self-loop", 2),
    (HEAD + "e 1 2 1\ne 2 1 0\n", "weight 0 must be >= 1", 3),
    (HEAD + "e 1 2 1.5\n", "bad weight '1.5'", 2),
    (HEAD + "g 2 2\ng 2 2\n", "self-loop", 2),
]


@pytest.mark.parametrize("text,message,line", PARSE_ERRORS)
def test_parse_error_table(text, message, line):
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert info.value.line == line
    where = f"line {line}: " if line is not None else ""
    assert str(info.value) == where + message


SRC = "p src 2 2\n"

# Every error parse_source raises, with the color classes asked for: (text,
# message, line number or None).
SOURCE_ERRORS = [
    ("p src 3 1\np src 3 1\n", "duplicate header", 2),
    ("p src 3\n", "header must be 'p src <n> <k>'", 1),
    ("p src 3 1 2\n", "header must be 'p src <n> <k>'", 1),
    ("p dilaug 3 1\n", "header must be 'p src <n> <k>'", 1),
    ("p src x 1\n", "bad n 'x'", 1),
    ("p src 3 y\n", "bad k 'y'", 1),
    ("p src 0 1\n", "need n >= 1 and k >= 0", 1),
    ("p src -2 1\n", "need n >= 1 and k >= 0", 1),
    ("p src 3 -1\n", "need n >= 1 and k >= 0", 1),
    ("e 1 2\n" + SRC, "bad edge line", 1),
    (SRC + "e 1\n", "bad edge line", 2),
    (SRC + "e 1 2 1\n", "bad edge line", 2),
    (SRC + "e 1 b\n", "bad vertex id 'b'", 2),
    (SRC + "e 3 1\n", "vertex 3 out of range [1, 2]", 2),
    (SRC + "e 2 2\n", "self-loop", 2),
    ("v 1 1\n" + SRC, "bad color line", 1),
    (SRC + "v 1\n", "bad color line", 2),
    (SRC + "v 1 1 1\n", "bad color line", 2),
    (SRC + "v x 1\n", "bad vertex id 'x'", 2),
    (SRC + "v 3 1\n", "vertex 3 out of range [1, 2]", 2),
    (SRC + "v 1 q\n", "bad color 'q'", 2),
    (SRC + "v 1 0\n", "color 0 out of range [1, 2]", 2),
    (SRC + "v 1 3\n", "color 3 out of range [1, 2]", 2),
    (SRC + "v 1 1\nv 2 2\nv 1 2\n", "vertex 1 has a second color", 4),
    ("p src 2 1\nq 1 2\n", "unknown line type 'q'", 2),
    ("  c note\n\n" + SRC + "q\n", "unknown line type 'q'", 4),
    ("c no header\n\n", "missing 'p src' header", None),
    (SRC + "e 1 2\nv 1 1\n", "multicolored clique source needs a color for every vertex", None),
]


@pytest.mark.parametrize("text,message,line", SOURCE_ERRORS)
def test_parse_source_error_table(text, message, line):
    with pytest.raises(ParseError) as info:
        parse_source(text, True)
    assert info.value.line == line
    where = f"line {line}: " if line is not None else ""
    assert str(info.value) == where + message


def test_parse_source_without_colors_ignores_their_range():
    # Only a multicolored clique source needs its color classes checked.
    graph, k, partition = parse_source(SRC + "v 1 3\nv 1 0\n", False)
    assert (graph.n, k, partition) == (2, 2, None)


class TestRoundTrip:
    def test_serialize_then_parse(self):
        rng = random.Random(606)
        for _ in range(50):
            inst = random_instance(rng, n_max=7, k_max=2)
            again = parse_instance(serialize_instance(inst))
            assert again.n == inst.n
            assert again.k == inst.k
            assert again.t == inst.t
            assert again.gamma.edges == inst.gamma.edges
            assert again.gamma.weight == inst.gamma.weight
            assert again.g_edges == inst.g_edges

    def test_serialization_is_canonical(self):
        rng = random.Random(607)
        inst = random_instance(rng, n_max=7, k_max=2)
        text = serialize_instance(inst)
        assert serialize_instance(parse_instance(text)) == text

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([1, 6]).flatmap(lambda w: searches(max_n=8, max_weight=w)),
           st.randoms(use_true_random=False))
    def test_parse_equals_the_checked_constructors(self, search, rng):
        # parse_instance builds Gamma and the instance without Graph() and
        # build_instance; both paths must give the same instance.  The file
        # lists the edges in any order, each with its ends in any order.
        inst = search[0]
        weight = {e: inst.gamma.weight.get(e, 1) for e in inst.gamma.edges}
        want = build_instance(Graph(inst.n, weight, weight), inst.g_edges, inst.k, inst.t)
        header, *lines = [line.split() for line in serialize_instance(inst).splitlines()]
        for parts in lines:
            if rng.random() < 0.5:
                parts[1], parts[2] = parts[2], parts[1]
        rng.shuffle(lines)
        got = parse_instance("\n".join(map(" ".join, [header, *lines])))
        assert (got.n, got.k, got.t, got.g_edges) == (want.n, want.k, want.t, want.g_edges)
        assert (got.gamma.edges, got.gamma.weight, got.gamma.adj) == \
            (want.gamma.edges, want.gamma.weight, want.gamma.adj)

    def test_label_lines_do_not_change_the_instance(self):
        labelled = parse_instance(SAMPLE + "l 1 center of it all\n")
        assert serialize_instance(labelled) == serialize_instance(parse_instance(SAMPLE))


def test_parse_source_graph_equals_graph():
    # Source edges may repeat, in either orientation; the graph keeps one.
    rng = random.Random(608)
    for _ in range(100):
        n = rng.randint(2, 7)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 2 * n))]
        edges += [e[::-1] for e in rng.sample(edges, rng.randint(1, len(edges)))]
        rng.shuffle(edges)
        text = f"p src {n} 1\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges)
        got, want = parse_source(text, False)[0], Graph(n, edges)
        assert (got.n, got.edges, got.weight, got.adj) == \
            (want.n, want.edges, want.weight, want.adj)


class TestSolutions:
    def test_parse(self):
        assert parse_solution("s 1 3\nc noise\ns 2 3\n", 3) == \
            frozenset({(0, 2), (1, 2)})

    def test_empty(self):
        assert parse_solution("", 3) == frozenset()

    def test_round_trip(self):
        sol = frozenset({(0, 2), (1, 2)})
        assert parse_solution(serialize_solution(sol), 3) == sol

    def test_bad_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_solution("t 1 2\n", 3)

    def test_self_loop(self):
        with pytest.raises(ParseError):
            parse_solution("s 2 2\n", 3)

    def test_out_of_range(self):
        with pytest.raises(ParseError):
            parse_solution("s 1 9\n", 3)
