import random
from fractions import Fraction

import pytest

from dilaug.fileformat import (ParseError, parse_instance, parse_solution,
                               serialize_instance, serialize_solution)
from dilaug.randinst import random_instance

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
        assert inst.dist_gamma[0][2] == 5

    def test_labels_collected_on_request(self):
        labels = {}
        parse_instance(SAMPLE + "l 1 center of it all\n", collect_labels=labels)
        assert labels == {0: "center of it all"}

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

    def test_labels_round_trip(self):
        inst = parse_instance(SAMPLE)
        text = serialize_instance(inst, labels={2: "end"})
        assert "l 3 end" in text.splitlines()
        got = {}
        parse_instance(text, collect_labels=got)
        assert got == {2: "end"}


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
