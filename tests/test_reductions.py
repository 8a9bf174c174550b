import warnings
from fractions import Fraction
from itertools import combinations

import pytest

from dilaug.graph import Graph
from dilaug.model import verify_solution
from dilaug.reductions import (SourceProblem, gen_diameter2_clique,
                               gen_diameter2_weighted, gen_dominating_set_star,
                               gen_multicolored_clique, gen_spanner_edgeless,
                               lift_witness)

from conftest import max_degree


def mcq_source(k=2):
    """H on 2k vertices, classes of size 2, with a clique {0, 2, 4, ...}."""
    n = 2 * k
    clique = [2 * i for i in range(k)]
    edges = set(combinations(clique, 2))
    # Some cross-class noise that is not part of the clique.
    edges.add((1, 3)) if k >= 2 else None
    partition = tuple((2 * i, 2 * i + 1) for i in range(k))
    return SourceProblem("multicolored-clique", Graph(n, edges), k,
                         partition=partition), clique


class TestSourceProblem:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SourceProblem("coloring", Graph(2), 1)

    def test_partition_only_for_mcq(self):
        with pytest.raises(ValueError):
            SourceProblem("dominating-set", Graph(2), 1, partition=((0, 1),))
        with pytest.raises(ValueError):
            SourceProblem("multicolored-clique", Graph(2), 1)

    def test_partition_must_cover(self):
        with pytest.raises(ValueError):
            SourceProblem("multicolored-clique", Graph(3), 2,
                          partition=((0,), (1,)))


# Each generator refuses a source of another kind; diam2k's row is
# TestDiameter2Clique::test_wrong_kind_rejected.
@pytest.mark.parametrize("generate, kind", [
    (gen_multicolored_clique, "multicolored-clique"),
    (gen_dominating_set_star, "dominating-set"),
    (lambda src: gen_diameter2_weighted(src, Fraction(1, 2)), "diameter2-augmentation"),
    (gen_spanner_edgeless, "two-spanner"),
], ids=["mcq", "domset", "diam2w", "spanner"])
def test_generator_rejects_another_kind(generate, kind):
    other = "two-spanner" if kind == "dominating-set" else "dominating-set"
    with pytest.raises(ValueError, match=f"^source kind must be {kind}$"):
        generate(SourceProblem(other, Graph(2, [(0, 1)]), 1))


class TestMulticoloredClique:
    def test_layout_counts_k2(self):
        src, _ = mcq_source(2)
        gen = gen_multicolored_clique(src)
        inst = gen.instance
        # n_H + k * k^2 + k * 3k^3 + 1 and budget C(k,2) + k^3.
        assert inst.n == 4 + 2 * 4 + 2 * 24 + 1 == 61
        assert inst.k == 1 + 8 == 9
        assert inst.t == Fraction(3)
        assert inst.gamma.is_unweighted()

    def test_g_is_the_center_star(self):
        src, _ = mcq_source(2)
        gen = gen_multicolored_clique(src)
        center = 60
        assert all(center in e for e in gen.instance.g_edges)
        assert gen.labels[center] == "c"
        assert gen.labels[0] == "h[0]"
        assert gen.labels[4] == "u[1][0]"

    def test_label_count_matches_n(self):
        src, _ = mcq_source(2)
        gen = gen_multicolored_clique(src)
        assert sorted(gen.labels) == list(range(gen.instance.n))

    def test_lift_verifies(self):
        src, clique = mcq_source(2)
        gen = gen_multicolored_clique(src)
        witness = lift_witness(src, clique)
        assert len(witness) == gen.instance.k
        assert verify_solution(gen.instance, witness).ok

    def test_lift_rejects_non_clique(self):
        src, _ = mcq_source(2)
        with pytest.raises(ValueError):
            lift_witness(src, [1, 2])

    def test_lift_rejects_wrong_size(self):
        src, clique = mcq_source(2)
        with pytest.raises(ValueError, match="exactly k vertices"):
            lift_witness(src, clique[:1])

    def test_lift_rejects_wrong_class(self):
        src, _ = mcq_source(2)
        with pytest.raises(ValueError):
            lift_witness(src, [2, 0])

    def test_warns_on_dependent_color_class(self):
        graph = Graph(4, [(0, 1), (0, 2)])
        src = SourceProblem("multicolored-clique", graph, 2,
                            partition=((0, 1), (2, 3)))
        with pytest.warns(UserWarning):
            gen_multicolored_clique(src)

    def test_independent_classes_stay_silent(self):
        src, _ = mcq_source(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gen_multicolored_clique(src)

    def test_k1_rejected(self):
        src = SourceProblem("multicolored-clique", Graph(1), 1,
                            partition=((0,),))
        with pytest.raises(ValueError):
            gen_multicolored_clique(src)


class TestDominatingSetStar:
    def test_shape(self):
        h = Graph(3, [(0, 1), (1, 2)])
        gen = gen_dominating_set_star(SourceProblem("dominating-set", h, 1))
        inst = gen.instance
        assert inst.n == 4
        assert inst.gamma.edges == frozenset({(0, 3), (1, 3), (2, 3)})
        assert inst.g_edges == h.edges
        assert inst.t == Fraction(3)
        assert gen.labels[3] == "c"

    def test_dominating_set_lifts_to_solution(self):
        h = Graph(3, [(0, 1), (1, 2)])
        src = SourceProblem("dominating-set", h, 1)
        gen = gen_dominating_set_star(src)
        witness = lift_witness(src, {1})
        assert witness == frozenset({(1, 3)})
        assert verify_solution(gen.instance, witness).ok

    def test_non_dominating_set_fails_verification(self):
        h = Graph(3, [(0, 1), (1, 2)])
        src = SourceProblem("dominating-set", h, 1)
        gen = gen_dominating_set_star(src)
        # {0} leaves vertex 2 undominated.
        assert not verify_solution(gen.instance, lift_witness(src, {0})).ok

    def test_lift_range_check(self):
        src = SourceProblem("dominating-set", Graph(3, [(0, 1), (1, 2)]), 1)
        with pytest.raises(ValueError):
            lift_witness(src, {5})


class TestDiameter2Weighted:
    def _source(self):
        h = Graph(4, [(0, 1), (1, 2), (2, 3)])  # diameter 3 path
        eps = Fraction(1, 2)
        return SourceProblem("diameter2-augmentation", h, 1, epsilon=eps), eps

    def test_shape(self):
        src, eps = self._source()
        gen = gen_diameter2_weighted(src, eps)
        inst = gen.instance
        assert inst.n == 16
        assert inst.t == Fraction(5, 2)
        # w = 3n / (2 eps) = 12 here, already integral: weights are {1, 12}.
        weights = {inst.gamma.weight.get(e, 1) for e in inst.gamma.edges}
        assert weights == {1, 12}
        assert max_degree(inst.g_edges) <= 3
        assert gen.labels[0] == "v[1]^[1]"

    def test_fractional_w_is_scaled_to_integers(self):
        h = Graph(4, [(0, 1), (1, 2), (2, 3)])
        eps = Fraction(1, 5)
        src = SourceProblem("diameter2-augmentation", h, 1, epsilon=eps)
        gen = gen_diameter2_weighted(src, eps)
        inst = gen.instance
        # w = 30, scale 1; with eps = 2/5, w = 15 and scale 1; pick an eps
        # that forces scaling instead: 3n/(2 eps) = 3*4*5/2 = 30.
        assert inst.gamma.is_unweighted() is False
        for e in inst.gamma.edges:
            assert isinstance(inst.gamma.weight.get(e, 1), int)

    def test_epsilon_bounds(self):
        h = Graph(2, [(0, 1)])
        src = SourceProblem("diameter2-augmentation", h, 1,
                            epsilon=Fraction(1, 2))
        for bad in (Fraction(0), Fraction(1), Fraction(3, 2)):
            with pytest.raises(ValueError):
                gen_diameter2_weighted(src, bad)

    def test_epsilon_must_match_source(self):
        """lift_witness maps into the grid only if the source has the
        instance's epsilon; else its lift overlaps G, so both are refused."""
        h = Graph(3, [(0, 1)])
        eps = Fraction(1, 2)
        for other in (None, Fraction(1, 3)):
            src = SourceProblem("diameter2-augmentation", h, 2, epsilon=other)
            with pytest.raises(ValueError, match="source's epsilon"):
                gen_diameter2_weighted(src, eps)
        src = SourceProblem("diameter2-augmentation", h, 2, epsilon=eps)
        witness = lift_witness(src, {(0, 2), (1, 2)})
        assert witness == {(2, 6), (5, 7)}
        assert verify_solution(gen_diameter2_weighted(src, eps).instance, witness).ok

    def test_lift_verifies(self):
        src, eps = self._source()
        gen = gen_diameter2_weighted(src, eps)
        # Adding (0, 3) gives the path diameter 2.
        witness = lift_witness(src, {(0, 3)})
        assert verify_solution(gen.instance, witness).ok

    def test_lift_rejects_existing_edge(self):
        src, eps = self._source()
        with pytest.raises(ValueError):
            lift_witness(src, {(0, 1)})


class TestSpannerEdgeless:
    def test_shape(self):
        h = Graph(3, [(0, 1), (1, 2), (0, 2)])
        gen = gen_spanner_edgeless(SourceProblem("two-spanner", h, 2))
        assert gen.instance.g_edges == frozenset()
        assert gen.instance.t == Fraction(2)
        assert gen.instance.gamma.edges == h.edges

    def test_disconnected_source_rejected(self):
        with pytest.raises(ValueError):
            gen_spanner_edgeless(SourceProblem("two-spanner", Graph(2), 1))

    def test_spanner_lifts_to_solution(self):
        h = Graph(3, [(0, 1), (1, 2), (0, 2)])
        src = SourceProblem("two-spanner", h, 2)
        gen = gen_spanner_edgeless(src)
        witness = lift_witness(src, [(0, 1), (1, 2)])
        assert verify_solution(gen.instance, witness).ok

    def test_lift_requires_subset_of_h(self):
        h = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        src = SourceProblem("two-spanner", h, 2)
        with pytest.raises(ValueError):
            lift_witness(src, [(0, 2)])


class TestDiameter2Clique:
    def test_shape(self):
        h = Graph(4, [(0, 1), (1, 2), (2, 3)])
        gen = gen_diameter2_clique(SourceProblem("diameter2-augmentation", h, 1))
        inst = gen.instance
        assert len(inst.gamma.edges) == 6
        assert inst.g_edges == h.edges
        assert inst.t == Fraction(2)

    def test_lift_verifies(self):
        h = Graph(4, [(0, 1), (1, 2), (2, 3)])
        src = SourceProblem("diameter2-augmentation", h, 1)
        gen = gen_diameter2_clique(src)
        witness = lift_witness(src, {(0, 3)})
        assert witness == frozenset({(0, 3)})
        assert verify_solution(gen.instance, witness).ok

    def test_wrong_kind_rejected(self):
        src = SourceProblem("dominating-set", Graph(2, [(0, 1)]), 1)
        with pytest.raises(ValueError):
            gen_diameter2_clique(src)
