import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilaug import kdd
from dilaug.graph import Graph
from dilaug.kdd import (AnnotatedInstance, BlockingSet, NotKddFree,
                        branch_blocking, f_value, find_blocking_set,
                        solve_kdd, twin_reduce)
from dilaug.model import (ConflictChecker, adjacent_conflicts, build_instance,
                          verify_solution)
from dilaug.oracle import Verdict, solve_min
from dilaug.randinst import random_instance
from dilaug.structured import EngineInapplicable, solve_bounded_gamma

from conftest import blocking_instance


class TestFValue:
    def test_spot_values_d2_k1(self):
        assert [f_value(i, 1, 2) for i in (2, 1, 0)] == [2, 4, 6]

    def test_spot_values_d3_k2(self):
        assert [f_value(i, 2, 3) for i in (3, 2, 1, 0)] == [3, 12, 30, 66]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6))
    def test_recurrence(self, d, k, i):
        # The thresholds chain together: f(i-1) = (f(i) + k) * k + k.
        if i > d:
            return
        assert f_value(i - 1, k, d) == (f_value(i, k, d) + k) * k + k

    def test_next_to_last_threshold(self):
        for d in range(1, 9):
            for k in range(1, 9):
                assert f_value(d - 1, k, d) == d * k + k * k + k

    def test_monotone_decreasing_in_i(self):
        for d in range(1, 5):
            for k in range(1, 5):
                vals = [f_value(i, k, d) for i in range(d + 1)]
                assert vals == sorted(vals, reverse=True)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            f_value(3, 1, 2)
        with pytest.raises(ValueError):
            f_value(0, 0, 2)


def node_conflicts(ann):
    return adjacent_conflicts(ann.base, ann.added)


def star_annotated(leaves, g_edges=(), k=1, r=(0,)):
    """Gamma = star with center 0 and the given leaf count, t = 2."""
    gamma = Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
    inst = build_instance(gamma, g_edges, k, Fraction(2))
    return AnnotatedInstance(base=inst, added=frozenset(), k=k, r=tuple(r))


class TestBlockingSet:
    def test_no_heavy_witness_means_no_instance(self):
        # G is edgeless, so no vertex of I touches the conflict partners:
        # the Rule-2 answer is None (this branch is a no).
        ann = star_annotated(7)
        assert find_blocking_set(ann, 0, 2, node_conflicts(ann)) is None

    def test_single_witness_dominating_u(self):
        # Vertex 8 is G-adjacent to all seven conflict partners of the
        # center, so it becomes the only witness at d = 2.
        gamma_edges = [(0, i) for i in range(1, 8)] + [(8, i) for i in range(1, 8)]
        gamma = Graph(9, gamma_edges)
        g_edges = [(8, i) for i in range(1, 8)]
        inst = build_instance(gamma, g_edges, 1, Fraction(2))
        ann = AnnotatedInstance(base=inst, added=frozenset(), k=1, r=(0,))
        bs = find_blocking_set(ann, 0, 2, node_conflicts(ann))
        assert bs == BlockingSet(center=0, witnesses=(8,))

    def test_tied_witnesses_over_two_steps(self):
        # K_{2,10}: 11 and 12 are G-adjacent to the ten Gamma partners of
        # the center, which tie at ten hits.  The thresholds f(0..3, 1, 3)
        # are 9, 7, 5, 3: 11 wins the tie at step 1, 12 joins at step 2,
        # and no third vertex has a hit.
        gamma_edges = [(x, i) for x in (0, 11, 12) for i in range(1, 11)]
        g_edges = [(x, i) for x in (11, 12) for i in range(1, 11)]
        inst = build_instance(Graph(13, gamma_edges), g_edges, 1, Fraction(2))
        ann = AnnotatedInstance(base=inst, added=frozenset(), k=1, r=(0,))
        bs = find_blocking_set(ann, 0, 3, node_conflicts(ann))
        assert bs == BlockingSet(center=0, witnesses=(11, 12))

    def test_low_degree_precondition_enforced(self):
        ann = star_annotated(3)
        with pytest.raises(ValueError):
            find_blocking_set(ann, 0, 2, node_conflicts(ann))

    def test_d1_detects_any_witness(self):
        # At d = 1 a single witness already certifies a K_{1,1}, i.e. an
        # edge, so the construction must abort.  f(0, 1, 1) = 3, hence
        # four conflict partners are needed to enter the loop at all.
        gamma_edges = [(0, i) for i in range(1, 5)] + [(5, i) for i in range(1, 5)]
        gamma = Graph(6, gamma_edges)
        inst = build_instance(gamma, [(5, i) for i in range(1, 5)], 1, Fraction(2))
        ann = AnnotatedInstance(base=inst, added=frozenset(), k=1, r=(0,))
        with pytest.raises(NotKddFree):
            find_blocking_set(ann, 0, 1, node_conflicts(ann))


class TestBranching:
    def _single_witness_node(self, k, leaves=7):
        # The last vertex is G-adjacent to every leaf of the center star,
        # so it is the single witness whenever leaves > f(0, k, 2).
        w = leaves + 1
        gamma_edges = [(0, i) for i in range(1, w)] + [(w, i) for i in range(1, w)]
        gamma = Graph(w + 1, gamma_edges)
        inst = build_instance(gamma, [(w, i) for i in range(1, w)], k, Fraction(2))
        return AnnotatedInstance(base=inst, added=frozenset(), k=k, r=(0,))

    def test_budget_strictly_decreases(self):
        # f(0, 2, 2) = 26, so give the center 27 conflict partners.
        ann = self._single_witness_node(2, leaves=27)
        bs = find_blocking_set(ann, 0, 2, node_conflicts(ann))
        children = branch_blocking(ann, bs)
        assert children
        for child in children:
            assert child.k < ann.k
            assert set(ann.r) <= set(child.r)
            assert ann.added < child.added

    def test_children_commit_center_witness_edge(self):
        ann = self._single_witness_node(1)
        bs = find_blocking_set(ann, 0, 2, node_conflicts(ann))
        children = branch_blocking(ann, bs)
        # One witness, budget 1: the only child commits (0, 8).
        assert len(children) == 1
        assert children[0].added == frozenset({(0, 8)})
        assert children[0].k == 0
        assert children[0].r == (0, 8)

    def test_witness_already_adjacent_is_skipped(self):
        ann = self._single_witness_node(1)
        ann2 = AnnotatedInstance(base=ann.base,
                                 added=frozenset({(0, 8)}),
                                 k=1, r=(0,))
        assert branch_blocking(ann2, BlockingSet(0, (8,))) == []


class TestTwinReduce:
    def test_identity_when_no_conflicts(self, triangle_gamma):
        inst = build_instance(triangle_gamma, triangle_gamma.edges, 1, Fraction(2))
        ann = AnnotatedInstance(base=inst, added=frozenset(), k=1, r=())
        red = twin_reduce(ann, node_conflicts(ann))
        # Everything is conflict-free, so all vertices share the empty
        # signature and a single representative survives.
        assert red.candidates == (0,)

    def test_star_leaves_collapse(self):
        # K_{1,5}, G = all center edges but (0, 5): leaves 1..4 are twins.
        gamma = Graph(6, [(0, i) for i in range(1, 6)])
        inst = build_instance(gamma, [(0, i) for i in range(1, 5)], 1, Fraction(2))
        ann = AnnotatedInstance(base=inst, added=frozenset(), k=1, r=(0, 5))
        red = twin_reduce(ann, node_conflicts(ann))
        # Leaves 1..4 form one class; 1 represents it beside the conflict
        # vertices 0 and 5.
        assert red.candidates == (0, 1, 5)

    def test_conflict_vertices_always_kept(self, star_instance):
        ann = AnnotatedInstance(base=star_instance, added=frozenset(),
                                k=2, r=())
        red = twin_reduce(ann, node_conflicts(ann))
        assert set(red.candidates) >= {0, 1, 2, 3}


class TestSolveKdd:
    def test_requires_t_two(self, triangle_path_instance):
        with pytest.raises(EngineInapplicable):
            solve_kdd(triangle_path_instance, 2)

    def test_requires_unweighted_gamma(self):
        gamma = Graph(3, [(0, 1), (1, 2)], {(0, 1): 2})
        inst = build_instance(gamma, [], 1, Fraction(2))
        with pytest.raises(EngineInapplicable):
            solve_kdd(inst, 2)

    def test_rejects_bad_d(self, star_instance):
        with pytest.raises(ValueError):
            solve_kdd(star_instance, 0)

    def test_star(self, star_instance):
        assert not solve_kdd(star_instance, 2).yes
        gamma = star_instance.gamma
        inst = build_instance(gamma, [], 3, Fraction(2))
        verdict = solve_kdd(inst, 2)
        assert verdict.yes and verify_solution(inst, verdict.solution).ok

    def test_node_returns_whole_solution(self):
        # Below a node that has committed (0, 1), the leaf adds (0, 2) and
        # (0, 3); the node answers with all three.
        gamma = Graph(4, [(0, 1), (0, 2), (0, 3)])
        inst = build_instance(gamma, [], 3, Fraction(2))
        root = ConflictChecker(inst)
        added = frozenset({(0, 1)})
        ann = AnnotatedInstance(base=inst, added=added, k=2, r=(0,))
        solution = kdd._solve_annotated(ann, 2, root, frozenset(root.pairs))
        assert solution is not None and added <= solution
        assert verify_solution(inst, solution).ok

    def test_matching_cutoff(self, monkeypatch):
        # 2k+1 independent conflict edges cannot be covered by k added
        # edges; the matching bound answers no before any node is solved.
        gamma = Graph(6, [(0, 1), (2, 3), (4, 5), (1, 2), (3, 4)])
        inst = build_instance(gamma, [(1, 2), (3, 4)], 1, Fraction(2))

        def no_node(*args):
            raise AssertionError("a node was solved")

        monkeypatch.setattr(kdd, "_solve_annotated", no_node)
        assert not solve_kdd(inst, 2).yes

    def test_agrees_with_oracle_forest_g(self, kdd_branchings):
        # A forest is K_{2,2}-free, so d = 2 is a valid contract.  The
        # random draws are too small to branch (f(0) is 6 at k = 1, 26 at
        # k = 2); the blocking instances branch.
        rng, family = random.Random(4004), random.Random(5)
        instances = [random_instance(rng, n_max=8, k_max=2,
                                     ts=(Fraction(2),), forest_g=True)
                     for _ in range(250)]
        instances += [blocking_instance(family, pendant=i % 2 == 1)
                      for i in range(100)]
        yes = 0
        for inst in instances:
            got = solve_kdd(inst, 2)
            expected = solve_min(inst)
            assert got.yes == expected.yes
            if got.yes:
                yes += 1
                assert verify_solution(inst, got.solution).ok
        assert yes > 100
        assert kdd_branchings["branchings"] >= 50
        assert kdd_branchings["violations"] == 0


def hub_instance(rng: random.Random, book: bool):
    """A t = 2 instance whose cover can hold a vertex with more than
    f(0, 1, 2) = 6 conflict partners outside it.  Gamma has 1-2 hubs and
    8-13 leaves, each joined to one hub, plus up to 6 chords; G is a
    random forest and k is 1 to 3.  A ``book`` has two joined hubs, each
    leaf (a page) joined to both, and G a star from hub 1 to most pages:
    with the hubs as the cover, hub 0's partners have no G-neighbour
    outside it.  Vertex ids are shuffled."""
    hubs = 2 if book else rng.randint(1, 2)
    n = hubs + rng.randint(8, 13)
    leaves = range(hubs, n)
    gamma = {(0, 1)} if hubs == 2 else set()
    for x in leaves:
        gamma.update((h, x) for h in (range(hubs) if book else [rng.randrange(hubs)]))
    chords = [e for e in combinations(range(n), 2) if e not in gamma]
    gamma.update(rng.sample(chords, rng.randint(0, 6)))
    if book:
        g_edges = [(1, x) for x in leaves if rng.random() < 0.9]
    else:
        order = rng.sample(range(n), n)
        g_edges = [(order[rng.randrange(i)], order[i]) for i in range(1, n)
                   if rng.random() < 0.5]
    ids = rng.sample(range(n), n)
    return build_instance(Graph(n, [(ids[a], ids[b]) for a, b in gamma]),
                          [(ids[a], ids[b]) for a, b in g_edges],
                          rng.randint(1, 3), Fraction(2))


class TestEmptyBlockingSet:
    """A node whose high-conflict cover vertex has no blocking set answers
    None: a solution within budget would need a witness."""

    def test_book_is_yes_after_the_prune(self, kdd_empty_blocking_sets):
        # Gamma joins 0-1 and both to every page 2..8; G is the star from
        # 1.  The cover is {0, 1}; under the empty guess 0 has 7 partners
        # outside it, whose one G-neighbour 1 lies inside, so the node is
        # pruned.  The guess {(0, 1)} then fixes every pair.
        pages = range(2, 9)
        gamma = Graph(9, [(0, 1)] + [(h, x) for x in pages for h in (0, 1)])
        inst = build_instance(gamma, [(1, x) for x in pages], 1, Fraction(2))
        assert solve_kdd(inst, 2) == solve_min(inst) == Verdict.of({(0, 1)})
        assert kdd_empty_blocking_sets["empty"] == 1

    def test_star_is_no(self, kdd_empty_blocking_sets):
        # Gamma is a star with 8 leaves and G is edgeless: the empty guess
        # is pruned, and the guess {(0, 1)} leaves (0, 2) in conflict.
        inst = build_instance(Graph(9, [(0, x) for x in range(1, 9)]), [], 1, Fraction(2))
        assert solve_kdd(inst, 2) == Verdict.no()
        assert kdd_empty_blocking_sets["empty"] == 1

    def test_seeded_family_agrees_with_bounded_gamma(self, kdd_empty_blocking_sets):
        rng = random.Random(7)
        pruned = {True: 0, False: 0}
        for i in range(400):
            inst = hub_instance(rng, book=i % 4 == 3)
            before = kdd_empty_blocking_sets["empty"]
            got = solve_kdd(inst, 2)
            assert got.yes == solve_bounded_gamma(inst).yes
            if got.yes:
                assert verify_solution(inst, got.solution).ok
            pruned[got.yes] += kdd_empty_blocking_sets["empty"] > before
        # Both answers are reached below a pruned node.
        assert pruned[True] >= 10 and pruned[False] >= 30
