import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtriple import algebra, hochschild
from graphtriple.algebra import AlgebraElement, make_key
from graphtriple.graphs import Edge, GraphPresentation, WorkBudgetError
from graphtriple.hochschild import (HochschildChain,
                                    boundary_coefficients_1graph,
                                    check_orientation_1graph,
                                    orientation_cycle_kgraph,
                                    pi_D_identity_check,
                                    verify_cancellation_steps)
from graphtriple.kgraphs import KGraphPresentation
from graphtriple.scalars import ONE, GaussianRational

from corpus import (ORIENTATION_CORPUS_1GRAPH, double_entry_tree, dyadic_tree,
                    loop_with_exit, one_vertex_3graph, one_vertex_kgraph,
                    single_exit_violating_2graph, single_loop, sink_path,
                    torus_2graph, tree_with_ends, two_disjoint_loops,
                    two_extension_2graph, two_vertex_2graph)
from oracles import (orientation_1graph_oracle, orientation_cycle_1graph,
                     orientation_cycle_oracle, permutation_sign, pi_D,
                     pi_D_identity_oracle, relabel, truncation_ends)
from test_conditions import product_kgraphs, twisted_2graphs
from test_spectral import abelian_kgraphs
from test_structure import digraphs

# every 1-graph of the corpus, orientable or not
ALL_1GRAPHS = ORIENTATION_CORPUS_1GRAPH + [
    *((f"dyadic{d}", dyadic_tree(d)) for d in (1, 2, 3)),
    ("sink_path", sink_path()),
    ("loop_with_exit", loop_with_exit()),
    ("double_entry_tree", double_entry_tree()),
    ("two_disjoint_loops", two_disjoint_loops()),
]


# every k-graph of the corpus, single exit or not
KGRAPHS = [torus_2graph(), two_vertex_2graph(), one_vertex_3graph(),
           single_exit_violating_2graph(), two_extension_2graph(),
           *(one_vertex_kgraph(k) for k in (4, 5, 6))]


def two_loops_per_colour(k):
    """One vertex with two loops of each colour, squares commuting them:
    2^k paths of degree (1,...,1), so c_k has k! 2^k terms."""
    edges = [Edge(f"g{c}{m}", "v", "v", c)
             for c in range(1, k + 1) for m in (0, 1)]
    squares = [((f"g{c}{m}", f"g{d}{n}"), (f"g{d}{n}", f"g{c}{m}"))
               for c in range(1, k + 1) for d in range(c + 1, k + 1)
               for m in (0, 1) for n in (0, 1)]
    return KGraphPresentation(k, ["v"], edges, squares)


def negate_identity_order(monkeypatch):
    """Make hochschild.orientation_cycle_kgraph a mutant that gives each
    identity-order term (slot colours 1, ..., k) the sign of its
    transpositions."""
    exact = hochschild.orientation_cycle_kgraph

    def mutant(g):
        chain = exact(g)
        for fac, c in chain.terms.items():
            colours = [g.edge_color(p[0]) for p, _, _ in fac[1:]]
            if colours == sorted(colours):
                chain.terms[fac] = -c
        return chain
    monkeypatch.setattr(hochschild, "orientation_cycle_kgraph", mutant)


def chain_of(amb, *factors, coeff=GaussianRational(1)):
    fac = tuple(make_key(amb, mu, nu) for mu, nu in factors)
    return HochschildChain(amb, len(fac), {fac: coeff})


class TestBoundary:
    def test_arity2_definition(self):
        amb = tree_with_ends(2).expand(1)
        x = make_key(amb, ("e1",), ())
        y = make_key(amb, (), ("e1",))
        ch = HochschildChain(amb, 2, {(x, y): GaussianRational(1)})
        b = ch.boundary()
        # b(x (x) y) = xy - yx = S_e1 S_e1* - p_c1
        expect = AlgebraElement.generator(amb, ("e1",), ("e1",)) - \
            AlgebraElement.vertex(amb, "c1")
        got = AlgebraElement(amb, {fac[0]: c for fac, c in b.terms.items()})
        assert got.equals(expect)

    def test_b_squared_zero_random(self):
        amb = tree_with_ends(2).expand(2)
        keys = []
        for w in amb.vertices:
            into = [()] + amb.paths_with_degree((1,), w, "into")
            for mu in into:
                for nu in into:
                    keys.append((mu, nu, w))

        @given(st.lists(
            st.tuples(st.sampled_from(keys), st.sampled_from(keys),
                      st.sampled_from(keys)),
            min_size=1, max_size=3,
        ))
        @settings(max_examples=30, deadline=None)
        def run(triples):
            terms = {}
            for fac in triples:
                terms[tuple(fac)] = terms.get(tuple(fac), GaussianRational(0)) \
                    + GaussianRational(1)
            ch = HochschildChain(amb, 3, terms)
            assert ch.boundary().boundary().is_zero()

        run()

    def test_arity_guard(self):
        amb = single_loop(1).expand(1)
        ch = HochschildChain(amb, 1, {
            (make_key(amb, ("e0",), ()),): GaussianRational(1)
        })
        with pytest.raises(ValueError):
            ch.boundary()


    @pytest.mark.parametrize("cycle", [
        lambda: orientation_cycle_1graph(tree_with_ends(2).expand(1)),
        lambda: orientation_cycle_kgraph(one_vertex_3graph())],
        ids=["tree_with_ends_2", "one_vertex_3graph"])
    def test_applies_the_face_sign_by_negation(self, cycle, monkeypatch):
        # a face's coefficient is its term's, negated at odd j
        chain = cycle()
        expected = chain.boundary().terms

        def refuse(*args, **kwargs):
            raise AssertionError("multiplied a coefficient by its sign")
        monkeypatch.setattr(GaussianRational, "__mul__", refuse)
        assert chain.boundary().terms == expected


class TestOrientation1Graph:
    def test_one_edge_loop_volume_form(self):
        g = single_loop(1)
        amb = g.expand(0)
        c = orientation_cycle_1graph(amb)
        assert len(c.terms) == 1
        assert c.boundary().is_zero()
        rep = pi_D(c)
        assert rep.equals(AlgebraElement.vertex(amb, "v0"))

    def test_boundary_coefficient_formula(self):
        for name, g in ORIENTATION_CORPUS_1GRAPH:
            coeffs = boundary_coefficients_1graph(g)
            for v in g.vertices:
                expected = g.conceptual_in_degree(v) - (
                    0 if g.is_sink(v) else 1
                )
                assert coeffs[v] == expected, (name, v)

    def test_double_entry_coefficient(self):
        coeffs = boundary_coefficients_1graph(double_entry_tree())
        assert coeffs["c"] == 1  # |c|_1 - 1 = 2 - 1

    def test_sink_coefficient(self):
        from corpus import sink_path
        coeffs = boundary_coefficients_1graph(sink_path())
        assert coeffs["w"] == 1  # sinks contribute |v|_1 p_v

    @pytest.mark.parametrize("name,g", ORIENTATION_CORPUS_1GRAPH)
    def test_corpus_orientable(self, name, g):
        rep = check_orientation_1graph(g)
        assert rep["closed_form_zero"], name
        assert rep["truncated_boundary_is_boundary_residue"], name
        assert rep["pi_D_identity_on_interior"], name

    def test_double_entry_not_orientable(self):
        rep = check_orientation_1graph(double_entry_tree())
        assert not rep["closed_form_zero"]
        assert not rep["orientable"]

    @pytest.mark.parametrize("name,g", ALL_1GRAPHS)
    def test_truncated_checks_agree_with_closed_form(self, name, g):
        # conditions decides 1-graph orientability from b(c)'s coefficients
        # alone; the truncated checks must give the same verdict
        closed = all(c == 0 for c in boundary_coefficients_1graph(g).values())
        rep = check_orientation_1graph(g)
        assert rep["orientable"] == closed, name
        assert rep["truncated_boundary_is_boundary_residue"] == closed, name


def closed_forms(g, depth):
    """b(c) and pi_D(c) on amb = g.expand(depth), from g alone: on the
    core, b(c) = sum_v (|v|_1 - [v emits]) p_v and pi_D(c) =
    sum_v |v|_1 p_v; each added tail vertex is entered once, so it adds p_w
    to pi_D(c), and to b(c) the residue p_w at the outer end of a tail and
    -p_w at the outer end of a source tail."""
    amb = g.expand(depth)

    def projections(weights):
        return AlgebraElement(amb, {((), (), v): GaussianRational(n)
                                    for v, n in weights.items()})
    added = set(amb.vertices) - set(g.vertices)
    tail_ends, source_ends = truncation_ends(g, depth)
    b = {**boundary_coefficients_1graph(g),
         **{w: 1 for w in tail_ends},
         **{w: -1 for w in source_ends}}
    pi = {**{v: g.conceptual_in_degree(v) for v in g.vertices},
          **{w: 1 for w in added - source_ends}}
    return amb, projections(b), projections(pi)


class TestDepthIndependence:
    """The truncated b(c) and pi_D(c) are their closed forms at every tail
    depth, and the element route on each depth gives the report that
    `check_orientation_1graph` reads off the presentation."""

    @staticmethod
    def check(g, depth):
        amb, b, pi = closed_forms(g, depth)
        cycle = orientation_cycle_1graph(amb)
        got = AlgebraElement(
            amb, {fac[0]: c for fac, c in cycle.boundary().terms.items()})
        assert got.equals(b)
        assert pi_D(cycle).equals(pi)
        assert check_orientation_1graph(g) == \
            orientation_1graph_oracle(g, depth)

    @pytest.mark.parametrize("depth", range(1, 7))
    @pytest.mark.parametrize("name,g", ALL_1GRAPHS)
    def test_corpus(self, name, g, depth):
        self.check(g, depth)

    @given(digraphs(max_vertices=5), st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_digraphs_with_tails_and_source_tails(self, g, depth):
        self.check(g, depth)

    @pytest.mark.parametrize("name,identity", [("sink_path", True),
                                               ("double_entry_tree", False)])
    def test_each_verdict_can_fail(self, name, identity):
        # sink_path: pi_D(c) is the identity but b(c) = p_w; the double
        # entry tree fails both
        g = dict(ALL_1GRAPHS)[name]
        rep = check_orientation_1graph(g)
        assert rep == orientation_1graph_oracle(g)
        assert not rep["closed_form_zero"]
        assert not rep["truncated_boundary_is_boundary_residue"]
        assert rep["pi_D_identity_on_interior"] is identity
        assert not rep["orientable"]

    def test_builds_no_expansion_chain_element_or_product(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("check_orientation_1graph left the "
                                 "presentation")
        monkeypatch.setattr(GraphPresentation, "expand", refuse)
        monkeypatch.setattr(AlgebraElement, "__init__", refuse)
        monkeypatch.setattr(HochschildChain, "__init__", refuse)
        for module in (algebra, hochschild):
            monkeypatch.setattr(module, "_multiply_keys", refuse)
        for name, g in ALL_1GRAPHS:
            rep = check_orientation_1graph(g)
            assert rep["orientable"] == rep["closed_form_zero"], name


class TestOrientationKGraph:
    def test_c2_torus_expansion(self):
        # expanding the cycle formula by hand for the two permutations of
        # Sigma_2: c_2 = i^2 (1/2)(S_ef* (x) S_e (x) S_f - S_ef* (x) S_f (x) S_e),
        # held as 2! i^-2 c_2, whose coefficients are the signs +1, -1
        g = torus_2graph()
        c2 = orientation_cycle_kgraph(g)
        star = make_key(g, (), ("e", "f"))
        se = make_key(g, ("e",), ())
        sf = make_key(g, ("f",), ())
        expected = {(star, se, sf): 1, (star, sf, se): -1}
        assert set(c2.terms) == set(expected)
        for fac, c in expected.items():
            assert type(c2.terms[fac]) is int and c2.terms[fac] == c
        # and c_2 itself, i^2 / 2! times the chain, is the hand expansion
        by_hand = {(star, se, sf): GaussianRational(Fraction(-1, 2)),
                   (star, sf, se): GaussianRational(Fraction(1, 2))}
        for fac, c in by_hand.items():
            assert GaussianRational.i_power(2) * Fraction(1, 2) \
                * c2.terms[fac] == c

    @pytest.mark.parametrize("g", [
        torus_2graph(), two_vertex_2graph(), one_vertex_3graph(),
    ])
    def test_b_ck_zero_exactly(self, g):
        assert orientation_cycle_kgraph(g).boundary().is_zero()

    @pytest.mark.parametrize("g", [
        torus_2graph(), two_vertex_2graph(), one_vertex_3graph(),
    ])
    def test_pi_D_is_volume_form(self, g):
        assert pi_D_identity_check(orientation_cycle_kgraph(g))["pass"]

    def test_pi_D_reports_selfadjoint_phase(self):
        g = torus_2graph()
        rep = pi_D(orientation_cycle_kgraph(g))
        assert rep["selfadjoint_phase"] == GaussianRational.i_power(2)

    def test_k1_cycle_scalar_discrepancy(self):
        # at k = 1 the degree-(1) cycle formula carries the extra scalar i
        # that the plain 1-graph cycle omits; the chain holds 1! i^-1 c_1,
        # so its coefficient is 1 and c_1 = i * chain
        from graphtriple.kgraphs import KGraphPresentation
        from graphtriple.graphs import Edge
        g = KGraphPresentation(1, ["v"], [Edge("e", "v", "v", 1)], [])
        ck = orientation_cycle_kgraph(g)
        (fac, c), = ck.terms.items()
        assert type(c) is int and c == 1
        assert GaussianRational.i_power(1) * c == GaussianRational(0, 1)

    def test_single_exit_violation_detected(self):
        g = single_exit_violating_2graph()
        rep = verify_cancellation_steps(g)
        assert not rep["b_ck_zero"]
        assert not rep["step3_ck_cancellation"]
        assert rep["step3_witness"]["vertex"] is not None

    @pytest.mark.parametrize("g", [
        torus_2graph(), two_vertex_2graph(), one_vertex_3graph(),
    ])
    def test_cancellation_steps_pass(self, g):
        rep = verify_cancellation_steps(g)
        assert rep["step1_middle_terms_vanish"]
        assert rep["step2_elementary_tensors_equal"]
        assert rep["step3_ck_cancellation"]
        assert rep["pass"]

    @pytest.mark.parametrize("g", KGRAPHS + [one_vertex_kgraph(7)])
    def test_one_split_per_order_tree_node_and_no_product(
            self, g, monkeypatch):
        # the colour orders of each mu are a tree with k!/(k-j)! nodes at
        # depth j, and each node splits one edge off once (13,699 splits a
        # path at k = 7, where a fresh factorisation per order makes
        # k k! = 35,280); its faces then give every step and b(c_k)
        calls = []
        split_prefix = KGraphPresentation.split_prefix

        def counted(self, word, m):
            calls.append((word, m))
            return split_prefix(self, word, m)

        def refuse(*args, **kwargs):
            raise AssertionError("formed an element product")
        monkeypatch.setattr(KGraphPresentation, "split_prefix", counted)
        monkeypatch.setattr(AlgebraElement, "__mul__", refuse)
        rep = verify_cancellation_steps(g)
        nodes = sum(math.perm(g.k, j) for j in range(1, g.k + 1))
        assert len(calls) == nodes * len(g.unit_degree_paths())
        assert rep["pass"] == g.single_exit_check()["holds"]

    @pytest.mark.parametrize("g", [torus_2graph(), two_vertex_2graph(),
                                   one_vertex_3graph()])
    def test_negated_permutation_fails_step1(self, g, monkeypatch):
        # the mutant cycle gives the identity permutation the sign of its
        # transpositions, so each middle face of mu pairs up uncancelled
        negate_identity_order(monkeypatch)
        rep = verify_cancellation_steps(g)
        assert not rep["step1_middle_terms_vanish"] and not rep["pass"]
        assert rep["step1_witness"] == {"mu": g.unit_degree_paths()[-1],
                                        "j": g.k - 1}
        assert rep["step2_elementary_tensors_equal"]

    @pytest.mark.parametrize("g", [torus_2graph(), two_vertex_2graph(),
                                   one_vertex_3graph(), one_vertex_kgraph(4)])
    def test_product_without_square_moves_fails_step2(self, g, monkeypatch):
        # the mutant product of two paths concatenates them and leaves the
        # word out of colour order, so the middle faces of sigma and sigma
        # t_j give two words for one segment of mu; the heads of face 0,
        # star times path, do not move
        exact = hochschild._multiply_keys

        def unmoved(amb, x, y):
            if x[0] and y[0] and not x[1] and not y[1]:
                return ((x[0] + y[0], (), y[2]),)
            return exact(amb, x, y)
        monkeypatch.setattr(hochschild, "_multiply_keys", unmoved)
        rep = verify_cancellation_steps(g)
        assert not rep["step2_elementary_tensors_equal"] and not rep["pass"]
        assert rep["step2_witness"]["mu"] == g.unit_degree_paths()[-1]
        assert rep["step2_witness"]["j"] == g.k - 1
        assert rep["step3_ck_cancellation"]

    @pytest.mark.parametrize("g", [torus_2graph(), two_vertex_2graph(),
                                   one_vertex_3graph(), one_vertex_kgraph(4)])
    def test_star_product_listed_twice_fails_step3(self, g, monkeypatch):
        # the mutant product of a star and a path lists each key twice, so
        # face 0 of each term gives its (lambda, sigma) two heads; the
        # middle faces, path times path, do not move
        exact = hochschild._multiply_keys

        def doubled(amb, x, y):
            keys = exact(amb, x, y)
            return keys + keys if x[1] and not x[0] and y[0] else keys
        monkeypatch.setattr(hochschild, "_multiply_keys", doubled)
        rep = verify_cancellation_steps(g)
        assert not rep["step3_ck_cancellation"] and not rep["pass"]
        assert rep["step3_witness"]["head_multiplicity"] == 2
        assert rep["step1_middle_terms_vanish"]
        assert rep["step2_elementary_tensors_equal"]

    @pytest.mark.parametrize("g", KGRAPHS)
    def test_budget_counts_the_paths_it_would_list(self, g, monkeypatch):
        paths = len(g.unit_degree_paths())
        monkeypatch.setattr(hochschild, "CYCLE_BUDGET", 0)
        with pytest.raises(WorkBudgetError, match=(
                f"^c_k has {g.k}! x {paths} = "
                f"{math.factorial(g.k) * paths} terms, ")):
            verify_cancellation_steps(g)

    @pytest.mark.parametrize("k", [6, 10, 14])
    def test_over_budget_refuses_before_listing_a_path(self, k,
                                                       monkeypatch):
        # two loops of each colour: the path count doubles with each colour
        g = two_loops_per_colour(k)

        def refuse(*args, **kwargs):
            raise AssertionError("listed the paths before refusing")
        monkeypatch.setattr(KGraphPresentation, "unit_degree_paths", refuse)
        with pytest.raises(WorkBudgetError, match=(
                f"^c_k has {k}! x {2 ** k} = "
                f"{math.factorial(k) * 2 ** k} terms, over the budget")):
            verify_cancellation_steps(g)


class TestCycleAgainstTheOracle:
    """c_k walked as a colour-order tree holds the items of the oracle,
    which factorises each mu afresh in every order, in the same order:
    witnesses read that order."""

    @staticmethod
    def check(g):
        cycle = orientation_cycle_kgraph(g)
        oracle = orientation_cycle_oracle(g)
        assert list(cycle.terms.items()) == list(oracle.terms.items())
        with mock.patch.object(hochschild, "orientation_cycle_kgraph",
                               orientation_cycle_oracle):
            expected = verify_cancellation_steps(g)
        assert verify_cancellation_steps(g) == expected

    @pytest.mark.parametrize(
        "g", KGRAPHS + [one_vertex_kgraph(2), one_vertex_kgraph(3)])
    def test_corpus_and_one_vertex_kgraphs(self, g):
        self.check(g)

    @given(st.one_of(abelian_kgraphs(), product_kgraphs(),
                     twisted_2graphs()))
    @settings(max_examples=60, deadline=None)
    def test_drawn_kgraphs(self, g):
        self.check(g)


class TestPiDFromPaths:
    """pi_D_identity_check reads each term's path and sign; the element
    products of the tests' pi_D are its oracle."""

    @given(st.one_of(abelian_kgraphs(), product_kgraphs()))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_oracle_on_abelian_kgraphs(self, g):
        # product k-graphs fail single exit unless every factor is a
        # permutation, and then pi_D(c_k) is not omega_C (x) 1
        cycle = orientation_cycle_kgraph(g)
        got = pi_D_identity_check(cycle)["pass"]
        assert got == pi_D_identity_oracle(cycle)
        assert got == g.single_exit_check()["holds"]

    @pytest.mark.parametrize("g", KGRAPHS)
    def test_matches_the_oracle_on_the_corpus(self, g):
        cycle = orientation_cycle_kgraph(g)
        assert pi_D_identity_check(cycle) == {
            "pass": pi_D_identity_oracle(cycle)}

    @pytest.mark.parametrize("g", [torus_2graph(), two_vertex_2graph(),
                                   one_vertex_3graph(), one_vertex_kgraph(4)])
    def test_negated_permutation_flips_pass(self, g, monkeypatch):
        # the mutant cycle negates the identity permutation's terms, so
        # each vertex's coefficient of gamma^1...gamma^k moves off omega_C's
        assert pi_D_identity_check(orientation_cycle_kgraph(g))["pass"]
        negate_identity_order(monkeypatch)
        cycle = hochschild.orientation_cycle_kgraph(g)
        assert not pi_D_identity_check(cycle)["pass"]
        assert not pi_D_identity_oracle(cycle)

    def test_forms_no_product(self, monkeypatch):
        cycles = [(orientation_cycle_kgraph(g), ok)
                  for g, ok in ((torus_2graph(), True),
                                (single_exit_violating_2graph(), False))]

        def refuse(*args, **kwargs):
            raise AssertionError("pi_D_identity_check formed a product")
        for module in (algebra, hochschild):
            monkeypatch.setattr(module, "_multiply_keys", refuse)
        monkeypatch.setattr(AlgebraElement, "__mul__", refuse)
        for cycle, ok in cycles:
            assert pi_D_identity_check(cycle)["pass"] is ok

    def test_slots_that_miss_the_path_raise(self):
        g = torus_2graph()
        star = make_key(g, (), ("e", "f"))
        for slots in ((("e",), ()), (("f",), ("f",))):
            bad = HochschildChain(g, 3, {
                (star, make_key(g, ("e",), ()), make_key(g, *slots)): ONE})
            with pytest.raises(ValueError):
                pi_D_identity_check(bad)


class TestPermutationSign:
    """The oracle's inversion-count sign against bubble-sort parity."""

    def test_against_inversion_count(self):
        for n in (2, 3, 4):
            for sigma in itertools.permutations(range(1, n + 1)):
                sign = 1
                work = list(sigma)
                # bubble sort parity oracle
                for i in range(len(work)):
                    for j in range(len(work) - 1):
                        if work[j] > work[j + 1]:
                            work[j], work[j + 1] = work[j + 1], work[j]
                            sign = -sign
                assert permutation_sign(sigma) == sign


class TestRelabelingEquivariance:
    def test_cycle_coefficients_match(self):
        g = tree_with_ends(2)
        vmap = {v: f"X{i}" for i, v in enumerate(g.vertices)}
        emap = {e: f"Y{i}" for i, e in enumerate(g.edge_order)}
        h = relabel(g, vmap, emap)
        cg = boundary_coefficients_1graph(g)
        ch = boundary_coefficients_1graph(h)
        assert {vmap[v]: c for v, c in cg.items()} == ch
