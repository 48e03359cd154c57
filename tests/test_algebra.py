import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtriple.algebra import (AlgebraElement, PresentationMismatchError,
                                 _meet, _multiply_keys, _prefix_divide,
                                 delta_action, dirac_commutator, expectation,
                                 grade, kernel, key_source_mu, key_source_nu,
                                 local_unit, make_key, multiply)
from graphtriple.scalars import GaussianRational, I
from graphtriple.spectral import build_truncation, generator_keys
from graphtriple.traces import solve_graph_trace, solve_kgraph_trace

from corpus import (one_vertex_3graph, single_loop, torus_2graph,
                    tree_with_ends, two_extension_2graph, two_vertex_2graph)


def loop_ambient(level=3):
    return single_loop(1).expand(level)


def tree_ambient(level=3):
    return tree_with_ends(2).expand(level)


def gen(amb, mu, nu=()):
    return AlgebraElement.generator(amb, mu, nu)


class TestMultiplication:
    def test_isometry_relation(self):
        amb = loop_ambient()
        e = gen(amb, ("e0",))
        pv = AlgebraElement.vertex(amb, "v0")
        assert (e.involution() * e).equals(pv)

    def test_vertex_acts_as_local_identity(self):
        amb = tree_ambient()
        s = gen(amb, ("e1",))
        assert (AlgebraElement.vertex(amb, "b") * s).equals(s)
        assert (AlgebraElement.vertex(amb, "c1") * s).is_zero()

    def test_distinct_edges_orthogonal(self):
        amb = tree_ambient()
        e1, e2 = gen(amb, ("e1",)), gen(amb, ("e2",))
        assert (e1.involution() * e2).is_zero()

    def test_isometry_iterate(self):
        amb = loop_ambient()
        e = gen(amb, ("e0",))
        prod = e.involution() * e * e.involution() * e
        assert prod.equals(AlgebraElement.vertex(amb, "v0"))

    def test_presentation_mismatch(self):
        with pytest.raises(PresentationMismatchError):
            multiply(gen(loop_ambient(), ("e0",)),
                     AlgebraElement.vertex(tree_ambient(), "b"))

    def test_ck_identity_every_nonsink_vertex(self):
        for g in [single_loop(2), tree_with_ends(2), tree_with_ends(3)]:
            amb = g.expand(2)
            for v in amb.vertices:
                outs = amb.out_edges(v)
                if not outs:
                    continue
                total = AlgebraElement.zero(amb)
                for eid in outs:
                    s = gen(amb, (eid,))
                    total = total + s * s.involution()
                assert total.equals(AlgebraElement.vertex(amb, v))

    def test_kgraph_ck_identity_per_color(self):
        g = two_vertex_2graph()
        for v in g.vertices:
            for color in (1, 2):
                total = AlgebraElement.zero(g)
                for eid in g.out_edges(v):
                    if g.edge_color(eid) == color:
                        s = gen(g, (eid,))
                        total = total + s * s.involution()
                assert total.equals(AlgebraElement.vertex(g, v))


def small_elements(amb, keys):
    coeff = st.sampled_from([
        GaussianRational(1), GaussianRational(-1), GaussianRational(2),
        GaussianRational(0, 1), GaussianRational(Fraction(1, 2)),
    ])
    term = st.tuples(st.sampled_from(keys), coeff)
    return st.lists(term, min_size=0, max_size=3).map(
        lambda terms: _build(amb, terms)
    )


def _build(amb, terms):
    out = AlgebraElement.zero(amb)
    for key, c in terms:
        out = out + AlgebraElement(amb, {key: c})
    return out


def all_keys(amb, max_len):
    keys = []
    for w in amb.vertices:
        into = [()]
        for j in range(1, max_len + 1):
            into.extend(amb.paths_into(w, j))
        for mu in into:
            for nu in into:
                keys.append((mu, nu, w))
    return keys


LOOP_AMB = loop_ambient()
TREE_AMB = tree_ambient()
LOOP_KEYS = all_keys(LOOP_AMB, 2)
TREE_KEYS = all_keys(TREE_AMB, 2)


class TestRingAxioms:
    def test_associativity_exhaustive_on_loop(self):
        keys = all_keys(LOOP_AMB, 2)
        elems = [AlgebraElement(LOOP_AMB, {k: GaussianRational(1)}) for k in keys]
        for a, b, c in itertools.product(elems[:9], repeat=3):
            assert ((a * b) * c).equals(a * (b * c))

    @given(small_elements(TREE_AMB, TREE_KEYS),
           small_elements(TREE_AMB, TREE_KEYS),
           small_elements(TREE_AMB, TREE_KEYS))
    @settings(max_examples=60, deadline=None)
    def test_associativity_random_tree(self, a, b, c):
        assert ((a * b) * c).equals(a * (b * c))

    def test_associativity_exhaustive_torus(self):
        g = torus_2graph()
        keys = [k for k in _kgraph_keys(g, 1)]
        elems = [AlgebraElement(g, {k: GaussianRational(1)}) for k in keys]
        for a, b, c in itertools.product(elems, repeat=3):
            assert ((a * b) * c).equals(a * (b * c))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_associativity_random_two_vertex_2graph(self, data):
        g = two_vertex_2graph()
        keys = _kgraph_keys(g, 1)
        elems = st.sampled_from(
            [AlgebraElement(g, {k: GaussianRational(1)}) for k in keys]
        )
        a, b, c = (data.draw(elems) for _ in range(3))
        assert ((a * b) * c).equals(a * (b * c))

    @given(small_elements(TREE_AMB, TREE_KEYS),
           small_elements(TREE_AMB, TREE_KEYS))
    @settings(max_examples=60, deadline=None)
    def test_involution_antihomomorphism(self, a, b):
        assert ((a * b).involution()).equals(b.involution() * a.involution())

    @given(small_elements(TREE_AMB, TREE_KEYS))
    @settings(max_examples=40, deadline=None)
    def test_involution_involutive(self, a):
        assert a.involution().involution().equals(a)

    def test_conjugate_coefficient(self):
        amb = LOOP_AMB
        a = AlgebraElement(amb, {make_key(amb, ("e0",), ()): I})
        assert a.involution().terms[make_key(amb, (), ("e0",))] == -I


def _kgraph_keys(g, max_deg):
    keys = set()
    box = [(i, j) for i in range(max_deg + 1) for j in range(max_deg + 1)]
    for w in g.vertices:
        into = [
            p for d in box for p in g.paths_with_degree(d, w, "into")
        ]
        for mu in into:
            for nu in into:
                keys.add((mu, nu, w))
    return sorted(keys)


class TestGrading:
    def test_edge_has_degree_one(self):
        amb = LOOP_AMB
        assert set(grade(gen(amb, ("e0",)))) == {1}

    def test_vertex_degree_zero(self):
        assert set(grade(AlgebraElement.vertex(LOOP_AMB, "v0"))) == {0}

    def test_mixed_degrees_split(self):
        amb = TREE_AMB
        a = gen(amb, ("e1",)) + gen(amb, ("e1",), ("e1",))
        parts = grade(a)
        assert set(parts) == {0, 1}

    def test_phi_idempotent_orthogonal(self):
        amb = TREE_AMB
        a = gen(amb, ("e1",)) + gen(amb, ("e1",), ("e1",))
        assert a.component(1).component(1).equals(a.component(1))
        assert a.component(1).component(0).is_zero()
        total = AlgebraElement.zero(amb)
        for part in grade(a).values():
            total = total + part
        assert total.equals(a)

    @given(small_elements(TREE_AMB, TREE_KEYS),
           small_elements(TREE_AMB, TREE_KEYS))
    @settings(max_examples=40, deadline=None)
    def test_grading_multiplicative(self, a, b):
        degs_a = {d for d, p in grade(a).items() if not p.is_zero()}
        degs_b = {d for d, p in grade(b).items() if not p.is_zero()}
        degs_ab = {d for d, p in grade(a * b).items() if not p.is_zero()}
        allowed = {da + db for da in degs_a for db in degs_b}
        assert degs_ab <= allowed

    def test_expectation_examples(self):
        amb = LOOP_AMB
        assert expectation(gen(amb, ("e0",))).is_zero()
        p = gen(amb, ("e0",), ("e0",))
        assert expectation(p).equals(p)

    def test_kgraph_grading_tuple_keys(self):
        g = torus_2graph()
        a = gen(g, ("e",)) + gen(g, ("f",))
        assert set(grade(a)) == {(1, 0), (0, 1)}


class TestLocalUnits:
    def test_edge_unit(self):
        amb = TREE_AMB
        s = gen(amb, ("e1",))
        phi = local_unit([s])
        assert (phi * s).equals(s)
        assert (s * phi).equals(s)
        assert (phi * phi).equals(phi)
        assert phi.involution().equals(phi)

    def test_vertex_unit(self):
        amb = TREE_AMB
        p = AlgebraElement.vertex(amb, "b")
        assert local_unit([p]).equals(p)

    @given(small_elements(TREE_AMB, TREE_KEYS))
    @settings(max_examples=40, deadline=None)
    def test_local_unit_acts_as_identity(self, a):
        if a.is_zero():
            return
        phi = local_unit([a])
        assert (phi * a).equals(a)
        assert (a * phi).equals(a)


class TestDiracCommutator:
    def test_vertex_commutes(self):
        assert dirac_commutator(AlgebraElement.vertex(LOOP_AMB, "v0")).is_zero()

    def test_edge_degree_one(self):
        amb = LOOP_AMB
        e = gen(amb, ("e0",))
        assert dirac_commutator(e).equals(e)

    def test_k2_clifford_weight(self):
        g = torus_2graph()
        out = dirac_commutator(gen(g, ("e",)))
        assert set(out) == {1}
        assert out[1].equals(gen(g, ("e",)).scale(I))

    def test_sum_rule_identity(self):
        # sum_e S_e*[D,S_e] = sum_e S_e* S_e = sum of range projections
        amb = tree_with_ends(2).expand(1)
        total = AlgebraElement.zero(amb)
        expected = AlgebraElement.zero(amb)
        for eid in amb.edge_order:
            s = gen(amb, (eid,))
            total = total + s.involution() * dirac_commutator(s)
            expected = expected + AlgebraElement.vertex(
                amb, amb.edge_range(eid))
        assert total.equals(expected)


class TestDeltaAction:
    def test_vertex_bound_zero(self):
        res = delta_action(AlgebraElement.vertex(LOOP_AMB, "v0"), 1)
        assert res["bounded"] and res["norm_bound"] == 0

    def test_edge_bound_one_matches_window_oracle(self):
        res = delta_action(gen(LOOP_AMB, ("e0",)), 1)
        oracle = max(abs(abs(m + 1) - abs(m)) for m in range(-50, 51))
        assert res["norm_bound"] == oracle == 1

    def test_delta_cubed_length_two(self):
        res = delta_action(gen(LOOP_AMB, ("e0", "e0")), 3)
        oracle = max(abs(abs(m + 2) - abs(m)) for m in range(-50, 51)) ** 3
        assert res["norm_bound"] == oracle == 8
        assert res["norm_bound_sq"] == 64

    def test_kgraph_bound_is_euclidean(self):
        g = torus_2graph()
        a = gen(g, ("e", "f"))  # degree (1,1)
        res = delta_action(a, 2)
        assert res["norm_bound_sq"] == Fraction(4)  # (|n|_2^2)^order = 2^2


class TestSerialization:
    def test_roundtrip(self):
        amb = TREE_AMB
        a = gen(amb, ("e1",)).scale(GaussianRational(Fraction(2, 3), 1)) + \
            AlgebraElement.vertex(amb, "b")
        b = AlgebraElement.from_json(amb, a.to_json())
        assert b.equals(a)

    def test_vertex_field_required_for_projections(self):
        amb = TREE_AMB
        with pytest.raises(ValueError):
            AlgebraElement.from_json(
                amb, [{"mu": [], "nu": [], "re": "1", "im": "0"}]
            )


def _reference_product(ambient, k1, k2):
    """The product as three branches: nu1 = mu2 x, mu2 = nu1 x, or (k-graphs
    only) a sum over the minimal common extensions of nu1 and mu2."""
    mu1, nu1, v1 = k1
    mu2, nu2, v2 = k2
    s_nu1 = key_source_nu(ambient, k1)
    s_mu2 = key_source_mu(ambient, k2)

    def rebuild(mu, nu, v):
        return make_key(ambient, mu, nu) if mu or nu else ((), (), v)

    x = _prefix_divide(ambient, nu1, s_nu1, mu2, s_mu2)
    if x is not None:
        nu = ambient.compose(nu2, x)
        return [] if nu is None else [rebuild(mu1, nu, v1)]
    x = _prefix_divide(ambient, mu2, s_mu2, nu1, s_nu1)
    if x is not None:
        mu = ambient.compose(mu1, x)
        return [] if mu is None else [rebuild(mu, nu2, v2)]
    if ambient.k == 1:
        return []
    dn, dm = ambient.degree(nu1), ambient.degree(mu2)
    ext = tuple(max(a, b) - a for a, b in zip(dn, dm))
    anchor = ambient.path_range(nu1) if nu1 else v1
    out = []
    for xi in ambient.paths_with_degree(ext, anchor, "out-of", max_level=max(ext)):
        full = ambient.compose(nu1, xi)
        if full is None:
            continue
        eta = _prefix_divide(ambient, full, s_nu1, mu2, s_mu2)
        if eta is None:
            continue
        mu = ambient.compose(mu1, xi)
        nu = ambient.compose(nu2, eta)
        if mu is not None and nu is not None:
            out.append(rebuild(mu, nu, v2))
    return out


KERNEL_CASES = {
    "torus": (torus_2graph, solve_kgraph_trace, 1),
    "two_vertex": (two_vertex_2graph, solve_kgraph_trace, 1),
    "3graph": (one_vertex_3graph, solve_kgraph_trace, 1),
    "tree2": (lambda: tree_with_ends(2), solve_graph_trace, 2),
    "torus_L2": (torus_2graph, solve_kgraph_trace, 2),
}


class TestMeetTableKernel:
    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_matches_three_branch_reference(self, name):
        make, solve, level = KERNEL_CASES[name]
        g = make()
        tr = build_truncation(g, solve(g), level)
        amb = tr.ambient
        for kg in generator_keys(amb, 1):
            for kz in tr.basis:
                for k1, k2 in ((kg, kz), (kz, kg)):
                    assert sorted(_multiply_keys(amb, k1, k2)) == sorted(
                        _reference_product(amb, k1, k2)), (k1, k2)

    def test_two_extensions_match_reference(self):
        amb = two_extension_2graph()
        gens = generator_keys(amb, 1)
        two_terms = 0
        for k1 in gens:
            for k2 in gens:
                got = _multiply_keys(amb, k1, k2)
                assert sorted(got) == sorted(_reference_product(amb, k1, k2))
                two_terms += len(got) == 2
        assert two_terms
        assert _multiply_keys(amb, ((), ("e1",), "v"), (("f1",), (), "v")) == [
            (("f1",), ("e1",), "v"), (("f2",), ("e2",), "v")]


def _tuple_route_product(ambient, k1, k2):
    """The product on generator keys with no id table: the meet of nu1 and
    mu2, then compose and make_key on the words."""
    mu1, nu1, v1 = k1
    mu2, nu2, v2 = k2
    out = []
    for xi, eta in _meet(ambient, nu1, v1, mu2, v2):
        mu = ambient.compose(mu1, xi) if xi else mu1
        nu = ambient.compose(nu2, eta) if eta else nu2
        if mu is None or nu is None:
            continue
        out.append(make_key(ambient, mu, nu) if mu or nu else ((), (), v1))
    return out


class TestInternedKernel:
    @staticmethod
    def _id_product(amb, k1, k2):
        kern = kernel(amb)
        ids = kern.product(kern.key_id(k1), kern.key_id(k2))
        return [kern.keys[k] for k in ids]

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_matches_tuple_route(self, name):
        make, solve, level = KERNEL_CASES[name]
        g = make()
        tr = build_truncation(g, solve(g), level)
        amb = tr.ambient
        for kg in generator_keys(amb, 1):
            for kz in tr.basis:
                for k1, k2 in ((kg, kz), (kz, kg)):
                    assert self._id_product(amb, k1, k2) == \
                        _tuple_route_product(amb, k1, k2), (k1, k2)
        assert len(amb._product_cache) == len(kernel(amb).products) > 0

    def test_two_term_meets_match_tuple_route(self):
        amb = two_extension_2graph()
        gens = generator_keys(amb, 1)
        two_terms = 0
        for k1 in gens:
            for k2 in gens:
                got = self._id_product(amb, k1, k2)
                assert got == _tuple_route_product(amb, k1, k2), (k1, k2)
                two_terms += len(got) == 2
        assert two_terms

    def test_equal_paths_share_ids(self):
        amb = torus_2graph()
        kern = kernel(amb)
        e, f = ("e",), ("f",)
        ef = kern.compose(kern.word_id(e), kern.word_id(f))
        a, b = amb._swap[("e", "f")]
        ba = kern.compose(kern.word_id((a,)), kern.word_id((b,)))
        assert ef == ba == kern.word_id(amb.normal(("e", "f")))

    def test_empty_word_has_one_id_per_vertex(self):
        amb = two_vertex_2graph()
        kern = kernel(amb)
        u, w = kern.word_id((), "u"), kern.word_id((), "w")
        assert u != w and kern.word_range[u] == "u"
        assert kern.word_id((), "u") == u
        # S_a* S_a = p_w for the edge a: u -> w, with p_w not yet interned
        assert ((), (), "w") not in kern.key_ids
        assert _multiply_keys(amb, ((), ("a",), "w"), (("a",), (), "w")) == [
            ((), (), "w")]
