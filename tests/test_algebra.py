import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtriple import algebra
from graphtriple.algebra import (AlgebraElement, PresentationMismatchError,
                                 _expansion_family, _meet, _multiply_keys,
                                 _prefix_divide, accumulate, aligned,
                                 key_source_mu, key_source_nu, make_key)
from graphtriple.scalars import GaussianRational, I
from graphtriple.spectral import build_truncation, generator_keys
from graphtriple.traces import solve_graph_trace, solve_kgraph_trace

from corpus import (bi_infinite_path, double_entry_tree, one_vertex_3graph,
                    single_loop, sink_path, torus_2graph, tree_with_ends,
                    two_extension_2graph, two_vertex_2graph)
from oracles import delta_action, dirac_commutator, local_unit


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
            gen(loop_ambient(), ("e0",)) * AlgebraElement.vertex(
                tree_ambient(), "b")

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
            into.extend(amb.paths_with_degree((j,), w, "into"))
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
        assert set(gen(amb, ("e0",)).grade()) == {1}

    def test_vertex_degree_zero(self):
        assert set(AlgebraElement.vertex(LOOP_AMB, "v0").grade()) == {0}

    def test_mixed_degrees_split(self):
        amb = TREE_AMB
        a = gen(amb, ("e1",)) + gen(amb, ("e1",), ("e1",))
        parts = a.grade()
        assert set(parts) == {0, 1}

    def test_phi_idempotent_orthogonal(self):
        amb = TREE_AMB
        a = gen(amb, ("e1",)) + gen(amb, ("e1",), ("e1",))
        assert a.component(1).component(1).equals(a.component(1))
        assert a.component(1).component(0).is_zero()
        total = AlgebraElement.zero(amb)
        for part in a.grade().values():
            total = total + part
        assert total.equals(a)

    @given(small_elements(TREE_AMB, TREE_KEYS),
           small_elements(TREE_AMB, TREE_KEYS))
    @settings(max_examples=40, deadline=None)
    def test_grading_multiplicative(self, a, b):
        degs_a = {d for d, p in a.grade().items() if not p.is_zero()}
        degs_b = {d for d, p in b.grade().items() if not p.is_zero()}
        degs_ab = {d for d, p in (a * b).grade().items() if not p.is_zero()}
        allowed = {da + db for da in degs_a for db in degs_b}
        assert degs_ab <= allowed

    def test_expectation_examples(self):
        amb = LOOP_AMB
        assert gen(amb, ("e0",)).expectation().is_zero()
        p = gen(amb, ("e0",), ("e0",))
        assert p.expectation().equals(p)

    def test_kgraph_grading_tuple_keys(self):
        g = torus_2graph()
        a = gen(g, ("e",)) + gen(g, ("f",))
        assert set(a.grade()) == {(1, 0), (0, 1)}


TORUS = torus_2graph()
TORUS_KEYS = generator_keys(TORUS, 1)


class TestAligned:
    def test_accumulate_drops_zero_sums(self):
        terms = {}
        accumulate(terms, "a", 0)
        accumulate(terms, "b", GaussianRational(0))
        assert terms == {}
        accumulate(terms, "a", 2)
        accumulate(terms, "a", GaussianRational(-2))
        assert terms == {}
        accumulate(terms, "a", GaussianRational(1, 1))
        assert terms == {"a": GaussianRational(1, 1)}

    def test_ck_relation_aligns_to_zero(self):
        amb = LOOP_AMB
        pv, ee = ((), (), "v0"), (("e0",), ("e0",), "v0")
        assert aligned(amb, {pv: 1, ee: -1}) == {}
        assert aligned(amb, {pv: GaussianRational(0, 1),
                             ee: GaussianRational(0, -1)}) == {}

    @pytest.mark.parametrize("amb,keys", [(TREE_AMB, TREE_KEYS),
                                          (TORUS, TORUS_KEYS)],
                             ids=["tree", "torus"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_int_and_gaussian_match_aligned_terms(self, amb, keys, data):
        counts = {}
        for key, c in data.draw(st.lists(
                st.tuples(st.sampled_from(keys), st.integers(-2, 2)),
                max_size=6)):
            accumulate(counts, key, c)
        phase = GaussianRational(Fraction(1, 2), Fraction(-3, 2))
        want = AlgebraElement(
            amb, {k: GaussianRational(c) for k, c in counts.items()}
        ).aligned_terms()
        got_int = aligned(amb, counts)
        got_gauss = aligned(amb, {k: phase * c for k, c in counts.items()})
        assert set(got_int) == set(got_gauss) == set(want)
        assert all(got_int[k] == want[k] for k in want)
        assert all(got_gauss[k] == phase * want[k] for k in want)


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
    for xi in ambient.paths_with_degree(ext, anchor, "out-of"):
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
    "sink_path": (sink_path, solve_graph_trace, 2),
    "bi_infinite_path": (bi_infinite_path, solve_graph_trace, 2),
    "double_entry_tree": (double_entry_tree, solve_graph_trace, 2),
    "loop1": (lambda: single_loop(1), solve_graph_trace, 2),
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
        assert _multiply_keys(amb, ((), ("e1",), "v"), (("f1",), (), "v")) == (
            (("f1",), ("e1",), "v"), (("f2",), ("e2",), "v"))

    def test_expansion_stops_at_a_sink(self):
        # sink_path: v -e-> w with w a sink, fed by a source tail at v
        amb = sink_path().expand(2)
        assert _expansion_family(amb, "v", (2,)) == [("e",)]
        assert _expansion_family(amb, "w", (1,)) == [()]
        assert _expansion_family(amb, "v~s1", (3,)) == [("v~se1", "e")]
        assert _expansion_family(amb, "v", (0,)) == [()]

    def test_expansion_matches_paths_with_degree_on_kgraphs(self):
        for g in (torus_2graph(), two_extension_2graph(), two_vertex_2graph()):
            for v in g.vertices:
                for n in ((0, 0), (1, 0), (0, 2), (2, 1)):
                    assert _expansion_family(g, v, n) == g.paths_with_degree(
                        n, v, "out-of")

    def test_meet_on_comparable_degrees_is_a_prefix_test(self):
        # comparable degrees: a minimal common extension has the larger
        # degree, so nu1 xi = mu2 eta with xi or eta a vertex.  The meet is
        # the prefix pair or empty, and the reference's sum over extensions
        # finds nothing more.
        amb = two_extension_2graph()
        assert _meet(amb, ("e1",), "v", ("e1", "f1"), "v") == [(("f1",), ())]
        assert _meet(amb, ("e1", "f1"), "v", ("e1",), "v") == [((), ("f1",))]
        assert _meet(amb, ("e2",), "v", ("e1", "f1"), "v") == []
        assert _meet(amb, ("e1",), "v", ("e2",), "v") == []
        words = [w for d in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1))
                 for w in amb.paths_with_degree(d, "v", "out-of")]
        sizes = set()
        for nu1 in words:
            for mu2 in words:
                dn, dm = amb.degree(nu1), amb.degree(mu2)
                if not (all(a <= b for a, b in zip(dn, dm))
                        or all(a >= b for a, b in zip(dn, dm))):
                    continue
                got = _meet(amb, nu1, "v", mu2, "v")
                assert len(got) <= 1
                assert all(not xi or not eta for xi, eta in got)
                k1, k2 = ((), nu1, "v"), (mu2, (), "v")
                assert sorted(_multiply_keys(amb, k1, k2)) == sorted(
                    _reference_product(amb, k1, k2)), (nu1, mu2)
                sizes.add(len(got))
        assert sizes == {0, 1}


def _tuple_route_product(ambient, k1, k2):
    """The product on generator keys with no memo: the meet of nu1 and mu2,
    then compose and make_key on the words."""
    mu1, nu1, v1 = k1
    mu2, nu2, v2 = k2
    out = []
    for xi, eta in _meet(ambient, nu1, v1, mu2, v2):
        mu = ambient.compose(mu1, xi) if xi else mu1
        nu = ambient.compose(nu2, eta) if eta else nu2
        if mu is None or nu is None:
            continue
        out.append(make_key(ambient, mu, nu) if mu or nu else ((), (), v1))
    return tuple(out)


class TestMemoizedProduct:
    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_matches_tuple_route(self, name):
        make, solve, level = KERNEL_CASES[name]
        g = make()
        tr = build_truncation(g, solve(g), level)
        amb = tr.ambient
        for kg in generator_keys(amb, 1):
            for kz in tr.basis:
                for k1, k2 in ((kg, kz), (kz, kg)):
                    assert _multiply_keys(amb, k1, k2) == \
                        _tuple_route_product(amb, k1, k2), (k1, k2)
        memo = amb._product_cache
        assert memo and all(prods == _tuple_route_product(amb, *pair)
                            for pair, prods in memo.items())

    def test_two_term_meets_match_tuple_route(self):
        amb = two_extension_2graph()
        gens = generator_keys(amb, 1)
        two_terms = 0
        for k1 in gens:
            for k2 in gens:
                got = _multiply_keys(amb, k1, k2)
                assert got == _tuple_route_product(amb, k1, k2), (k1, k2)
                two_terms += len(got) == 2
        assert two_terms

    def test_memo_forms_each_pair_once(self, monkeypatch):
        amb = two_extension_2graph()
        misses = []
        uncached = algebra._multiply_keys_uncached

        def counting(ambient, k1, k2):
            misses.append((k1, k2))
            return uncached(ambient, k1, k2)

        monkeypatch.setattr(algebra, "_multiply_keys_uncached", counting)
        k1, k2 = ((), ("e1",), "v"), (("f1",), (), "v")
        first = _multiply_keys(amb, k1, k2)
        assert _multiply_keys(amb, k1, k2) is first
        assert isinstance(first, tuple) and misses == [(k1, k2)]
        assert amb._product_cache == {(k1, k2): first}

    def test_equal_paths_give_one_key(self):
        amb = torus_2graph()
        a, b = amb._swap[("e", "f")]
        ef = make_key(amb, ("e", "f"), ())
        assert ef == make_key(amb, (a, b), ())
        assert ef[0] == amb.normal(("e", "f"))
        s_e, s_f = make_key(amb, ("e",), ()), make_key(amb, ("f",), ())
        s_a, s_b = make_key(amb, (a,), ()), make_key(amb, (b,), ())
        assert _multiply_keys(amb, s_e, s_f) == _multiply_keys(amb, s_a, s_b) \
            == (ef,)

    def test_vertex_paths_multiply_per_vertex(self):
        amb = two_vertex_2graph()
        p_u, p_w = ((), (), "u"), ((), (), "w")
        assert _multiply_keys(amb, p_u, p_u) == (p_u,)
        assert _multiply_keys(amb, p_u, p_w) == ()
        # S_a* S_a = p_w for the edge a: u -> w
        assert _multiply_keys(amb, ((), ("a",), "w"), (("a",), (), "w")) == (
            p_w,)
