import random
from fractions import Fraction

import pytest

from graphtriple import spectral
from graphtriple.algebra import (AlgebraElement, _multiply_keys, kernel,
                                 key_degree)
from graphtriple.scalars import GaussianRational
from graphtriple.spectral import (DecompositionError, ThetaSum, Truncation,
                                  build_D,
                                  build_truncation, closedness_eval,
                                  commutant_probe, decompose_projection,
                                  decompose_projection_kgraph,
                                  direct_summation_oracle, first_order_check,
                                  first_order_left_counterexample,
                                  generator_keys, kgraph_lattice_profile,
                                  reality_check_1graph, semifinite_trace,
                                  singular_profile, spin_c_generation_check,
                                  to_basis_coordinates, total_multiplicities,
                                  vertex_multiplicities)
from graphtriple.traces import (solve_graph_trace, solve_kgraph_trace,
                                trace_functional)

from corpus import (bi_infinite_path, single_loop, torus_2graph,
                    tree_with_ends, two_disjoint_loops, two_extension_2graph,
                    two_vertex_2graph)


def first_order_oracle(tr, max_generator_length=1):
    """The plain (b, z, a) triple loop that `first_order_check` replaced:
    a(zb) and (az)b formed for every triple, with no product index.
    Products go through the generator key boundary _multiply_keys, which
    reads the ambient's product memo, so a product seeded there reaches the
    oracle and the checked function alike."""
    amb = tr.ambient
    gens = generator_keys(amb, max_generator_length)
    weights = {}
    for ka in gens:
        deg_a = key_degree(amb, ka)
        weights[ka] = deg_a[0] if amb.k == 1 else sum(deg_a)
    failures = []
    for kb in gens:
        for kz in tr.basis:
            zb = _multiply_keys(amb, kz, kb)
            for ka in gens:
                az = _multiply_keys(amb, ka, kz)
                left = [k2 for k1 in zb
                        for k2 in _multiply_keys(amb, ka, k1)]
                right = [k2 for k1 in az
                         for k2 in _multiply_keys(amb, k1, kb)]
                if left == right or sorted(left) == sorted(right):
                    continue
                if spectral._keys_difference(amb, left, right).is_zero():
                    continue
                failures.append({"kind": "[a,b_op]", "a": ka, "b": kb, "z": kz})
                if weights[ka]:
                    failures.append(
                        {"kind": "[[D,a],b_op]", "a": ka, "b": kb, "z": kz}
                    )
    return {"pass": not failures, "failures": failures, "generators": len(gens)}


def sparse_matrix_oracle(tr, op, side):
    """Columns of left/right multiplication by op through element products
    and `to_basis_coordinates`, the route `_sparse_matrix` replaced."""
    cols = []
    for key in tr.basis:
        z = AlgebraElement(tr.ambient, {key: GaussianRational(1)})
        coords, _ = to_basis_coordinates(tr, op * z if side == "left" else z * op)
        cols.append({i: c.re for i, c in coords.items() if c.re})
    return cols


def torus_setup(level=2):
    g = torus_2graph()
    t = solve_kgraph_trace(g)
    return g, t, build_truncation(g, t, level)


def loop_setup(level=3):
    g = single_loop(1)
    t = solve_graph_trace(g)
    return g, t, build_truncation(g, t, level)


def tree_setup(level=3):
    g = tree_with_ends(2)
    t = solve_graph_trace(g)
    return g, t, build_truncation(g, t, level)


class TestTruncation:
    def test_loop_basis_one_vector_per_degree(self):
        _, _, tr = loop_setup(2)
        degrees = sorted(key_degree(tr.ambient, k)[0] for k in tr.basis)
        assert degrees == [-2, -1, 0, 1, 2]
        assert all(g == 1 for g in tr.gram)

    def test_basis_orthogonality(self):
        g, t, tr = tree_setup(2)
        amb = tr.ambient
        for i, k1 in enumerate(tr.basis):
            z1 = AlgebraElement(amb, {k1: GaussianRational(1)})
            for j, k2 in enumerate(tr.basis):
                z2 = AlgebraElement(amb, {k2: GaussianRational(1)})
                ip = trace_functional(t, z1.involution() * z2)
                if i == j:
                    assert ip == GaussianRational(tr.gram[i])
                else:
                    assert ip.is_zero()

    def test_torus_basis_size_matches_enumeration_oracle(self):
        g = torus_2graph()
        t = solve_kgraph_trace(g)
        tr = build_truncation(g, t, 1)
        count = 0
        box = [(a, b) for a in (0, 1) for b in (0, 1)]
        for da in box:
            for db in box:
                if max(da[0], db[0]) == 1 and max(da[1], db[1]) == 1:
                    mus = g.paths_with_degree(da, "v", "into")
                    nus = g.paths_with_degree(db, "v", "into")
                    count += len(mus) * len(nus)
        assert len(tr.basis) == count

    def test_short_generator_expands_to_basis(self):
        g, t, tr = loop_setup(2)
        amb = tr.ambient
        coords, leaked = to_basis_coordinates(
            tr, AlgebraElement.vertex(amb, "v0")
        )
        assert not leaked
        # p_v = S_ee S_ee* at the aligned depth: a single basis vector
        assert len(coords) == 1

    def test_D_degrees_and_symmetry(self):
        _, _, tr = loop_setup(2)
        D = build_D(tr)
        assert D.is_symmetric()
        for key in tr.basis:
            assert D.degree(key) == key_degree(tr.ambient, key)[0]


class TestThetaDecompositions:
    def test_vertex_block(self):
        g, t, tr = tree_setup(2)
        theta = decompose_projection("b", 0, tr)
        assert semifinite_trace(theta, t) == GaussianRational(2)

    def test_positive_and_negative_degrees(self):
        g, t, tr = tree_setup(3)
        for k in range(-3, 4):
            theta = decompose_projection("b", k, tr)
            assert semifinite_trace(theta, t) == GaussianRational(2), k

    def test_rank_one_value(self):
        g, t, tr = tree_setup(2)
        amb = tr.ambient
        mu = amb.paths_from("b", 1)[0]
        x = AlgebraElement.generator(amb, mu, ())
        theta = ThetaSum([(GaussianRational(1), x, x)])
        # tau~(Theta_{S_mu,S_mu}) = tau(p_{r(mu)})
        assert semifinite_trace(theta, t) == GaussianRational(
            t.vertex_value(amb.path_range(mu))
        )

    def test_validation_catches_wrong_family(self):
        g, t, tr = tree_setup(2)
        amb = tr.ambient
        x = AlgebraElement.vertex(amb, "b")
        theta = ThetaSum([(GaussianRational(2), x, x)])  # wrong coefficient
        with pytest.raises(DecompositionError):
            from graphtriple.spectral import _validate_projection_decomposition
            _validate_projection_decomposition(theta, "b", (0,), tr)

    def test_traciality_on_composed_theta_sums(self):
        g, t, tr = tree_setup(2)
        amb = tr.ambient
        one = GaussianRational(1)
        a = ThetaSum([(one, AlgebraElement.vertex(amb, "b"),
                       AlgebraElement.vertex(amb, "b"))])
        mu = amb.paths_from("b", 1)[0]
        x = AlgebraElement.generator(amb, mu, ())
        b = ThetaSum([(one, x, x)])
        ab = a.compose(b)
        ba = b.compose(a)
        assert semifinite_trace(ab, t) == semifinite_trace(ba, t)

    def test_kgraph_decomposition(self):
        g = torus_2graph()
        t = solve_kgraph_trace(g)
        tr = build_truncation(g, t, 2)
        for deg in [(0, 0), (1, 0), (0, -1), (1, -1), (2, 1)]:
            theta = decompose_projection_kgraph("v", deg, tr)
            assert semifinite_trace(theta, t) == GaussianRational(1), deg


class TestMultiplicities:
    def test_loop_all_one(self):
        g = single_loop(1)
        t = solve_graph_trace(g)
        m = vertex_multiplicities(g, t, "v0")
        assert all(m.mass(k) == 1 for k in range(-10, 11))

    def test_matches_theta_route(self):
        g, t, tr = tree_setup(3)
        m = vertex_multiplicities(g, t, "b")
        for k in range(-3, 4):
            theta = decompose_projection("b", k, tr)
            assert GaussianRational(m.mass(k)) == semifinite_trace(theta, t)

    def test_sink_cuts_forward_mass(self):
        from corpus import sink_path
        g = sink_path()
        t = solve_graph_trace(g)
        m = vertex_multiplicities(g, t, "v")
        assert m.mass(0) == 1
        assert m.mass(1) == 1  # one step lands on the sink
        assert m.mass(2) == 0

    def test_total_requires_unital(self):
        g = bi_infinite_path()
        t = solve_graph_trace(g)
        with pytest.raises(ValueError):
            total_multiplicities(g, t)


class TestProfiles:
    def test_circle_small_window_against_oracle(self):
        g = single_loop(1)
        t = solve_graph_trace(g)
        model = total_multiplicities(g, t)
        prof = singular_profile(model, 20000)
        oracle = direct_summation_oracle(model, 20000)
        assert abs(prof.diagnostics["raw_F_at_window"] - oracle) < 1e-9
        assert abs(prof.limit_estimate - 2.0) < 0.02

    def test_window_guard(self):
        g = single_loop(1)
        t = solve_graph_trace(g)
        prof = singular_profile(total_multiplicities(g, t), 50)
        assert prof.limit_estimate is None
        assert "error" in prof.diagnostics

    def test_csv_and_json_shapes(self):
        g = single_loop(1)
        t = solve_graph_trace(g)
        prof = singular_profile(total_multiplicities(g, t), 1000)
        assert prof.to_csv().startswith("t,F_T")
        doc = prof.to_json()
        assert set(doc) >= {"window", "limit", "band", "samples"}

    def test_kgraph_lattice_profile_positive(self):
        g = torus_2graph()
        t = solve_kgraph_trace(g)
        prof = kgraph_lattice_profile(g, t, window=48)
        assert prof.limit_estimate > 0

    def test_zeta_residue_agrees_with_half_limit(self):
        # (s - 1/2) * sum m_k (1+k^2)^{-s} at s = 1/2 + 1/log N is within
        # 10% of half the F_T limit
        g = single_loop(1)
        t = solve_graph_trace(g)
        prof = singular_profile(total_multiplicities(g, t), 10 ** 6)
        half = prof.limit_estimate / 2.0
        assert abs(prof.zeta_residue - half) <= 0.10 * half

    def test_monotone_trend_and_three_figure_stability(self):
        # beyond a threshold the circle F_T samples decrease toward the
        # limit, and the estimate stabilizes to 3 significant figures
        # between N and 2N at N = 10^6
        g = single_loop(1)
        t = solve_graph_trace(g)
        model = total_multiplicities(g, t)
        prof1 = singular_profile(model, 10 ** 6)
        prof2 = singular_profile(model, 2 * 10 ** 6)
        tail = [f for _, f in prof1.f_samples[-12:]]
        assert all(a >= b for a, b in zip(tail, tail[1:]))
        assert all(f >= prof1.limit_estimate - 1e-6 for f in tail)
        assert round(prof1.limit_estimate, 3) == round(prof2.limit_estimate, 3)


class TestClosedness:
    def test_gauge_route_zero(self):
        g, t, tr = tree_setup(2)
        amb = tr.ambient
        rng = random.Random(7)
        keys = generator_keys(amb, 2)
        for _ in range(50):
            key = rng.choice(keys)
            a = AlgebraElement(amb, {key: GaussianRational(1)})
            res = closedness_eval(g, t, [a])
            assert res["route"] == "gauge" and res["is_zero"]

    def test_determinant_route(self):
        g = torus_2graph()
        t = solve_kgraph_trace(g)
        a1 = AlgebraElement.generator(g, ("e",), ("f",))  # degree (1,-1)
        a2 = AlgebraElement.generator(g, ("f",), ("e",))  # degree (-1,1)
        res = closedness_eval(g, t, [a1, a2])
        assert res["route"] == "determinant"
        assert res["det"] == 0  # columns sum to zero
        assert res["columns_sum_zero"]
        assert res["is_zero"]

    def test_trace_factor_kills_nonzero_det(self):
        g = torus_2graph()
        t = solve_kgraph_trace(g)
        a1 = AlgebraElement.generator(g, ("e",), ())  # degree (1,0)
        a2 = AlgebraElement.generator(g, ("f",), ())  # degree (0,1)
        res = closedness_eval(g, t, [a1, a2])
        assert res["det"] == 1
        assert res["trace_factor"].is_zero()
        assert res["is_zero"]


class TestFirstOrderAndFriends:
    @pytest.mark.parametrize("setup", [loop_setup, tree_setup])
    def test_first_order(self, setup):
        _, _, tr = setup(3)
        assert first_order_check(tr)["pass"]

    def test_first_order_torus(self):
        g = torus_2graph()
        t = solve_kgraph_trace(g)
        tr = build_truncation(g, t, 2)
        assert first_order_check(tr)["pass"]

    @staticmethod
    def _corrupt_product(amb, ka, kz, wrong):
        """Make a.z return `wrong` by seeding the ambient's product memo;
        every other product stays exact."""
        kern = kernel(amb)
        kern.products[kern.key_id(ka), kern.key_id(kz)] = tuple(
            kern.key_id(key) for key in wrong)

    def test_first_order_fails_on_corrupted_single_key_product(self):
        _, _, tr = loop_setup(2)
        amb = tr.ambient
        ka = kb = (("e0",), (), "v0")
        kz = (("e0", "e0"), (), "v0")
        assert kz in tr.basis and first_order_check(tr)["pass"]
        # a.z = S_e^3 reported as S_e^2: a(zb) = S_e^4 but (az)b = S_e^3
        self._corrupt_product(amb, ka, kz, [kz])
        result = first_order_check(tr)
        assert not result["pass"]
        for kind in ("[a,b_op]", "[[D,a],b_op]"):
            assert {"kind": kind, "a": ka, "b": kb, "z": kz} in result["failures"]

    def test_first_order_fails_on_corrupted_multi_term_product(self):
        amb = two_extension_2graph()
        ka = ((), ("e1",), "v")
        kz = (("f1",), (), "v")
        kb = (("e2",), (), "v")
        basis = (((), (), "v"), kz)
        tr = Truncation(amb, None, 1, basis, (1, 1))
        assert first_order_check(tr)["pass"]
        # S_e1* S_f1 = S_f1 S_e1* + S_f2 S_e2*; pair the extensions wrongly
        assert len(_multiply_keys(amb, ka, kz)) == 2
        self._corrupt_product(amb, ka, kz, [
            (("f1",), ("e2",), "v"), (("f2",), ("e1",), "v")])
        result = first_order_check(tr)
        assert not result["pass"]
        assert {"kind": "[a,b_op]", "a": ka, "b": kb, "z": kz} in result["failures"]

    @pytest.mark.parametrize("setup", [loop_setup, tree_setup, torus_setup])
    def test_first_order_matches_triple_loop_oracle(self, setup):
        _, _, tr = setup()
        assert first_order_check(tr) == first_order_oracle(tr)

    def test_index_reaches_triples_with_zero_products(self):
        # p_b . S_nu* is zero because nu starts at b~s1, not at b; a
        # nonzero a.z there must still reach the comparison
        _, _, tr = tree_setup(2)
        amb = tr.ambient
        ka = ((), (), "b")
        kz = ((), ("b~se1", "e1"), "c1")
        assert kz in tr.basis and _multiply_keys(amb, ka, kz) == []
        self._corrupt_product(amb, ka, kz, [kz])
        result = first_order_check(tr)
        assert result == first_order_oracle(tr)
        assert not result["pass"]
        assert all(f["kind"] == "[a,b_op]" for f in result["failures"])
        assert {(f["a"], f["z"]) for f in result["failures"]} == {(ka, kz)}

    def test_reality_fails_on_corrupted_product(self):
        _, _, tr = loop_setup(2)
        amb = tr.ambient
        ka = (("e0",), (), "v0")
        kz = (("e0", "e0"), (), "v0")
        assert kz in tr.basis and reality_check_1graph(tr)["pass"]
        # z.a = S_e^3 reported as S_e^2, while (a* z*)* stays S_e^3
        self._corrupt_product(amb, kz, ka, [kz])
        result = reality_check_1graph(tr)
        assert not result["pass"]
        assert result["failures"] == [{"kind": "Ja*J=a_op", "a": ka, "z": kz}]

    def test_left_action_counterexample_on_tree(self):
        _, _, tr = tree_setup(2)
        witness = first_order_left_counterexample(tr)
        assert witness is not None

    def test_reality(self):
        for setup in (loop_setup, tree_setup):
            _, _, tr = setup(2)
            assert reality_check_1graph(tr)["pass"]

    def test_spin_c_k1(self):
        _, _, tr = tree_setup(2)
        rep = spin_c_generation_check(tr)
        assert rep["pass"] and rep["mode"] == "commutators-in-algebra"

    def test_spin_c_k2(self):
        g = torus_2graph()
        t = solve_kgraph_trace(g)
        tr = build_truncation(g, t, 1)
        rep = spin_c_generation_check(tr)
        assert rep["pass"] and rep["dimension"] == 4


class TestCommutant:
    def test_loop_scalars(self):
        _, _, tr = loop_setup(3)
        assert commutant_probe(tr)["dimension_interior"] == 1

    def test_disconnected_two_loops(self):
        g = two_disjoint_loops()
        t = solve_graph_trace(g)
        tr = build_truncation(g, t, 3)
        assert commutant_probe(tr)["dimension_interior"] == 2

    def test_two_end_tree_scalars(self):
        _, _, tr = tree_setup(2)
        assert commutant_probe(tr)["dimension_interior"] == 1

    def test_torus_scalars(self):
        g = torus_2graph()
        t = solve_kgraph_trace(g)
        tr = build_truncation(g, t, 2)
        assert commutant_probe(tr)["dimension_interior"] == 1

    @pytest.mark.parametrize("setup", [tree_setup, torus_setup])
    def test_sparse_matrix_matches_element_route(self, setup):
        _, _, tr = setup(2)
        amb = tr.ambient
        ops = []
        for eid in amb.edge_order:
            s_e = AlgebraElement.generator(amb, (eid,), ())
            ops += [s_e, s_e.involution(), s_e * s_e.involution()]
        ops += [AlgebraElement.vertex(amb, v) for v in amb.vertices]
        # cancelling and non-unit coefficients
        ops.append(ops[2].scale(3) - ops[-1] + ops[1].scale(Fraction(1, 2)))
        for op in ops:
            for side in ("left", "right"):
                assert (spectral._sparse_matrix(tr, op, side)
                        == sparse_matrix_oracle(tr, op, side)), (op, side)

    @pytest.mark.parametrize("setup", [tree_setup, torus_setup])
    def test_aligned_commutator_matches_element_route(self, setup):
        _, _, tr = setup(2)
        amb = tr.ambient
        diag = [key for key in generator_keys(amb, 1) if key[0] == key[1]]
        for eid in amb.edge_order:
            s_e = AlgebraElement.generator(amb, (eid,), ())
            for g in (s_e, s_e.involution()):
                (kg,) = g.terms
                for kf in diag:
                    f = AlgebraElement(amb, {kf: GaussianRational(1)})
                    want = {k: c.re for k, c in
                            (f * g - g * f).aligned_terms().items()}
                    assert spectral._aligned_commutator(amb, kf, kg) == want

    def test_row_index_product_matches_dense(self):
        rng = random.Random(3)
        n = 7

        def entry():
            return Fraction(rng.choice([-2, -1, 1, 1, 3]), rng.choice([1, 2]))

        t_cols = {l: {i: entry() for i in rng.sample(range(n), 3)}
                  for l in rng.sample(range(n), 4)}
        a_cols = [{l: entry() for l in rng.sample(range(n), 2)}
                  for _ in range(n)]
        a_rows = {}
        for col, entries in enumerate(a_cols):
            for l, v in entries.items():
                a_rows.setdefault(l, []).append((col, v))
        dense = {}
        for col in range(n):
            acc = {}
            for i in range(n):
                v = sum(t_cols.get(l, {}).get(i, 0) * a_cols[col].get(l, 0)
                        for l in range(n))
                if v:
                    acc[i] = v
            if acc:
                dense[col] = acc
        assert spectral._mat_mul_sparse_rows(t_cols, a_rows) == dense

    def test_artifacts_reported(self):
        _, _, tr = tree_setup(2)
        rep = commutant_probe(tr)
        assert rep["theta_span_dimension"] >= rep["dimension_interior"]
        assert rep["truncation_artifacts"] >= 0


class TestStarRepresentation:
    def test_adjoint_identity_on_basis(self):
        g, t, tr = tree_setup(2)
        amb = tr.ambient
        gens = generator_keys(amb, 1)[:8]
        for ka in gens:
            a = AlgebraElement(amb, {ka: GaussianRational(1)})
            for kx in tr.basis[:10]:
                x = AlgebraElement(amb, {kx: GaussianRational(1)})
                for ky in tr.basis[:10]:
                    y = AlgebraElement(amb, {ky: GaussianRational(1)})
                    lhs = trace_functional(t, x.involution() * (a * y))
                    rhs = trace_functional(
                        t, (a.involution() * x).involution() * y
                    )
                    assert lhs == rhs
