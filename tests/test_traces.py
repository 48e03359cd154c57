from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtriple.algebra import AlgebraElement
from graphtriple.graphs import Edge, GraphPresentation
from graphtriple.scalars import GaussianRational
from graphtriple.traces import (FixedPointCanonicalForm, NoFaithfulTraceError,
                                NonDiagonalError, canonical_F_form,
                                canonical_F_form_numeric, fixed_point_norms,
                                ktheory_ranks, solve_graph_trace,
                                solve_kgraph_trace, trace_functional)

from corpus import (bi_infinite_path, double_entry_tree, dyadic_tree,
                    loop_with_exit, single_loop, sink_path, torus_2graph,
                    tree_with_ends, two_vertex_2graph)


class TestSolveGraphTrace:
    def test_single_edge_to_sink(self):
        g = GraphPresentation(["v", "w"], [Edge("e", "v", "w")])
        t = solve_graph_trace(g)
        assert t.values["v"] == t.values["w"] == 1

    def test_dyadic_level_values(self):
        t = solve_graph_trace(dyadic_tree(2))
        # leaves get end value 1; the figure's 1, 1/2, 1/4 pattern appears
        # after normalizing the root to 1
        root = t.values["r"]
        assert t.values["r0"] / root == Fraction(1, 2)
        assert t.values["r00"] / root == Fraction(1, 4)

    def test_dyadic_fraction_values_exact(self):
        g = dyadic_tree(2)
        ends = {e.id: Fraction(1, 4) for e in g.find_ends()}
        t = solve_graph_trace(g, ends)
        assert t.values["r"] == 1
        assert t.values["r1"] == Fraction(1, 2)
        assert t.values["r11"] == Fraction(1, 4)

    def test_loop_constant(self):
        t = solve_graph_trace(single_loop(3))
        assert all(v == 1 for v in t.values.values())

    def test_trace_condition_everywhere(self):
        for g in [tree_with_ends(2), tree_with_ends(3), dyadic_tree(3)]:
            t = solve_graph_trace(g)
            for v in g.vertices:
                if g.is_sink(v):
                    continue
                total = Fraction(0)
                if v in g.tails:
                    total += t.end_values[f"tail:{v}"]
                for eid in g.out_edges(v):
                    total += t.values[g.edges[eid].range]
                assert t.values[v] == total

    def test_loop_with_exit_rejected(self):
        with pytest.raises(NoFaithfulTraceError):
            solve_graph_trace(loop_with_exit())

    def test_missing_end_value(self):
        g = tree_with_ends(2)
        with pytest.raises(Exception, match="missing end value"):
            solve_graph_trace(g, {"tail:c1": Fraction(1)})

    def test_kgraph_trace(self):
        t = solve_kgraph_trace(torus_2graph())
        assert all(v > 0 for v in t.values.values())
        t2 = solve_kgraph_trace(two_vertex_2graph())
        assert t2.values["u"] == t2.values["w"]


class TestTraceFunctional:
    def setup_method(self):
        self.g = tree_with_ends(2)
        self.trace = solve_graph_trace(self.g)
        self.amb = self.g.expand(3)

    def test_off_diagonal_vanishes(self):
        s = AlgebraElement.generator(self.amb, ("e1",), ())
        assert trace_functional(self.trace, s).is_zero()

    def test_range_projection_value(self):
        s = AlgebraElement.generator(self.amb, ("e1",), ("e1",))
        assert trace_functional(self.trace, s) == GaussianRational(
            self.trace.values["c1"]
        )

    def test_vertex_value(self):
        p = AlgebraElement.vertex(self.amb, "b")
        assert trace_functional(self.trace, p) == GaussianRational(2)

    def test_well_defined_on_ck_relation(self):
        # tau(p_v) = sum tau(S_e S_e*) is the graph trace condition
        p = AlgebraElement.vertex(self.amb, "b")
        total = AlgebraElement.zero(self.amb)
        for eid in self.amb.out_edges("b"):
            s = AlgebraElement.generator(self.amb, (eid,), ())
            total = total + s * s.involution()
        assert trace_functional(self.trace, p) == trace_functional(
            self.trace, total
        )


def tree_elements():
    g = tree_with_ends(2)
    amb = g.expand(2)
    keys = []
    for w in amb.vertices:
        into = [()] + [p for j in (1, 2) for p in amb.paths_with_degree((j,), w, "into")]
        for mu in into:
            for nu in into:
                keys.append((mu, nu, w))
    coeff = st.sampled_from([
        GaussianRational(1), GaussianRational(-2), GaussianRational(0, 1),
        GaussianRational(Fraction(1, 3)),
    ])
    return st.lists(st.tuples(st.sampled_from(keys), coeff),
                    min_size=0, max_size=4).map(
        lambda terms: _assemble(amb, terms)
    )


def _assemble(amb, terms):
    out = AlgebraElement.zero(amb)
    for key, c in terms:
        out = out + AlgebraElement(amb, {key: c})
    return out


_TREE = tree_with_ends(2)
_TRACE = solve_graph_trace(_TREE)


class TestTraceProperties:
    @given(tree_elements(), tree_elements())
    @settings(max_examples=50, deadline=None)
    def test_tracial(self, a, b):
        assert trace_functional(_TRACE, a * b) == trace_functional(_TRACE, b * a)

    @given(tree_elements())
    @settings(max_examples=50, deadline=None)
    def test_positive_and_faithful(self, a):
        val = trace_functional(_TRACE, a.involution() * a)
        assert val.im == 0 and val.re >= 0
        assert (val.re == 0) == a.is_zero()

    @given(tree_elements())
    @settings(max_examples=50, deadline=None)
    def test_gauge_invariant(self, a):
        assert trace_functional(_TRACE, a) == trace_functional(
            _TRACE, a.expectation()
        )

    @given(tree_elements())
    @settings(max_examples=30, deadline=None)
    def test_expectation_faithful_on_positives(self, a):
        val = (a.involution() * a).expectation()
        assert val.is_zero() == a.is_zero()


class TestKTheory:
    def test_single_loops(self):
        for n in (1, 2, 3, 5):
            assert ktheory_ranks(single_loop(n)) == {"k0": 1, "k1": 1}

    def test_trees(self):
        for n in (1, 2, 3, 4):
            assert ktheory_ranks(tree_with_ends(n)) == {"k0": n, "k1": 0}

    def test_sink_edge(self):
        g = GraphPresentation(["v", "w"], [Edge("e", "v", "w")])
        assert ktheory_ranks(g) == {"k0": 1, "k1": 0}

    def test_loop_with_exit_rejected(self):
        with pytest.raises(Exception, match="exit"):
            ktheory_ranks(loop_with_exit())

    def test_relabeling_invariance(self):
        g = tree_with_ends(3)
        vmap = {v: f"X{i}" for i, v in enumerate(g.vertices)}
        emap = {e: f"Y{i}" for i, e in enumerate(g.edge_order)}
        assert ktheory_ranks(g) == ktheory_ranks(g.relabel(vmap, emap))


class TestCanonicalForm:
    def test_branch_vertex_splits(self):
        g = tree_with_ends(2)
        amb = g.expand(2)
        t = solve_graph_trace(g)
        form = canonical_F_form(AlgebraElement.vertex(amb, "b"), g)
        assert form.terms.keys() == {("b", 1), ("b", 2)}
        assert all(c == GaussianRational(1) for c in form.terms.values())

    def test_tail_projection_single_term(self):
        g = tree_with_ends(2)
        amb = g.expand(2)
        s = AlgebraElement.generator(amb, ("e1",), ("e1",))
        form = canonical_F_form(s, g)
        assert len(form.terms) == 1

    def test_ck_difference_is_empty(self):
        g = GraphPresentation(
            ["v", "c"], [Edge("e", "v", "c")], tails=["c"],
            source_tails=["v"],
        )
        amb = g.expand(2)
        p = AlgebraElement.vertex(amb, "v")
        s = AlgebraElement.generator(amb, ("e",), ("e",))
        form = canonical_F_form(p - s, g)
        assert not form.terms

    def test_non_diagonal_rejected(self):
        g = tree_with_ends(2)
        amb = g.expand(2)
        with pytest.raises(NonDiagonalError):
            canonical_F_form(
                AlgebraElement.generator(amb, ("e1",), ()), g
            )

    @pytest.mark.parametrize("g", [
        tree_with_ends(2), tree_with_ends(3), tree_with_ends(4),
        dyadic_tree(2), double_entry_tree(), sink_path(), bi_infinite_path(),
    ], ids=lambda g: "-".join(g.vertices))
    def test_numeric_form_is_exact_form_cast(self, g):
        # Gaussian integer coefficients, which cast to complex exactly
        coeffs = [GaussianRational(1), GaussianRational(-1),
                  GaussianRational(2, 1), GaussianRational(1, -3)]
        pairs = [(coeffs[i % len(coeffs)], v)
                 for i, v in enumerate(g.vertices)]
        amb = g.expand(2)
        f = AlgebraElement(amb, {((), (), v): c for c, v in pairs})
        exact = canonical_F_form(f, g)
        numeric = canonical_F_form_numeric(
            [(complex(c), v) for c, v in pairs], g)
        assert exact.exact and not numeric.exact
        assert numeric.terms == {k: complex(c) for k, c in exact.terms.items()}

    @given(tree_elements())
    @settings(max_examples=40, deadline=None)
    def test_trace_preserved(self, a):
        diag = AlgebraElement(
            a.ambient, {k: c for k, c in a.terms.items() if k[0] == k[1]}
        )
        form = canonical_F_form(diag, _TREE)
        total = GaussianRational(0)
        end_vals = [_TRACE.end_values[e.id] for e in form.ends]
        for (v, n), c in form.terms.items():
            total = total + c * end_vals[n - 1]
        assert total == trace_functional(_TRACE, diag)


class TestNorms:
    def test_two_end_worked_example(self):
        # c = (1, 2), end traces (1/2, 1/4): direct evaluation of the three
        # formulas gives cstar 4, hilbert 3/2 >= min(1/4,1/2)*4 = 1
        g = tree_with_ends(2)
        t = solve_graph_trace(g, {
            "tail:c1": Fraction(1, 2), "tail:c2": Fraction(1, 4),
        })
        form = FixedPointCanonicalForm(
            g, tuple(g.find_ends()),
            {("b", 1): GaussianRational(1), ("b", 2): GaussianRational(2)},
        )
        norms = fixed_point_norms(form, t)
        assert norms["cstar_norm_sq"] == 4
        assert norms["hilbert_norm_sq"] == Fraction(3, 2)
        assert norms["module_norm_sq"] == 4
        assert norms["min_end_trace"] == Fraction(1, 4)
        assert norms["hilbert_norm_sq"] >= norms["min_end_trace"] * norms["module_norm_sq"]

    def test_unit_projection(self):
        g = bi_infinite_path()
        t = solve_graph_trace(g)
        amb = g.expand(2)
        form = canonical_F_form(AlgebraElement.vertex(amb, "v"), g)
        norms = fixed_point_norms(form, t)
        assert norms["cstar_norm_sq"] == norms["hilbert_norm_sq"] == 1

    def test_dyadic_partial_sums_float(self):
        # a_N = sum 2^{i/4} p_i with tau(p_i) = 2^{-i}: bounded Hilbert
        # norms, C*-norms growing like 2^{N/2}
        depth = 6
        g = dyadic_tree(depth)
        base = Fraction(1, 2 ** depth)
        t = solve_graph_trace(
            g, {e.id: base for e in g.find_ends()}
        )
        spine = ["r" + "0" * i for i in range(depth + 1)]
        for N in (3, 6):
            projections = [
                (2.0 ** (i / 4.0), spine[i]) for i in range(1, N + 1)
            ]
            form = canonical_F_form_numeric(projections, g)
            norms = fixed_point_norms(form, t)
            assert abs(norms["cstar_norm_sq"] - 2.0 ** (N / 2)) <= 0.01 * 2.0 ** (N / 2)
            hilbert_expected = sum(
                2.0 ** (i / 2) * float(t.values[spine[i]]) for i in range(1, N + 1)
            )
            assert abs(norms["hilbert_norm_sq"] - hilbert_expected) < 1e-9
        # the Hilbert norms stay below the geometric bound
        bound = sum(2.0 ** (-i / 2) for i in range(1, 100))
        assert hilbert_expected <= bound
