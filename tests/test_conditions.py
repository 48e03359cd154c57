import ast
import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtriple import algebra, conditions, hochschild, spectral
from graphtriple.conditions import (CONDITION_NAMES, commutant_dimension,
                                    evaluate_all, hypothesis_check,
                                    kgraph_hypothesis_check)
from graphtriple.graphs import TAIL_MARGIN, Edge, GraphPresentation
from graphtriple.kgraphs import KGraphPresentation
from graphtriple.spectral import singular_profile, vertex_multiplicities
from graphtriple.traces import (NoFaithfulTraceError, solve_graph_trace,
                                solve_kgraph_trace)

from corpus import (bi_infinite_path, double_entry_tree, dyadic_tree,
                    loop_with_exit, loop_with_exit_tree, one_vertex_3graph,
                    one_vertex_kgraph, single_loop, sink_path,
                    single_exit_violating_2graph, torus_2graph,
                    tree_with_ends, two_disjoint_loops, two_extension_2graph,
                    two_vertex_2graph)
from oracles import commutant_count_every_push
from test_spectral import abelian_kgraphs, sourced_digraphs
from test_structure import digraphs, exitless_digraphs

GRAPH_CORPUS = {
    **{f"loop{n}": single_loop(n) for n in range(1, 6)},
    "bi_path": bi_infinite_path(),
    **{f"tree{n}": tree_with_ends(n) for n in range(1, 5)},
    **{f"dyadic{d}": dyadic_tree(d) for d in range(1, 4)},
    "sink_path": sink_path(),
    "loop_with_exit": loop_with_exit(),
    "loop_with_exit_tree": loop_with_exit_tree(),
    "double_entry_tree": double_entry_tree(),
    "two_disjoint_loops": two_disjoint_loops(),
}


class TestHypothesisCheck:
    def test_single_loop_all_true(self):
        hyp = hypothesis_check(single_loop(1))
        for key in ("connected", "locally_finite", "no_sinks",
                    "faithful_graph_trace_exists", "single_entry",
                    "fg_ktheory"):
            assert hyp[key], key

    def test_loop_with_exit_no_trace(self):
        hyp = hypothesis_check(loop_with_exit_tree())
        assert not hyp["faithful_graph_trace_exists"]
        assert hyp["single_entry"]

    def test_dyadic_family_flags_growing_ends(self):
        counts = [hypothesis_check(dyadic_tree(d))["ends_count"]
                  for d in (1, 2, 3)]
        assert counts == [2, 4, 8]
        assert all(hypothesis_check(dyadic_tree(d))["fg_ktheory"]
                   for d in (1, 2, 3))

    @pytest.mark.parametrize("name", sorted(GRAPH_CORPUS))
    def test_trace_flag_matches_the_solver(self, name):
        g = GRAPH_CORPUS[name]
        try:
            solve_graph_trace(g)
            solvable = True
        except NoFaithfulTraceError:
            solvable = False
        assert hypothesis_check(g)["faithful_graph_trace_exists"] is solvable
        assert solvable == (name not in ("loop_with_exit",
                                         "loop_with_exit_tree"))

    def test_kgraph_hypotheses(self):
        hyp = kgraph_hypothesis_check(torus_2graph())
        assert hyp["connected"] and hyp["single_exit"]
        assert not kgraph_hypothesis_check(
            single_exit_violating_2graph())["single_exit"]


PASSING = [
    ("loop1", single_loop(1), {}),
    ("loop3", single_loop(3), {}),
    ("bi_path", bi_infinite_path(), {"level": 2}),
    ("tree2", tree_with_ends(2), {"level": 2}),
    ("torus", torus_2graph(), {"level": 2}),
    ("one_vertex_3graph", one_vertex_3graph(), {"level": 1}),
    ("two_vertex_2graph", two_vertex_2graph(), {"level": 2}),
]


class TestEvaluateAll:
    @pytest.mark.parametrize("name,g,kw", PASSING, ids=[p[0] for p in PASSING])
    def test_nine_hold_on_passing_presentations(self, name, g, kw):
        rep = evaluate_all(g, **kw)
        statuses = {n: e.status for n, e in rep.entries.items()}
        assert rep.all_hold(), (name, statuses)
        assert set(statuses) == set(CONDITION_NAMES)
        assert rep.exit_code() == 0

    def test_double_entry_fails_orientability_with_witness(self):
        rep = evaluate_all(double_entry_tree(), level=2)
        entry = rep.entries["orientability"]
        assert entry.status == "fails"
        assert entry.witness["nonzero_boundary_coefficients"] == {"c": 1}

    def test_loop_with_exit_marks_not_applicable(self):
        rep = evaluate_all(loop_with_exit_tree(), level=2)
        assert rep.exit_code() == 3
        na = [n for n, e in rep.entries.items()
              if e.status == "not_applicable"]
        assert "dimension" in na and "closedness" in na
        assert rep.entries["dimension"].witness["violated_hypothesis"] == \
            "faithful_graph_trace_exists"

    def test_disconnected_fails_irreducibility(self):
        rep = evaluate_all(two_disjoint_loops())
        entry = rep.entries["irreducibility"]
        assert entry.status == "fails"
        assert entry.witness["dimension_interior"] == 2

    def test_sink_fails_orientability(self):
        rep = evaluate_all(sink_path(), level=2)
        assert rep.entries["orientability"].status == "fails"
        assert rep.entries["orientability"].witness[
            "nonzero_boundary_coefficients"]["w"] == 1

    def test_single_exit_violation_fails_orientability(self):
        # u receives no colour-1 edge and w receives two
        rep = evaluate_all(single_exit_violating_2graph(), level=2)
        entry = rep.entries["orientability"]
        assert entry.status == "fails" and entry.method == "exact"
        assert entry.witness == {
            "argument": conditions.THEOREMS["orientability_kgraph"],
            "single_exit_violations": [
                {"vertex": "u", "color": 1, "entering": 0},
                {"vertex": "w", "color": 1, "entering": 2}]}

    def test_report_json_deterministic(self):
        rep1 = evaluate_all(single_loop(1))
        rep2 = evaluate_all(single_loop(1))
        assert json.dumps(rep1.to_json(), sort_keys=True) == \
            json.dumps(rep2.to_json(), sort_keys=True)

    def test_k1_kgraph_presentation_is_a_value_error(self):
        from graphtriple.graphs import Edge
        from graphtriple.kgraphs import KGraphPresentation
        g = KGraphPresentation(1, ["v"], [Edge("e", "v", "v", 1)], [])
        with pytest.raises(ValueError, match="graph_from_document"):
            evaluate_all(g, level=1)

    def test_conditions_runs_no_multiplicity_sweep(self, monkeypatch):
        # 1-graph dimension is read from the trace equation, so the O(|V|)
        # sweep per sample never runs, not even on a long path
        def refuse(*args, **kwargs):
            raise AssertionError("conditions swept the multiplicities")
        for module in (spectral, conditions):
            monkeypatch.setattr(module, "vertex_multiplicities", refuse,
                                raising=False)
        for g in GRAPH_CORPUS.values():
            evaluate_all(g, level=1)
        report = evaluate_all(long_path(300), level=1)
        assert report.all_hold()
        samples = report.entries["dimension"].witness["samples"]
        assert len(samples) == 300
        assert {(s["limit"], s["target"]) for s in samples} == {("2", "2")}

    def test_conditions_runs_no_first_order_or_reality_loop(
            self, monkeypatch):
        # first order and 1-graph reality are theorems of A_c, so their
        # product loops run only as the tests' oracles
        def refuse(*args, **kwargs):
            raise AssertionError("conditions ran a product loop")
        for name in ("first_order_check", "reality_check_1graph"):
            for module in (spectral, conditions):
                monkeypatch.setattr(module, name, refuse, raising=False)
        for g in [*GRAPH_CORPUS.values(), torus_2graph(), one_vertex_3graph(),
                  two_vertex_2graph(), single_exit_violating_2graph()]:
            report = evaluate_all(g, level=1)
            assert report.entries["first_order"].status in (
                "holds", "not_applicable")
        report = evaluate_all(long_path(300), level=1)
        assert report.all_hold()

    def test_conditions_computes_no_profile(self, monkeypatch):
        # dimension is decided from closed forms, so neither windowed
        # profile runs, on either rank
        def refuse(*args, **kwargs):
            raise AssertionError("conditions computed a profile")
        for name in ("singular_profile", "kgraph_lattice_profile"):
            for module in (spectral, conditions):
                monkeypatch.setattr(module, name, refuse, raising=False)
        for g in (single_loop(5), tree_with_ends(2), torus_2graph(),
                  one_vertex_3graph()):
            assert evaluate_all(g, level=1).entries["dimension"].status \
                == "holds"

    def test_conditions_builds_no_orientation_cycle(self, monkeypatch):
        # k-graph orientability is single exit, so c_k, its boundary and
        # pi_D(c_k) are built only by `graphtriple hochschild` and the tests
        def refuse(*args, **kwargs):
            raise AssertionError("conditions built c_k")
        for name in ("verify_cancellation_steps", "orientation_cycle_kgraph",
                     "pi_D_identity_check"):
            for module in (hochschild, conditions):
                monkeypatch.setattr(module, name, refuse, raising=False)
        for g, holds in ((torus_2graph(), True), (two_vertex_2graph(), True),
                         (one_vertex_3graph(), True),
                         (one_vertex_kgraph(4), True),
                         (single_exit_violating_2graph(), False),
                         (two_extension_2graph(), False)):
            entry = evaluate_all(g, level=1).entries["orientability"]
            assert (entry.status == "holds") is holds

    def test_one_vertex_7graph_holds_in_seconds(self):
        # c_k alone would have 5,040 terms; conditions builds none of them
        assert evaluate_all(one_vertex_kgraph(7), level=1).all_hold()

    def test_wrong_clifford_signs_flip_kgraph_reality_alone(
            self, monkeypatch):
        # the algebra half of k-graph reality is a theorem; the Clifford
        # half is computed, so wrong signs from the gammas must fail it
        real = conditions.reality_operator
        g = torus_2graph()
        before = evaluate_all(g, level=1).to_json()["conditions"]
        monkeypatch.setattr(conditions, "reality_operator",
                            lambda k: replace(real(k), eps=-real(k).eps))
        after = evaluate_all(g, level=1).to_json()["conditions"]
        assert before["reality"]["status"] == "holds"
        assert after["reality"]["status"] == "fails"
        assert after["reality"]["witness"]["argument"] == \
            conditions.THEOREMS["reality_1graph"]
        assert {n: e for n, e in after.items() if n != "reality"} == \
            {n: e for n, e in before.items() if n != "reality"}

    @pytest.mark.parametrize("factory,level", [
        (lambda: single_loop(3), 1), (lambda: tree_with_ends(2), 2)],
        ids=["single_loop_3", "tree_with_ends_2"])
    def test_dropped_edge_product_flips_the_oracle_alone(
            self, factory, level, monkeypatch):
        # p_{s(e)} S_e = S_e read as 0 leaves no nonzero f commuting with
        # every S_e and S_e*: the product oracle reads 0, while the count
        # and every verdict of `conditions`, which forms no product, stay
        g = factory()
        before = evaluate_all(g, level=level).to_json()["conditions"]
        exact = algebra._multiply_keys_uncached

        def dropped(amb, k1, k2):
            (mu1, nu1, v1), (mu2, nu2, _) = k1, k2
            if (not mu1 and not nu1 and len(mu2) == 1 and not nu2
                    and amb.path_source(mu2) == v1):
                return ()
            return exact(amb, k1, k2)

        monkeypatch.setattr(algebra, "_multiply_keys_uncached", dropped)
        tr = spectral.build_truncation(g, solve_graph_trace(g), level)
        assert spectral.commutant_probe(tr) == {"dimension_interior": 0}
        assert commutant_dimension(g, level) == 1
        assert evaluate_all(g, level=level).to_json()["conditions"] == before
        assert before["irreducibility"]["status"] == "holds"

    def test_skipped_identification_flips_irreducibility_alone(
            self, monkeypatch):
        # the vertices receiving a path of length 1 link the two tail ends
        # through b; they form a tree, so skipping any one link of it
        # leaves the ends apart
        g = tree_with_ends(2)
        before = evaluate_all(g, level=2).to_json()["conditions"]
        exact = conditions.count_classes

        def skipped(items, links):
            return exact(items, sorted(links)[1:])

        monkeypatch.setattr(conditions, "count_classes", skipped)
        after = evaluate_all(g, level=2).to_json()["conditions"]
        assert before["irreducibility"]["status"] == "holds"
        assert after["irreducibility"]["status"] == "fails"
        assert after["irreducibility"]["witness"] == {"dimension_interior": 2}
        assert {n: e for n, e in after.items() if n != "irreducibility"} == \
            {n: e for n, e in before.items() if n != "irreducibility"}

    def test_irreducibility_depends_on_the_level_only_off_orientability(
            self):
        # u -> v -> x with tails at v and x and no source tail: at depth
        # m = 2 no vertex receiving a path of length 2 reaches both tail
        # ends, as v (length 1 from u) did; u, a source with no source
        # tail, fails orientability at every level
        g = GraphPresentation(["u", "v", "x"],
                              [Edge("a", "u", "v"), Edge("b", "v", "x")],
                              tails=["v", "x"])
        for level, dim in ((1, 1), (2, 1), (3, 2)):
            report = evaluate_all(g, level=level)
            assert report.entries["irreducibility"].witness == {
                "dimension_interior": dim}
            assert report.entries["orientability"].status == "fails"
            tr = spectral.build_truncation(g, solve_graph_trace(g), level)
            assert spectral.commutant_probe(tr)["dimension_interior"] == dim

    @pytest.mark.parametrize("level", [1, 2, 3, 50])
    @pytest.mark.parametrize("factory", [lambda: single_loop(40),
                                         lambda: tree_with_ends(4)],
                             ids=["cycle_40", "tree_with_ends_4"])
    def test_commutant_count_stops_at_the_fixed_point(self, factory, level):
        # the count equals the one on the expansion with every push made,
        # and reads each vertex's out-edges once whatever the level
        g = factory()
        assert commutant_dimension(g, level) == commutant_count_every_push(
            g.expand(level + TAIL_MARGIN), level)
        calls = []
        out_edges = g.out_edges
        g.out_edges = lambda v: calls.append(v) or out_edges(v)
        for deep in (level, 10 ** 9):
            calls.clear()
            commutant_dimension(g, deep)
            assert len(calls) == len(g.vertices)

    @pytest.mark.parametrize("level", [1, 2, 3, 50])
    @pytest.mark.parametrize("factory", [torus_2graph, two_vertex_2graph,
                                         lambda: one_vertex_kgraph(3)],
                             ids=["torus", "two_vertex", "one_vertex_3"])
    def test_kgraph_push_stops_at_the_fixed_point(self, factory, level):
        # a push that leaves the receivers as they are changes nothing
        # later; every vertex of these k-graphs receives each colour, so
        # each colour makes one push at any level
        g = factory()
        assert commutant_dimension(g, level) == \
            commutant_count_every_push(g, level)
        calls = []
        out_edges = g.out_edges
        g.out_edges = lambda v: calls.append(v) or out_edges(v)
        commutant_dimension(g, level)
        assert len(calls) == (g.k + 1) * len(g.vertices)

    @pytest.mark.parametrize("graphs", [digraphs(), exitless_digraphs(),
                                        sourced_digraphs()],
                             ids=["digraphs", "exitless", "sourced"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_count_equals_the_push_on_the_expansion(self, graphs, data):
        # the backward depths give the receivers that m pushes through the
        # tails expanded L + TAIL_MARGIN deep would give
        g, level = data.draw(graphs), data.draw(st.integers(1, 9))
        assert commutant_dimension(g, level) == commutant_count_every_push(
            g.expand(level + TAIL_MARGIN), level)

    def test_report_shape(self):
        # reality is a theorem on a 1-graph; the k-graph sign table is exact
        for g, exact in ((single_loop(1), set()),
                         (torus_2graph(), {"reality"})):
            doc = evaluate_all(g, level=1).to_json()
            assert doc["report_version"] == 8
            assert doc["parameters"] == {"level": 1}
            assert set(doc["conditions"]) == set(CONDITION_NAMES)
            for entry in doc["conditions"].values():
                assert entry["status"] in ("holds", "fails", "not_applicable")
                assert entry["method"] in ("exact", "theorem")
                assert entry["name"] in CONDITION_NAMES
                if entry["method"] == "theorem":
                    assert entry["status"] == "holds"
            theorems = {name for name, entry in doc["conditions"].items()
                        if entry["method"] == "theorem"}
            assert theorems == {"regularity", "closedness", "spin_c",
                                "finiteness", "dimension", "first_order",
                                "reality"} - exact

    def test_kgraph_reports_the_level_it_used(self):
        # a k-graph truncation stops at level 2, and its report says so
        at_two = evaluate_all(torus_2graph(), level=2).to_json()
        assert at_two["parameters"] == {"level": 2}
        assert evaluate_all(torus_2graph(), level=9).to_json() == at_two
        assert evaluate_all(torus_2graph(), level=1).to_json()[
            "parameters"] == {"level": 1}


def long_path(n: int) -> GraphPresentation:
    """p0000 -> ... with a source tail at its start and a tail at its end."""
    verts = [f"p{i:04d}" for i in range(n)]
    edges = [Edge(f"e{i:04d}", u, w)
             for i, (u, w) in enumerate(zip(verts, verts[1:]))]
    return GraphPresentation(verts, edges, [verts[-1]], [verts[0]])


def sweep_matches_witness(g: GraphPresentation) -> int:
    """Check each dimension sample against `vertex_multiplicities`, the
    theorem's oracle: the forward mass is tau(p_v) at every level, and the
    exact c+ + c- is the witness limit.  Returns the number of samples."""
    try:
        trace = solve_graph_trace(g)
    except NoFaithfulTraceError:
        return 0
    entry = evaluate_all(g, level=1).entries["dimension"]
    if entry.status == "not_applicable":
        return 0
    assert (entry.status, entry.method) == ("holds", "theorem")
    for s in entry.witness["samples"]:
        tau = trace.vertex_value(s["vertex"])
        model = vertex_multiplicities(g, trace, s["vertex"])
        assert set(model.forward_head) == {tau}, s
        assert model.forward_tail == tau
        assert str(model.dixmier_limit()) == s["limit"]
        assert s["target"] == str(2 * tau)
    return len(entry.witness["samples"])


class TestDimension:
    @pytest.mark.parametrize("name", sorted(set(GRAPH_CORPUS) - {
        "loop_with_exit", "loop_with_exit_tree"}))
    def test_sweep_agrees_with_the_theorem_on_the_corpus(self, name):
        samples = sweep_matches_witness(GRAPH_CORPUS[name])
        assert samples > 0 or name == "sink_path"

    @given(st.one_of(digraphs(), exitless_digraphs()))
    @settings(max_examples=150, deadline=None)
    def test_sweep_agrees_with_the_theorem_on_random_digraphs(self, g):
        sweep_matches_witness(g)

    # every corpus 1-graph with a faithful trace and a vertex that reaches
    # no sink; the largest gap on them is 0.06%
    @pytest.mark.parametrize("name", sorted(set(GRAPH_CORPUS) - {
        "sink_path", "loop_with_exit", "loop_with_exit_tree"}))
    def test_windowed_profile_lies_near_the_exact_limit(self, name):
        g = GRAPH_CORPUS[name]
        witness = evaluate_all(g, level=1).entries["dimension"].witness
        trace = solve_graph_trace(g)
        for s in witness["samples"]:
            exact = float(Fraction(s["limit"]))
            model = vertex_multiplicities(g, trace, s["vertex"])
            estimate = singular_profile(model, 10 ** 5).limit_estimate
            assert abs(estimate - exact) <= 2e-3 * exact, s


def shell_counts(k: int, w: int) -> np.ndarray:
    """r_k(m), the number of n in Z^k with |n|^2 = m, for m <= w^2: k
    convolutions with r_1, each a sum of shifts by the squares j^2 <= w^2,
    in exact int64."""
    top = w * w
    r = np.zeros(top + 1, dtype=np.int64)
    r[0] = 1
    for _ in range(k):
        nxt = np.zeros_like(r)
        for j in range(-w, w + 1):
            nxt[j * j:] += r[:top + 1 - j * j]
        r = nxt
    return r


def lattice_dixmier_estimate(k: int, w: int) -> float:
    """(F(w) - F(w/2)) / (log N(w) - log N(w/2)) with F(R) the sum of
    (1 + |n|^2)^{-k/2} and N(R) the count over the n in Z^k with |n| <= R:
    the O(1) terms of both cancel."""
    r = shell_counts(k, w)
    terms = r * (1.0 + np.arange(r.size)) ** (-k / 2)

    def up_to(radius):
        return terms[:radius * radius + 1].sum(), r[:radius * radius + 1].sum()
    (f_out, n_out), (f_in, n_in) = up_to(w), up_to(w // 2)
    return (f_out - f_in) / (math.log(n_out) - math.log(n_in))


class TestLatticeOracle:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_shell_count_reaches_the_unit_ball_volume(self, k):
        # measured within 4e-4 of V_k at w = 128
        ball = math.pi ** (k / 2) / math.gamma(k / 2 + 1)
        assert lattice_dixmier_estimate(k, 128) == \
            pytest.approx(ball, rel=1e-3)

    @pytest.mark.parametrize("factory", [torus_2graph, two_vertex_2graph,
                                         one_vertex_3graph])
    def test_kgraph_witness_is_mass_times_the_lattice_limit(self, factory):
        g = factory()
        entry = evaluate_all(g, level=1).entries["dimension"]
        assert (entry.status, entry.method) == ("holds", "theorem")
        mass = Fraction(entry.witness["trace_mass"])
        assert mass == sum(solve_kgraph_trace(g).values.values())
        assert entry.witness["limit"] == pytest.approx(
            float(mass) * lattice_dixmier_estimate(g.k, 128), rel=1e-3)


@st.composite
def twisted_2graphs(draw):
    """2-graphs on 1-3 vertices that may fail single exit: colour-1 edge
    counts A1 (every vertex emits), colour-2 counts A2 commuting with A1 (a
    free count on one vertex, else A1, 1 or 1 + A1), and squares a random
    bijection of the (1,2)-paths onto the (2,1)-paths with the same ends."""
    n = draw(st.integers(1, 3))
    verts = [f"v{i}" for i in range(n)]
    rows = st.lists(st.integers(0, 2 if n == 1 else 1), min_size=n,
                    max_size=n).filter(any)
    a1 = draw(st.lists(rows, min_size=n, max_size=n))
    if n == 1:
        a2 = [[draw(st.integers(1, 2))]]
    else:
        c, d = draw(st.sampled_from([(1, 0), (0, 1), (1, 1)]))
        a2 = [[c * (i == j) + d * a1[i][j] for j in range(n)]
              for i in range(n)]
    edges = [Edge(f"{name}{i}{j}{m}", verts[i], verts[j], colour)
             for colour, name, counts in ((1, "a", a1), (2, "b", a2))
             for i in range(n) for j in range(n) for m in range(counts[i][j])]
    out = {c: [e for e in edges if e.color == c] for c in (1, 2)}
    by_ends = {}
    for first, second in ((1, 2), (2, 1)):
        for e in out[first]:
            for f in out[second]:
                if e.range == f.source:
                    by_ends.setdefault((e.source, f.range, first), []).append(
                        (e.id, f.id))
    squares = []
    for (s, r, first), paths in sorted(by_ends.items()):
        if first == 1:
            images = draw(st.permutations(by_ends[(s, r, 2)]))
            squares += list(zip(paths, images))
    return KGraphPresentation(2, verts, edges, squares)


@st.composite
def product_kgraphs(draw):
    """Products of k = 2 or 3 sink-free digraphs with at most 3 vertices in
    all: colour c moves the c-th coordinate along an edge of the c-th
    factor, and the squares are the commuting moves.  Single exit holds iff
    every factor is a permutation."""
    k = draw(st.integers(2, 3))
    sizes = [1] * k
    sizes[draw(st.integers(0, k - 1))] = draw(st.integers(1, 3))
    factors = []
    for n in sizes:
        rows = st.lists(st.integers(0, 2 if n == 1 else 1), min_size=n,
                        max_size=n).filter(any)
        counts = draw(st.lists(rows, min_size=n, max_size=n))
        factors.append([(i, j, f"{i}{j}{m}") for i in range(n)
                        for j in range(n) for m in range(counts[i][j])])
    points = list(itertools.product(*(range(n) for n in sizes)))
    name = {x: "v" + "".join(map(str, x)) for x in points}

    def move(x, c, j):
        return x[:c] + (j,) + x[c + 1:]

    def eid(c, x, label):
        return f"c{c + 1}_{label}_{name[x]}"
    edges = [Edge(eid(c, x, label), name[x], name[move(x, c, j)], c + 1)
             for c, fac in enumerate(factors) for x in points
             for i, j, label in fac if x[c] == i]
    squares = [((eid(c, x, a), eid(d, move(x, c, j), b)),
                (eid(d, x, b), eid(c, move(x, d, jd), a)))
               for c in range(k) for d in range(c + 1, k) for x in points
               for i, j, a in factors[c] if x[c] == i
               for id_, jd, b in factors[d] if x[d] == id_]
    return KGraphPresentation(k, [name[x] for x in points], edges, squares)


class TestKGraphOrientabilityOracle:
    """k-graph orientability is read from single exit; the cancellation
    steps that build c_k are its oracle, on k-graphs that fail single
    exit as well as on those that satisfy it."""

    @staticmethod
    def check(g):
        cancel = hochschild.verify_cancellation_steps(g)
        entry = evaluate_all(g, level=1).entries["orientability"]
        holds = entry.status == "holds"
        assert holds == (cancel["b_ck_zero"] and cancel["pi_D_is_volume_form"])
        assert holds == g.single_exit_check()["holds"]
        assert cancel["step1_middle_terms_vanish"]
        assert cancel["step2_elementary_tensors_equal"]

    @given(twisted_2graphs())
    @settings(max_examples=40, deadline=None)
    def test_twisted_2graphs(self, g):
        self.check(g)

    @given(product_kgraphs())
    @settings(max_examples=40, deadline=None)
    def test_product_kgraphs(self, g):
        self.check(g)

    @given(abelian_kgraphs())
    @settings(max_examples=20, deadline=None)
    def test_abelian_kgraphs(self, g):
        self.check(g)


def test_conditions_imports_neither_spectral_nor_algebra():
    """`conditions` reads every verdict from the presentation: the
    truncation and the key product are the tests' oracles, so neither
    module may come back into it."""
    tree = ast.parse(Path(conditions.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                modules.add(node.module)
            else:  # from . import x
                modules.update(alias.name for alias in node.names)
    parts = {part for name in modules for part in name.split(".")}
    assert "graphs" in parts and "clifford" in parts
    assert not parts & {"spectral", "algebra"}


def test_conditions_expands_no_tail_and_has_no_level_budget():
    """The 1-graph count reads the presentation's backward depths, so no
    expansion, and no budget on the level, may come back into it."""
    tree = ast.parse(Path(conditions.__file__).read_text())
    called = {node.func.attr if isinstance(node.func, ast.Attribute)
              else getattr(node.func, "id", None)
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assigned = {target.id for node in ast.walk(tree)
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                if isinstance(target, ast.Name)}
    assert "count_classes" in called and "CONDITION_NAMES" in assigned
    assert not called & {"expand", "expanded_size"}
    assert "LEVEL_BUDGET" not in assigned
