"""Acceptance suite: one criterion per test, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All tolerances are pinned here; exact statements are rational identities.
"""

import itertools
import random
import time
from fractions import Fraction

from graphtriple.algebra import AlgebraElement
from graphtriple.clifford import reality_operator, SIGN_TABLE
from graphtriple.conditions import (evaluate_all, hypothesis_check,
                                    kgraph_hypothesis_check)
from graphtriple.graphs import Edge, GraphPresentation
from graphtriple.hochschild import (boundary_coefficients_1graph,
                                    check_orientation_1graph,
                                    orientation_cycle_kgraph,
                                    pi_D_identity_check,
                                    verify_cancellation_steps)
from graphtriple.scalars import GaussianRational
from graphtriple.spectral import (build_truncation, closedness_eval,
                                  decompose_projection, first_order_check,
                                  generator_keys, reality_check_1graph,
                                  semifinite_trace, singular_profile,
                                  spin_c_generation_check,
                                  total_multiplicities, vertex_multiplicities)
from graphtriple.traces import (canonical_F_form, fixed_point_norms,
                                canonical_F_form_numeric, ktheory_ranks,
                                solve_graph_trace, solve_kgraph_trace)

from corpus import (ORIENTATION_CORPUS_1GRAPH, bi_infinite_path,
                    double_entry_tree, dyadic_tree, loop_with_exit_tree,
                    one_vertex_3graph, single_exit_violating_2graph,
                    single_loop, sink_path, torus_2graph, tree_with_ends,
                    two_disjoint_loops, two_vertex_2graph)
from oracles import (degree_reversal_check, direct_summation_oracle,
                     first_order_left_counterexample)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_circle_dixmier_limit():
    """Single loop, trace 1: F_T at N = 10^6 within 0.2 of 2, extrapolated
    within 0.02, in under 10 seconds, cross-checked by direct summation."""
    start = time.monotonic()
    g = single_loop(1)
    trace = solve_graph_trace(g)
    model = total_multiplicities(g, trace)
    window = 10 ** 6
    prof = singular_profile(model, window)
    elapsed = time.monotonic() - start
    raw = prof.diagnostics["raw_F_at_window"]
    oracle = direct_summation_oracle(model, window)
    ok = (
        abs(raw - 2.0) <= 0.2
        and abs(prof.limit_estimate - 2.0) <= 0.02
        and abs(raw - oracle) < 1e-9
        and elapsed < 10.0
    )
    report(1, ok,
           f"raw F = {raw:.4f} (target 2 +- 0.2), extrapolated "
           f"{prof.limit_estimate:.4f} (+- 0.02), oracle agrees, "
           f"{elapsed:.1f}s < 10s")


def test_criterion_2_semifinite_trace_identity():
    """Trees with 1, 2, 3 ends: p_v profile limit within 5% of 2 tau(p_v) at
    every interior vertex; tau~(p_v Phi_k) = tau(p_v) exactly for |k| <= 4."""
    level = 4
    window = 10 ** 6
    all_ok = True
    details = []
    for n_ends in (1, 2, 3):
        g = tree_with_ends(n_ends)
        trace = solve_graph_trace(g)
        tr = build_truncation(g, trace, level)
        interior = [
            v for v in g.vertices
            if g.backward_infinite(v) and not g.reaches_sink(v)
        ]
        assert interior, "trees must have interior vertices"
        for v in interior:
            target = 2.0 * float(trace.vertex_value(v))
            prof = singular_profile(
                vertex_multiplicities(g, trace, v), window
            )
            numeric_ok = abs(prof.limit_estimate - target) <= 0.05 * target
            exact_ok = True
            for k in range(-level, level + 1):
                theta = decompose_projection(v, k, tr)  # validated pointwise
                value = semifinite_trace(theta, trace)
                exact_ok = exact_ok and value == GaussianRational(
                    trace.vertex_value(v)
                )
            all_ok = all_ok and numeric_ok and exact_ok
            details.append(f"{n_ends}-end/{v}: lim={prof.limit_estimate:.3f}"
                           f"~{target:.1f}, exact |k|<=4 ok={exact_ok}")
    report(2, all_ok, "; ".join(details[:4]) + " ...")


def test_criterion_3_orientation_1graphs():
    """b(c) = 0 exactly and pi_D(c) = identity away from the cut on >= 10
    single-entry no-sink graphs; entry count m >= 2 gives coefficient m-1."""
    ok = True
    assert len(ORIENTATION_CORPUS_1GRAPH) >= 10
    for name, g in ORIENTATION_CORPUS_1GRAPH:
        rep = check_orientation_1graph(g)
        ok = ok and rep["closed_form_zero"]
        ok = ok and rep["truncated_boundary_is_boundary_residue"]
        ok = ok and rep["pi_D_identity_on_interior"]
    # multiplicity formula witnesses
    coeffs2 = boundary_coefficients_1graph(double_entry_tree())
    triple = GraphPresentation(
        ["b", "c"],
        [Edge("e1", "b", "c"), Edge("e2", "b", "c"), Edge("e3", "b", "c")],
        tails=["c"], source_tails=["b"],
    )
    coeffs3 = boundary_coefficients_1graph(triple)
    ok = ok and coeffs2["c"] == 1 and coeffs3["c"] == 2
    report(3, ok,
           f"{len(ORIENTATION_CORPUS_1GRAPH)} single-entry no-sink graphs "
           "orientable exactly; |v|_1 = 2, 3 give coefficients 1, 2")


def test_criterion_4_orientation_kgraphs():
    """b(c_2) = b(c_3) = 0 exactly, pi_D(c_k) = omega_C (x) identity, and the
    three cancellation proof steps verified, within 60 s at k = 3."""
    graphs = [
        ("torus", torus_2graph()),
        ("two-vertex", two_vertex_2graph()),
        ("3-graph", one_vertex_3graph()),
    ]
    ok = True
    start = time.monotonic()
    for name, g in graphs:
        cycle = orientation_cycle_kgraph(g)
        ok = ok and cycle.boundary().is_zero()
        ok = ok and pi_D_identity_check(cycle)["pass"]
        steps = verify_cancellation_steps(g)
        ok = ok and steps["pass"]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(4, ok, f"b(c_k) = 0, pi_D(c_k) = omega_C for k = 2, 3; "
                  f"cancellation steps verified ({elapsed:.1f}s < 60s)")


def test_criterion_5_reality_sign_table():
    """Computed (eps, eps', eps'') match the mod-8 table for k = 1..8, with
    the degree-reversal sign on vectors with entries in [-3, 3]."""
    ok = True
    for k in range(1, 9):
        data = reality_operator(k)
        ok = ok and (data.eps, data.eps_prime, data.eps_dprime) == SIGN_TABLE[k % 8]
        ok = ok and data.degree_reversal_sign == (-1) ** (((k + 1) // 2) * (k + 2))
        if k <= 3:
            vectors = list(itertools.product(range(-3, 4), repeat=k))
        else:
            vectors = [tuple((3 * j + i) % 7 - 3 for i in range(k))
                       for j in range(16)]
            vectors += [tuple(1 if i == j else 0 for i in range(k))
                        for j in range(k)]
        ok = ok and degree_reversal_check(k, vectors)
    report(5, ok, "signs match the mod-8 table for k = 1..8; degree "
                  "reversal verified on [-3,3] windows")


def test_criterion_6_closedness():
    """100 randomized generator tuples per presentation vanish exactly on
    both routes; det = 0 whenever the degree columns sum to zero."""
    ok = True
    rng = random.Random(20260809)
    # gauge route on 1-graphs
    for g in (single_loop(1), tree_with_ends(2)):
        trace = solve_graph_trace(g)
        amb = g.expand(3)
        keys = generator_keys(amb, 2)
        for _ in range(100):
            key = rng.choice(keys)
            a = AlgebraElement(amb, {key: GaussianRational(1)})
            ok = ok and closedness_eval(g, trace, [a])["is_zero"]
    # determinant route on 2-graphs
    det_zero_checked = 0
    for g in (torus_2graph(), two_vertex_2graph()):
        trace = solve_kgraph_trace(g)
        keys = generator_keys(g, 2)
        for _ in range(100):
            k1, k2 = rng.choice(keys), rng.choice(keys)
            tup = [AlgebraElement(g, {k: GaussianRational(1)}) for k in (k1, k2)]
            res = closedness_eval(g, trace, tup)
            ok = ok and res["is_zero"]
            if res["columns_sum_zero"]:
                ok = ok and res["det"] == 0
                det_zero_checked += 1
    ok = ok and det_zero_checked > 0
    report(6, ok, "100 tuples per presentation vanish exactly; "
                  f"{det_zero_checked} zero-column cases confirmed det = 0")


def test_criterion_7_first_order_and_spin_c():
    """first_order_check and spin_c pass exactly at L = 3 on all corpora;
    the left-action sanity counterexample is detected."""
    ok = True
    one_graphs = [single_loop(1), single_loop(3), bi_infinite_path(),
                  tree_with_ends(2)]
    for g in one_graphs:
        trace = solve_graph_trace(g)
        tr = build_truncation(g, trace, 3)
        ok = ok and first_order_check(tr)["pass"]
        ok = ok and spin_c_generation_check(tr)["pass"]
        ok = ok and reality_check_1graph(tr)["pass"]
    kgraphs = [torus_2graph(), two_vertex_2graph(), one_vertex_3graph()]
    for g in kgraphs:
        trace = solve_kgraph_trace(g)
        tr = build_truncation(g, trace, 3)
        ok = ok and first_order_check(tr)["pass"]
        ok = ok and spin_c_generation_check(tr)["pass"]
    tree_trunc = build_truncation(
        tree_with_ends(2), solve_graph_trace(tree_with_ends(2)), 2
    )
    witness = first_order_left_counterexample(tree_trunc)
    ok = ok and witness is not None
    report(7, ok, "first order and spin_c exact at L = 3 on all corpora; "
                  f"left-action witness {witness is not None}")


def test_criterion_8_ktheory_and_traces():
    """K-theory ranks on 10 hand-built graphs; dyadic figure values exact."""
    cases = [
        (single_loop(1), {"k0": 1, "k1": 1}),
        (single_loop(2), {"k0": 1, "k1": 1}),
        (single_loop(3), {"k0": 1, "k1": 1}),
        (tree_with_ends(1), {"k0": 1, "k1": 0}),
        (tree_with_ends(2), {"k0": 2, "k1": 0}),
        (tree_with_ends(3), {"k0": 3, "k1": 0}),
        (tree_with_ends(4), {"k0": 4, "k1": 0}),
        (sink_path(), {"k0": 1, "k1": 0}),
        (two_disjoint_loops(), {"k0": 2, "k1": 2}),
        (dyadic_tree(2), {"k0": 4, "k1": 0}),
    ]
    ok = all(ktheory_ranks(g) == expected for g, expected in cases)
    g = dyadic_tree(2)
    trace = solve_graph_trace(g, {e.id: Fraction(1, 4) for e in g.find_ends()})
    ok = ok and trace.values["r"] == 1
    ok = ok and trace.values["r0"] == Fraction(1, 2)
    ok = ok and trace.values["r01"] == Fraction(1, 4)
    report(8, ok, "10 rank cases match; dyadic values 1, 1/2, 1/4 exact")


def test_criterion_9_finiteness_dichotomy():
    """Norm inequality exact on 100 randomized F_c elements; the dyadic
    partial sums have bounded Hilbert norms and C*-norms 2^{N/2} (1%)."""
    ok = True
    rng = random.Random(1729)
    coeff_pool = [GaussianRational(1), GaussianRational(-1),
                  GaussianRational(2), GaussianRational(Fraction(1, 2)),
                  GaussianRational(0, 1), GaussianRational(3)]
    count = 0
    for g in (tree_with_ends(2), tree_with_ends(3)):
        trace = solve_graph_trace(g)
        amb = g.expand(3)
        diag = [k for k in generator_keys(amb, 2) if k[0] == k[1]]
        for _ in range(50):
            f = AlgebraElement.zero(amb)
            for key in rng.sample(diag, min(4, len(diag))):
                f = f + AlgebraElement(amb, {key: rng.choice(coeff_pool)})
            form = canonical_F_form(f, g)
            norms = fixed_point_norms(form, trace)
            ok = ok and norms["hilbert_norm_sq"] >= (
                norms["min_end_trace"] * norms["module_norm_sq"]
            )
            count += 1
    ok = ok and count == 100

    # dyadic partial sums a_N = sum 2^{i/4} p_i with tau(p_i) = 2^{-i}
    depth = 8
    g = dyadic_tree(depth)
    trace = solve_graph_trace(
        g, {e.id: Fraction(1, 2 ** depth) for e in g.find_ends()}
    )
    spine = ["r" + "0" * i for i in range(depth + 1)]
    hilbert_bound = sum(2.0 ** (-i / 2) for i in range(1, 200))
    for N in (4, 6, 8):
        projections = [(2.0 ** (i / 4.0), spine[i]) for i in range(1, N + 1)]
        form = canonical_F_form_numeric(projections, g)
        norms = fixed_point_norms(form, trace)
        growth = 2.0 ** (N / 2)
        ok = ok and abs(norms["cstar_norm_sq"] - growth) <= 0.01 * growth
        ok = ok and norms["hilbert_norm_sq"] <= hilbert_bound
    report(9, ok, "norm inequality exact on 100 samples; dyadic C*-norms "
                  "grow as 2^{N/2} within 1% with bounded Hilbert norms")


def test_criterion_10_condition_oracle_and_mutants():
    """evaluate_all returns nine holds on every hypothesis-passing
    presentation; five crafted mutants each flip a condition with witness."""
    passing = [
        ("loop1", single_loop(1), {}),
        ("loop3", single_loop(3), {}),
        ("bi_path", bi_infinite_path(), {"level": 2}),
        ("tree2", tree_with_ends(2), {"level": 2}),
        ("torus", torus_2graph(), {"level": 2}),
        ("two_vertex_2graph", two_vertex_2graph(), {"level": 2}),
        ("3graph", one_vertex_3graph(), {"level": 1}),
    ]
    ok = len(passing) >= 5
    for name, g, kw in passing:
        if isinstance(g, GraphPresentation):
            hyp = hypothesis_check(g)
            hyp_ok = all(hyp[k] for k in (
                "connected", "locally_finite", "no_sinks",
                "faithful_graph_trace_exists", "single_entry", "fg_ktheory",
            ))
        else:
            hyp = kgraph_hypothesis_check(g)
            hyp_ok = all(hyp[k] for k in (
                "connected", "faithful_graph_trace_exists", "single_exit",
            ))
        rep = evaluate_all(g, **kw)
        ok = ok and hyp_ok and rep.all_hold()

    mutants = [
        ("double_entry", double_entry_tree(), {"level": 2}),
        ("sink_path", sink_path(), {"level": 2}),
        ("two_loops", two_disjoint_loops(), {}),
        ("loop_with_exit", loop_with_exit_tree(), {"level": 2}),
        ("single_exit_violating", single_exit_violating_2graph(), {"level": 2}),
    ]
    flipped = 0
    for name, g, kw in mutants:
        rep = evaluate_all(g, **kw)
        bad = [e for e in rep.entries.values() if e.status != "holds"]
        if bad and all(e.witness is not None for e in bad[:1]):
            flipped += 1
    ok = ok and flipped == 5
    report(10, ok, f"{len(passing)} presentations hold all nine; "
                   f"{flipped}/5 mutants flip a condition with witness")
