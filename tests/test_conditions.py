import json

import pytest

from graphtriple import conditions, hochschild
from graphtriple.conditions import (CONDITION_NAMES, evaluate_all,
                                    hypothesis_check, kgraph_hypothesis_check)
from graphtriple.traces import NoFaithfulTraceError, solve_graph_trace

from corpus import (bi_infinite_path, double_entry_tree, dyadic_tree,
                    loop_with_exit, loop_with_exit_tree, one_vertex_3graph,
                    single_loop, sink_path, single_exit_violating_2graph,
                    torus_2graph, tree_with_ends, two_disjoint_loops,
                    two_vertex_2graph)

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
        rep = evaluate_all(g, window=10000, **kw)
        statuses = {n: e.status for n, e in rep.entries.items()}
        assert rep.all_hold(), (name, statuses)
        assert set(statuses) == set(CONDITION_NAMES)
        assert rep.exit_code() == 0

    def test_double_entry_fails_orientability_with_witness(self):
        rep = evaluate_all(double_entry_tree(), level=2, window=10000)
        entry = rep.entries["orientability"]
        assert entry.status == "fails"
        assert entry.witness["nonzero_boundary_coefficients"] == {"c": 1}

    def test_loop_with_exit_marks_not_applicable(self):
        rep = evaluate_all(loop_with_exit_tree(), level=2, window=10000)
        assert rep.exit_code() == 3
        na = [n for n, e in rep.entries.items()
              if e.status == "not_applicable"]
        assert "dimension" in na and "closedness" in na
        assert rep.entries["dimension"].witness["violated_hypothesis"] == \
            "faithful_graph_trace_exists"

    def test_disconnected_fails_irreducibility(self):
        rep = evaluate_all(two_disjoint_loops(), window=10000)
        entry = rep.entries["irreducibility"]
        assert entry.status == "fails"
        assert entry.witness["dimension_interior"] == 2

    def test_sink_fails_orientability(self):
        rep = evaluate_all(sink_path(), level=2, window=10000)
        assert rep.entries["orientability"].status == "fails"
        assert rep.entries["orientability"].witness[
            "nonzero_boundary_coefficients"]["w"] == 1

    def test_single_exit_violation_fails_orientability(self):
        rep = evaluate_all(single_exit_violating_2graph(), level=2)
        entry = rep.entries["orientability"]
        assert entry.status == "fails"
        assert entry.witness["failing_step"]["step"] == "step3_ck_cancellation"

    def test_report_json_deterministic(self):
        rep1 = evaluate_all(single_loop(1), window=5000)
        rep2 = evaluate_all(single_loop(1), window=5000)
        assert json.dumps(rep1.to_json(), sort_keys=True) == \
            json.dumps(rep2.to_json(), sort_keys=True)

    def test_k1_kgraph_presentation_is_a_value_error(self):
        from graphtriple.graphs import Edge
        from graphtriple.kgraphs import KGraphPresentation
        g = KGraphPresentation(1, ["v"], [Edge("e", "v", "v", 1)], [])
        with pytest.raises(ValueError, match="graph_from_document"):
            evaluate_all(g, level=1, window=1000)

    def test_one_profile_per_distinct_multiplicity_model(self, monkeypatch):
        # the five vertices of a 5-loop share one multiplicity model
        calls = []
        real = conditions.singular_profile

        def counted(model, window):
            calls.append(model)
            return real(model, window)
        monkeypatch.setattr(conditions, "singular_profile", counted)
        report = evaluate_all(single_loop(5), level=1, window=1000)
        samples = report.entries["dimension"].witness["samples"]
        assert len(samples) == 5 and len(calls) == 1
        assert len({s["limit"] for s in samples}) == 1

    def test_kgraph_cycle_is_built_once(self, monkeypatch):
        calls = []
        real = hochschild.orientation_cycle_kgraph

        def counted(g):
            calls.append(g)
            return real(g)
        for module in (hochschild, conditions):
            monkeypatch.setattr(module, "orientation_cycle_kgraph", counted,
                                raising=False)
        report = evaluate_all(torus_2graph(), level=1, window=1000)
        assert report.entries["orientability"].status == "holds"
        assert len(calls) == 1

    def test_report_shape(self):
        for g in (single_loop(1), torus_2graph()):
            doc = evaluate_all(g, level=1, window=5000).to_json()
            assert doc["report_version"] == 3
            assert set(doc["conditions"]) == set(CONDITION_NAMES)
            for entry in doc["conditions"].values():
                assert entry["status"] in ("holds", "fails", "not_applicable")
                assert entry["method"] in ("exact", "numeric", "theorem")
                assert entry["name"] in CONDITION_NAMES
                if entry["method"] == "theorem":
                    assert entry["status"] == "holds"
            theorems = {name for name, entry in doc["conditions"].items()
                        if entry["method"] == "theorem"}
            assert theorems == {"regularity", "closedness", "spin_c",
                                "finiteness"}
