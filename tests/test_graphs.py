import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtriple.graphs import (Edge, GraphFormatError, GraphPresentation,
                                GraphValidationError, graph_from_document,
                                graph_to_document, parse_graph)

from corpus import (bi_infinite_path, loop_with_exit, single_loop,
                    tree_with_ends, two_disjoint_loops)
from oracles import relabel


def doc(vertices, edges, tails=(), source_tails=None):
    d = {
        "k": 1,
        "vertices": list(vertices),
        "edges": [{"id": e, "source": s, "range": r} for e, s, r in edges],
        "tails": list(tails),
    }
    if source_tails is not None:
        d["source_tails"] = list(source_tails)
    return json.dumps(d)


class TestParse:
    def test_single_loop(self):
        g = parse_graph(doc(["v"], [("e", "v", "v")]))
        assert g.vertices == ("v",)
        assert g.classify().kind == "SingleLoop"

    def test_smallest_tail_graph(self):
        g = parse_graph(doc(["v", "w"], [("e", "v", "w")], tails=["w"]))
        ends = g.find_ends()
        assert [e.kind for e in ends] == ["tail"]
        assert not g.is_sink("w")

    def test_dangling_reference(self):
        with pytest.raises(GraphValidationError, match="undeclared"):
            parse_graph(doc(["v"], [("e", "v", "w")]))

    def test_duplicate_edge_id(self):
        with pytest.raises(GraphValidationError, match="duplicate edge"):
            parse_graph(doc(["v"], [("e", "v", "v"), ("e", "v", "v")]))

    def test_syntax_error_carries_position(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_graph("{not json")

    def test_unknown_fields_rejected(self):
        bad = json.loads(doc(["v"], [("e", "v", "v")]))
        bad["color"] = 1
        with pytest.raises(GraphFormatError, match="unknown"):
            parse_graph(json.dumps(bad))

    @pytest.mark.parametrize("k", [True, 1.0])
    def test_k_must_be_an_int(self, k):
        from graphtriple.kgraphs import kgraph_from_document
        bad = json.loads(doc(["v"], [("e", "v", "v")]))
        bad["k"] = k
        with pytest.raises(GraphFormatError):
            graph_from_document(bad)
        for rec in bad["edges"]:
            rec["color"] = 1
        with pytest.raises(GraphFormatError):
            kgraph_from_document(bad)

    def test_roundtrip(self):
        g = tree_with_ends(3)
        again = parse_graph(json.dumps(graph_to_document(g)))
        assert again.fingerprint() == g.fingerprint()


class TestStructure:
    def test_single_loop_report(self):
        rep = single_loop(1).structural_report()
        assert rep["loops"] == 1
        assert rep["loops_with_exit"] == 0
        assert rep["sinks"] == []
        assert rep["connected"]

    def test_loop_with_exit_detected(self):
        rep = loop_with_exit().structural_report()
        assert rep["loops_with_exit"] == 1

    def test_two_disjoint_loops_disconnected(self):
        rep = two_disjoint_loops().structural_report()
        assert not rep["connected"]
        assert rep["loops"] == 2

    def test_sink_end(self):
        g = GraphPresentation(["v", "w"], [Edge("e", "v", "w")])
        ends = g.find_ends()
        assert [e.kind for e in ends] == ["sink"]

    def test_loop_end_on_n_vertices(self):
        ends = single_loop(4).find_ends()
        assert len(ends) == 1 and ends[0].kind == "loop"
        assert len(ends[0].cycle_edges) == 4

    def test_two_tail_ends(self):
        ends = tree_with_ends(2).find_ends()
        assert [e.kind for e in ends] == ["tail", "tail"]


class TestSingleEntry:
    def test_single_loop_holds(self):
        assert single_loop(3).single_entry_check()["holds"]

    def test_double_entry_violation(self):
        g = GraphPresentation(
            ["a", "b", "v"],
            [Edge("e1", "a", "v"), Edge("e2", "b", "v")],
            tails=["v"],
            source_tails=["a", "b"],
        )
        chk = g.single_entry_check()
        assert not chk["holds"]
        assert chk["violations"] == {"v": 2}

    def test_tree_with_source_tail_holds(self):
        assert tree_with_ends(2).single_entry_check()["holds"]

    def test_bare_source_root_violates(self):
        g = GraphPresentation(
            ["b", "c"], [Edge("e", "b", "c")], tails=["c"]
        )
        chk = g.single_entry_check()
        assert not chk["holds"]
        assert chk["violations"] == {"b": 0}


class TestClassify:
    def test_loop3(self):
        c = single_loop(3).classify()
        assert (c.kind, c.n) == ("SingleLoop", 3)

    def test_tree(self):
        assert tree_with_ends(3).classify().kind == "DirectedTree"

    def test_loop_with_exit_is_other(self):
        assert loop_with_exit().classify().kind == "Other"

    def test_single_loop_implies_one_loop_end(self):
        for n in (1, 2, 4):
            g = single_loop(n)
            assert g.classify().kind == "SingleLoop"
            ends = g.find_ends()
            assert len(ends) == 1 and ends[0].kind == "loop"
            assert g.structural_report()["loops"] == 1

    def test_connected_single_entry_no_sinks_at_most_one_loop(self):
        # the single entry condition rules out loops except a single loop
        # (per connected component)
        for g in [single_loop(1), single_loop(3), tree_with_ends(2),
                  tree_with_ends(3), bi_infinite_path()]:
            if g.single_entry_check()["holds"] and g.connected():
                assert g.structural_report()["loops"] <= 1


class TestDepth:
    def test_backward_infinite_via_source_tail(self):
        g = tree_with_ends(2)
        assert g.backward_infinite("b")
        assert g.backward_infinite("c1")

    def test_backward_infinite_via_loop(self):
        assert single_loop(2).backward_infinite("v0")

    def test_finite_backward_depth(self):
        g = GraphPresentation(
            ["a", "b", "c"],
            [Edge("e1", "a", "b"), Edge("e2", "b", "c")],
            tails=["c"],
        )
        assert g.backward_depth("c") == 2
        assert g.backward_depth("a") == 0

    def test_backward_diamond_is_finite(self):
        # two entering paths of length 2 meet at v: a revisit, not a cycle
        g = GraphPresentation(
            ["a", "b", "c", "v"],
            [Edge("e1", "c", "a"), Edge("e2", "c", "b"),
             Edge("e3", "a", "v"), Edge("e4", "b", "v")],
            tails=["v"],
        )
        assert not g.backward_infinite("v")
        assert g.backward_depth("v") == 2

    def test_backward_depth_of_a_long_path(self):
        # deeper than the recursion limit
        verts = [f"p{i:04d}" for i in range(1500)]
        g = GraphPresentation(
            verts, [Edge(f"e{i:04d}", u, w)
                    for i, (u, w) in enumerate(zip(verts, verts[1:]))],
            tails=[verts[-1]],
        )
        assert g.backward_depth(verts[-1]) == 1499
        assert g.backward_infinite(verts[-1]) is False


class TestExpansion:
    def test_tail_expansion_names_and_boundary(self):
        amb = bi_infinite_path().expand(2)
        assert "v~t2" in amb.vertices and "v~s2" in amb.vertices
        assert amb.boundary_out == {"v~t2"}
        assert amb.boundary_in == {"v~s2"}

    def test_paths(self):
        amb = bi_infinite_path().expand(3)
        assert amb.paths_with_degree((2,), "v", "out-of") == [
            ("v~te1", "v~te2")]
        assert amb.paths_with_degree((2,), "v", "into") == [("v~se2", "v~se1")]


@st.composite
def relabelings(draw):
    g = draw(st.sampled_from([
        single_loop(1), single_loop(3), tree_with_ends(2), tree_with_ends(3),
    ]))
    vperm = draw(st.permutations(range(len(g.vertices))))
    eperm = draw(st.permutations(range(len(g.edge_order))))
    vmap = {v: f"V{vperm[i]}" for i, v in enumerate(g.vertices)}
    emap = {e: f"E{eperm[i]}" for i, e in enumerate(g.edge_order)}
    return g, vmap, emap


class TestRelabelInvariance:
    @given(relabelings())
    @settings(max_examples=40, deadline=None)
    def test_ends_map_along_relabeling(self, data):
        g, vmap, emap = data
        h = relabel(g, vmap, emap)
        ends_g = sorted((e.kind, tuple(sorted(vmap[v] for v in e.vertices)))
                        for e in g.find_ends())
        ends_h = sorted((e.kind, tuple(sorted(e.vertices)))
                        for e in h.find_ends())
        assert ends_g == ends_h

    @given(relabelings())
    @settings(max_examples=40, deadline=None)
    def test_single_entry_invariant(self, data):
        g, vmap, emap = data
        h = relabel(g, vmap, emap)
        assert g.single_entry_check()["holds"] == h.single_entry_check()["holds"]
