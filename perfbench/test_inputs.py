"""Tests for the benchmark's input generators and known-answer table.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import inputs  # noqa: E402
from graphtriple.graphs import graph_from_document  # noqa: E402
from graphtriple.kgraphs import kgraph_from_document  # noqa: E402

SEEDS = range(12)


def _requests(workload):
    for seed in SEEDS:
        yield from inputs.draw(workload, seed)


def _edge_map(doc, colour):
    return {e["source"]: e["range"] for e in doc["edges"]
            if e["color"] == colour}


def test_same_seed_same_requests():
    for workload in inputs.WORKLOADS:
        assert inputs.draw(workload, 7) == inputs.draw(workload, 7)
    assert inputs.draw("trees", 7) != inputs.draw("trees", 8)


def test_mix_does_not_depend_on_seed():
    for workload in inputs.WORKLOADS:
        mixes = {
            tuple(sorted((r.rid, tuple(a for a in r.argv if a.isdigit()))
                         for r in inputs.draw(workload, seed)))
            for seed in SEEDS
        }
        assert len(mixes) == 1


def test_trees_are_single_entry_without_sinks():
    for req in _requests("trees"):
        if req.rid.startswith(("tree", "spectral-")):
            doc = req.doc
            coeffs = inputs.boundary_coefficients(doc)
            assert set(coeffs.values()) == {0}
            into = {v: 0 for v in doc["vertices"]}
            for e in doc["edges"]:
                into[e["range"]] += 1
            assert [v for v, n in into.items() if n == 0] == \
                doc["source_tails"]
            assert all(n <= 1 for n in into.values())
            g = graph_from_document(doc)
            assert g.classify().kind == "DirectedTree"
            assert not any(g.is_sink(v) for v in g.vertices)


def test_tree_shapes_have_the_named_number_of_ends():
    rng = random.Random(0)
    for name, (shape, _) in inputs.TREES.items():
        doc = inputs.tree_doc(rng, shape)
        assert len(doc["tails"]) == int(name[-1])
        root = doc["source_tails"][0]
        assert inputs.reachable_ends(doc, root) == int(name[-1])


def test_spectral_target_counts_reachable_ends():
    for req in _requests("trees"):
        if req.argv[0] == "spectral":
            v = req.argv[3]
            g = graph_from_document(req.doc)
            ends = 0
            stack, seen = [v], set()
            while stack:
                u = stack.pop()
                if u not in seen:
                    seen.add(u)
                    ends += u in g.tails
                    stack.extend(g.edges[e].range for e in g.out_edges(u))
            assert req.spectral_target == 2.0 * ends


def test_mutant_orientability_follows_the_boundary_coefficients():
    want = {"double_entry": "fails", "sink": "fails", "two_loops": "holds",
            "loop_exit": "holds"}
    for seed in SEEDS:
        got = {r.rid: r.statuses["orientability"]
               for r in inputs.draw("trees", seed) if r.rid in want}
        assert got == want


def test_mutants_break_their_named_structure():
    rng = random.Random(3)
    double = inputs.double_entry_doc(rng)
    assert max(inputs.boundary_coefficients(double).values()) == 1
    sink = graph_from_document(inputs.sink_doc(rng))
    assert any(sink.is_sink(v) for v in sink.vertices)
    assert not graph_from_document(inputs.two_loops_doc(rng)).connected()
    loop_exit = graph_from_document(inputs.loop_exit_doc(rng))
    (cycle,) = loop_exit.simple_cycles()
    assert loop_exit.loop_has_exit(cycle)
    for seed in SEEDS:
        doc = inputs.single_exit_violating_doc(random.Random(seed))
        assert not kgraph_from_document(doc).single_exit_check()["holds"]


def test_expected_statuses_name_real_conditions():
    for workload in ("trees", "kgraphs"):
        for req in _requests(workload):
            if req.argv[0] == "conditions":
                assert set(req.statuses) <= set(inputs.CONDITIONS)
                if req.exit_code == 0:
                    assert set(req.statuses.values()) == {"holds"}
                    assert len(req.statuses) == len(inputs.CONDITIONS)
                else:
                    assert any(s != "holds" for s in req.statuses.values())


def test_abelian_kgraph_maps_commute_and_are_permutations():
    for req in _requests("kgraphs"):
        if req.rid == "single_exit_violating":
            continue
        doc = req.doc
        maps = [_edge_map(doc, c) for c in range(1, doc["k"] + 1)]
        for m in maps:
            assert sorted(m) == sorted(doc["vertices"])
            assert sorted(m.values()) == sorted(doc["vertices"])
        for a in maps:
            for b in maps:
                assert all(a[b[v]] == b[a[v]] for v in doc["vertices"])


def test_every_colour_pair_has_a_square_at_every_vertex():
    for req in _requests("kgraphs"):
        doc = req.doc
        k = doc["k"]
        edges = {e["id"]: e for e in doc["edges"]}
        covered = set()
        for sq in doc["squares"]:
            first = [edges[e] for e in sq["first"]]
            second = [edges[e] for e in sq["second"]]
            assert first[0]["source"] == second[0]["source"]
            assert first[1]["range"] == second[1]["range"]
            assert (first[0]["color"], first[1]["color"]) == \
                (second[1]["color"], second[0]["color"])
            covered.add((first[0]["source"], first[0]["color"],
                         first[1]["color"]))
        want = {(v, c, d) for v in doc["vertices"]
                for c in range(1, k + 1) for d in range(c + 1, k + 1)}
        assert covered == want
        kgraph_from_document(doc)  # squares and cubes validate


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12])
def test_connectivity_rule_matches_gcd_on_cyclic_groups(n):
    rng = random.Random(n)
    for _ in range(20):
        shifts = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
        gens = [(s,) for s in shifts]
        connected = inputs.generated_subgroup_order((n,), gens) == n
        assert connected == (math.gcd(n, *shifts) == 1)


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (2, 2), (6,)])
def test_connected_flag_matches_the_graph(orders):
    rng = random.Random(str(orders))
    for k in (2, 3):
        for connected in (True, False):
            doc = inputs.abelian_kgraph(rng, k, orders, connected)
            assert kgraph_from_document(doc).connected() == connected


def test_disconnected_kgraphs_expect_irreducibility_to_fail():
    for req in _requests("kgraphs"):
        if req.rid != "single_exit_violating":
            connected = kgraph_from_document(req.doc).connected()
            assert (req.exit_code == 0) == connected
            if not connected:
                assert req.statuses["irreducibility"] == "fails"


def test_ko_sign_table_and_clifford_check():
    assert inputs.KO_SIGNS[1] == (1, -1, 0)
    assert all(signs[2] == 0 for k, signs in inputs.KO_SIGNS.items() if k % 2)
    entry = {
        str(k): {"computed": dict(zip(("eps", "eps_prime", "eps_dprime"),
                                      inputs.KO_SIGNS[k % 8]))}
        for k in range(1, 6)
    }
    report = {"pass": True, "table": entry,
              "omega_squares": {str(k): "1" if k % 2 else "-1"
                                for k in range(1, 6)}}
    req = inputs.Request("kmax5", ("clifford", "--kmax", "5"), None, 0, kmax=5)
    assert inputs.check(req, 0, report) == []
    entry["3"]["computed"]["eps"] = 1
    assert inputs.check(req, 0, report) == ["k=3: signs {'eps': 1, "
                                            "'eps_prime': 1, 'eps_dprime': 0}"
                                            ", expected {'eps': -1, "
                                            "'eps_prime': 1, 'eps_dprime': 0}"]


def test_check_flags_a_wrong_verdict():
    req = next(r for r in inputs.draw("trees", 0) if r.rid == "two_loops")
    report = {"conditions": {c: {"status": "holds"}
                             for c in inputs.CONDITIONS}}
    assert inputs.check(req, 2, report) == [
        "irreducibility is holds, expected fails"]
    assert inputs.check(req, 0, report) == ["exit 0, expected 2"]
