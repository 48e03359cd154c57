"""Byte-for-byte golden reports for `graphtriple conditions`,
`graphtriple spectral` and `graphtriple clifford`.

The files in tests/golden/ hold the CLI output for a fixed set of corpus
presentations, each at the truncation level given in CASES, for the
spectral profiles in SPECTRAL_CASES and for the Clifford sign table at two
values of --kmax.
Refactors of the product kernel, the evaluators and the Clifford layer must
keep them unchanged.  To rewrite them after an intended report change, run

    PYTHONPATH=src python tests/test_golden.py

A change to the `conditions` report fields bumps REPORT_VERSION.  The
report-version-1 goldens stay in tests/golden/v1/ and every change since
is listed in V1_TO_V2: each v1 twin with those changes applied must equal
its current golden byte for byte, so no status and no other field moves
silently.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpus import (bi_infinite_path, double_entry_tree,  # noqa: E402
                    dyadic_tree, loop_with_exit, loop_with_exit_tree,
                    one_vertex_3graph, single_exit_violating_2graph,
                    single_loop, sink_path, torus_2graph, tree_with_ends,
                    two_disjoint_loops, two_extension_2graph,
                    two_vertex_2graph)
from graphtriple.cli import run  # noqa: E402
from graphtriple.graphs import GraphPresentation, graph_to_document  # noqa: E402

GOLDEN_DIR = Path(__file__).parent / "golden"
V1_DIR = GOLDEN_DIR / "v1"

# name -> (presentation factory, truncation level); the 1-graphs below
# the first six run at level 2 unless level 2 takes over a second
CASES = {
    "torus_2graph": (torus_2graph, 1),
    "two_vertex_2graph": (two_vertex_2graph, 1),
    "one_vertex_3graph": (one_vertex_3graph, 1),
    "single_exit_violating_2graph": (single_exit_violating_2graph, 1),
    "tree_with_ends_2": (lambda: tree_with_ends(2), 1),
    "single_loop_3": (lambda: single_loop(3), 1),
    "bi_infinite_path": (bi_infinite_path, 2),
    "sink_path": (sink_path, 2),
    "double_entry_tree": (double_entry_tree, 2),
    "two_disjoint_loops": (two_disjoint_loops, 2),
    "loop_with_exit": (loop_with_exit, 2),
    "dyadic_tree_2": (lambda: dyadic_tree(2), 1),
    "torus_2graph_L2": (torus_2graph, 2),
    "two_vertex_2graph_L2": (two_vertex_2graph, 2),
    "tree_with_ends_3": (lambda: tree_with_ends(3), 1),
    "tree_with_ends_4_L2": (lambda: tree_with_ends(4), 2),
    "loop_with_exit_tree": (loop_with_exit_tree, 2),
    "two_extension_2graph": (two_extension_2graph, 1),
}

# name -> (presentation factory, spectral flags); a case with
# "--format csv" is stored as <name>.csv
SPECTRAL_CASES = {
    "spectral_tree_with_ends_2": (lambda: tree_with_ends(2), ["--vertex", "b"]),
    "spectral_tree_with_ends_3_W1e6": (
        lambda: tree_with_ends(3), ["--vertex", "c2", "--window", "1000000"]),
    "spectral_single_loop_3": (lambda: single_loop(3), []),
    "spectral_sink_path_csv": (sink_path, ["--vertex", "v", "--format", "csv"]),
}

CLIFFORD_CASES = {
    "clifford_kmax5": ["clifford", "--kmax", "5"],
    "clifford_kmax8": ["clifford", "--kmax", "8"],
}


def _document(g) -> dict:
    if isinstance(g, GraphPresentation):
        return graph_to_document(g)
    squares = sorted({tuple(sorted(pair)) for pair in g._swap.items()})
    return {
        "k": g.k,
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "source": e.source, "range": e.range, "color": e.color}
            for e in (g.edges[eid] for eid in g.edge_order)
        ],
        "tails": [],
        "squares": [{"first": list(a), "second": list(b)} for a, b in squares],
    }


def _golden_path(name: str) -> Path:
    csv = "csv" in SPECTRAL_CASES.get(name, (None, []))[1]
    return GOLDEN_DIR / f"{name}.{'csv' if csv else 'json'}"


def _report(name: str, workdir: Path) -> str:
    out = workdir / f"{name}.report.json"
    if name in CLIFFORD_CASES:
        run(CLIFFORD_CASES[name] + ["--out", str(out)])
        return out.read_text()
    src = workdir / f"{name}.json"
    if name in SPECTRAL_CASES:
        factory, flags = SPECTRAL_CASES[name]
        argv = ["spectral", str(src)] + flags
    else:
        factory, level = CASES[name]
        argv = ["conditions", str(src), "--level", str(level)]
    src.write_text(json.dumps(_document(factory())))
    run(argv + ["--out", str(out)])
    return out.read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_conditions_report_matches_golden(name, tmp_path):
    expected = _golden_path(name).read_text()
    assert _report(name, tmp_path) == expected


DROP = object()

# Every conditions-report change from report version 1, as (path, value);
# DROP removes the field where the v1 report has it.
V1_TO_V2 = [
    (("report_version",), 2),
    # the truncated Theta-span diagnostic of the commutant probe, which no
    # verdict read; irreducibility rests on dimension_interior alone
    (("conditions", "irreducibility", "witness", "theta_matrices"), DROP),
    (("conditions", "irreducibility", "witness", "theta_span_dimension"), DROP),
    (("conditions", "irreducibility", "witness", "theta_span_interior"), DROP),
    (("conditions", "irreducibility", "witness", "truncation_artifacts"), DROP),
]


def _apply_changes(doc: dict, changes) -> dict:
    for path, value in changes:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("name", sorted(CASES))
def test_v1_twin_differs_only_by_listed_changes(name):
    v1 = json.loads((V1_DIR / f"{name}.json").read_text())
    assert v1["report_version"] == 1
    v2 = _apply_changes(v1, V1_TO_V2)
    expected = _golden_path(name).read_text()
    assert json.dumps(v2, sort_keys=True, indent=2) + "\n" == expected


@pytest.mark.parametrize("name", sorted(SPECTRAL_CASES))
def test_spectral_report_matches_golden(name, tmp_path):
    expected = _golden_path(name).read_text()
    assert _report(name, tmp_path) == expected


@pytest.mark.parametrize("name", sorted(CLIFFORD_CASES))
def test_clifford_report_matches_golden(name, tmp_path):
    expected = _golden_path(name).read_text()
    assert _report(name, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES) + sorted(SPECTRAL_CASES) + sorted(CLIFFORD_CASES):
            _golden_path(case).write_text(_report(case, Path(tmp)))
            print(f"wrote {case}")
