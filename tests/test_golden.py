"""Byte-for-byte golden reports for `graphtriple conditions --level 1` and
`graphtriple clifford`.

The files in tests/golden/ hold the CLI output for a fixed set of corpus
presentations and for the Clifford sign table at two values of --kmax.
Refactors of the product kernel, the evaluators and the Clifford layer must
keep them unchanged.  To rewrite them after an intended report change, run

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpus import (one_vertex_3graph, single_exit_violating_2graph,  # noqa: E402
                    single_loop, torus_2graph, tree_with_ends,
                    two_vertex_2graph)
from graphtriple.cli import run  # noqa: E402
from graphtriple.graphs import GraphPresentation, graph_to_document  # noqa: E402

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "torus_2graph": torus_2graph,
    "two_vertex_2graph": two_vertex_2graph,
    "one_vertex_3graph": one_vertex_3graph,
    "single_exit_violating_2graph": single_exit_violating_2graph,
    "tree_with_ends_2": lambda: tree_with_ends(2),
    "single_loop_3": lambda: single_loop(3),
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


def _report(name: str, workdir: Path) -> str:
    out = workdir / f"{name}.report.json"
    if name in CLIFFORD_CASES:
        run(CLIFFORD_CASES[name] + ["--out", str(out)])
        return out.read_text()
    src = workdir / f"{name}.json"
    src.write_text(json.dumps(_document(CASES[name]())))
    run(["conditions", str(src), "--level", "1", "--out", str(out)])
    return out.read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_conditions_report_matches_golden(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert _report(name, tmp_path) == expected


@pytest.mark.parametrize("name", sorted(CLIFFORD_CASES))
def test_clifford_report_matches_golden(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert _report(name, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES) + sorted(CLIFFORD_CASES):
            (GOLDEN_DIR / f"{case}.json").write_text(_report(case, Path(tmp)))
            print(f"wrote {case}")
