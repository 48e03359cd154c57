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
is listed in V1_TO_V2 and V2_TO_V3: each v1 twin with those changes
applied must equal its current golden byte for byte, so no status and no
other field moves silently.  A V2_TO_V3 change applies only where the
version-2 entry holds.

Since version 3, regularity, closedness, spin_c and finiteness report
method "theorem" with their argument instead of a sample count.  The
computations that produced those counts run here as oracles on every case
whose report has a theorem entry, and must hold on the same samples.
"""

import json
import math
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
from graphtriple.algebra import (AlgebraElement, delta_action,  # noqa: E402
                                 key_degree)
from graphtriple.cli import run  # noqa: E402
from graphtriple.conditions import THEOREMS  # noqa: E402
from graphtriple.graphs import (GraphPresentation,  # noqa: E402
                                GraphValidationError, graph_to_document)
from graphtriple.scalars import GaussianRational  # noqa: E402
from graphtriple.spectral import (build_truncation,  # noqa: E402
                                  closedness_eval, generator_keys,
                                  spin_c_generation_check)
from graphtriple.traces import (NonDiagonalError,  # noqa: E402
                                canonical_F_form, fixed_point_norms,
                                solve_graph_trace, solve_kgraph_trace)

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


def _holds(name, case=lambda witness: True):
    """Applies where the v2 entry `name` holds with a witness of `case`."""
    def applies(v2: dict) -> bool:
        entry = v2["conditions"][name]
        return entry["status"] == "holds" and case(entry["witness"])
    return applies


def _theorem(name, changes, case=lambda witness: True):
    """method "theorem" and the (path under the entry, value) changes,
    where the v2 entry `name` holds with a witness of `case`."""
    applies = _holds(name, case)
    return [(("conditions", name) + path, value, applies)
            for path, value in [(("method",), "theorem"), *changes]]


def _unital(witness):
    return witness == {"case": "unital"}


def _tree(witness):
    return set(witness) == {"ends", "norm_samples"}


# Every conditions-report change from report version 2, as (path, value,
# applies); `applies` reads the v2 report before any change is made.  The
# four verdicts that hold by construction state their argument in place of
# the samples that re-derived them; finiteness keeps its case and a tree
# its ends.
V2_TO_V3 = [
    (("report_version",), 3, lambda v2: True),
    *_theorem("regularity",
              [(("witness",), {"argument": THEOREMS["regularity"]})]),
    *_theorem("closedness",
              [(("witness",), {"argument": THEOREMS["closedness"]})]),
    *_theorem("spin_c", [(("witness",), {"argument": THEOREMS["spin_c"]})]),
    *_theorem("finiteness", [(("witness", "argument"), THEOREMS["unital"])],
              _unital),
    *_theorem("finiteness", [(("witness", "norm_samples"), DROP),
                             (("witness", "argument"), THEOREMS["ends"])],
              _tree),
    # the k-graph first_order witness gains the 1-graph's failures list
    (("conditions", "first_order", "witness", "failures"), [],
     _holds("first_order", lambda witness: "failures" not in witness)),
]


@pytest.mark.parametrize("name", sorted(CASES))
def test_v1_twin_differs_only_by_listed_changes(name):
    v1 = json.loads((V1_DIR / f"{name}.json").read_text())
    assert v1["report_version"] == 1
    v2 = _apply_changes(v1, V1_TO_V2)
    v3 = _apply_changes(v2, [(path, value) for path, value, applies
                             in V2_TO_V3 if applies(v2)])
    expected = _golden_path(name).read_text()
    assert json.dumps(v3, sort_keys=True, indent=2) + "\n" == expected


def _has_theorem_entry(name: str) -> bool:
    report = json.loads(_golden_path(name).read_text())
    return any(e["method"] == "theorem" for e in report["conditions"].values())


def _closedness_sample(amb, level):
    """The tuples the version-2 evaluators passed to closedness_eval: every
    generator up to length min(level, 2) on a 1-graph; on a k-graph up to
    eight k-tuples of consecutive length-1 generators."""
    if amb.k == 1:
        return [[AlgebraElement(amb, {key: GaussianRational(1)})]
                for key in generator_keys(amb, min(level, 2))]
    singles = generator_keys(amb, 1)
    return [[AlgebraElement(amb, {singles[(i + j) % len(singles)]:
                                  GaussianRational(1)})
             for j in range(amb.k)]
            for i in range(min(8, len(singles)))]


def _norm_sample(amb):
    """The diagonal elements the version-2 finiteness check fed to
    canonical_F_form on a directed tree."""
    coeffs = [GaussianRational(1), GaussianRational(2), GaussianRational(-1)]
    diag = [k for k in generator_keys(amb, 2) if k[0] == k[1]][:6]
    for i in range(min(3, len(diag))):
        yield AlgebraElement(amb, {key: coeffs[j % len(coeffs)]
                                   for j, key in enumerate(diag[i:i + 3])})


THEOREM_CASES = sorted(name for name in CASES if _has_theorem_entry(name))


@pytest.mark.parametrize("name", THEOREM_CASES)
def test_theorem_entries_hold_on_the_old_samples(name):
    """Each "theorem" verdict holds where the computation it replaced
    checked it, on as many samples as the version-1 report counted."""
    factory, level = CASES[name]
    g = factory()
    old = json.loads((V1_DIR / f"{name}.json").read_text())["conditions"]
    new = json.loads(_golden_path(name).read_text())["conditions"]
    if isinstance(g, GraphPresentation):
        trace = solve_graph_trace(g)
        tr = build_truncation(g, trace, level)
    else:
        trace = solve_kgraph_trace(g)
        tr = build_truncation(g, trace, min(level, 2))
    amb = tr.ambient

    # regularity: delta = [|D|, .] moves block m to m + n by |m + n| - |m|
    blocks = {key_degree(amb, z) for z in tr.basis}
    for eid in amb.edge_order:
        res = delta_action(AlgebraElement.generator(amb, (eid,), ()), 1)
        n = amb.degree((eid,))
        assert res["bounded"] and res["norm_bound_sq"] == 1
        for m in blocks:
            jump = math.hypot(*(a + b for a, b in zip(m, n))) - math.hypot(*m)
            assert abs(jump) <= 1 + 1e-12
    checked = old["regularity"]["witness"]["generators_checked"]
    assert len(amb.edge_order) == checked

    checked = 0
    for tup in _closedness_sample(amb, level):
        try:
            res = closedness_eval(g, trace, tup)
        except ValueError:  # the v2 evaluator skipped it too
            continue
        assert res["is_zero"], tup
        checked += 1
    assert checked == old["closedness"]["witness"]["tuples_checked"]

    assert spin_c_generation_check(tr)["pass"]

    if "ends" in new["finiteness"]["witness"]:
        samples = 0
        for f in _norm_sample(amb):
            try:
                form = canonical_F_form(f, g)
            except (NonDiagonalError, GraphValidationError):
                continue
            norms = fixed_point_norms(form, trace)
            assert norms["hilbert_norm_sq"] >= \
                norms["min_end_trace"] * norms["module_norm_sq"]
            samples += 1
        assert samples == old["finiteness"]["witness"]["norm_samples"]


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
