"""Byte-for-byte golden reports for every `graphtriple` subcommand.

The files in tests/golden/ hold the CLI output for a fixed set of corpus
presentations, each at the truncation level given in CASES, for the
spectral profiles in SPECTRAL_CASES, for the orientation cycle checks in
HOCHSCHILD_CASES, for the Clifford sign table at two values of --kmax, and
for the analyze, trace and ktheory reports and the conditions reports
with end values in REPORT_CASES, where a refusal is kept as its exit code
and message.
Refactors of the key product, the evaluators and the Clifford layer must
keep them unchanged.  To rewrite them after an intended report change, run

    PYTHONPATH=src python tests/test_golden.py

A change to the `conditions` report fields bumps REPORT_VERSION.  The
goldens of the previous version stay in tests/golden/v7/ and every change
since is listed in V7_TO_V8: each v7 twin with those changes applied must
equal its current golden byte for byte, so no status and no other field
moves silently.

Since version 3, regularity, closedness, spin_c and finiteness report
method "theorem" with their argument instead of a sample count.  The
computations that produced those counts run here as oracles on every case
with a trace, and must hold on as many samples as version 1 counted.
Since version 7 first order and 1-graph reality are theorems too; their
checks run here as oracles against their plain loops.  Since version 8
k-graph orientability is read from the single exit condition; the
cancellation steps that built c_k run here as its oracle.  Irreducibility
is counted from the presentation's terminal components, with the same
bytes, and the commutant probe runs here as its oracle.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpus import (bi_infinite_path, double_entry_tree,  # noqa: E402
                    dyadic_tree, loop_with_exit, loop_with_exit_tree,
                    one_vertex_3graph, one_vertex_kgraph,
                    single_exit_violating_2graph,
                    single_loop, sink_path, torus_2graph, tree_with_ends,
                    two_disjoint_loops, two_extension_2graph,
                    two_vertex_2graph)
from graphtriple import algebra, spectral  # noqa: E402
from graphtriple.algebra import (AlgebraElement,  # noqa: E402
                                 _multiply_keys, key_degree,
                                 key_source_mu, key_source_nu)
from graphtriple.cli import run  # noqa: E402
from graphtriple.conditions import (THEOREMS,  # noqa: E402
                                    commutant_dimension, evaluate_all)
from graphtriple.graphs import (GraphPresentation,  # noqa: E402
                                GraphValidationError, graph_from_document,
                                graph_to_document)
from graphtriple.hochschild import verify_cancellation_steps  # noqa: E402
from graphtriple.kgraphs import kgraph_from_document  # noqa: E402
from graphtriple.scalars import GaussianRational  # noqa: E402
from graphtriple.spectral import (Truncation,  # noqa: E402
                                  build_truncation, ck_generators,
                                  closedness_eval,
                                  commutant_probe, first_order_check,
                                  generator_keys,
                                  reality_check_1graph,
                                  spin_c_generation_check)
from graphtriple.traces import (NonDiagonalError,  # noqa: E402
                                canonical_F_form, fixed_point_norms,
                                solve_graph_trace, solve_kgraph_trace)
from oracles import (commutant_oracle, delta_action,  # noqa: E402
                     first_order_oracle, reality_oracle)

GOLDEN_DIR = Path(__file__).parent / "golden"
V7_DIR = GOLDEN_DIR / "v7"

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
    "one_vertex_kgraph_4": (lambda: one_vertex_kgraph(4), 1),
    "dyadic_tree_5": (lambda: dyadic_tree(5), 2),
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

# name -> presentation factory: the 1-graphs, whose truncated checks were
# written at tail depth 3 and read the same at depth 1, and the k-graphs,
# where `hochschild` builds c_k and forms its boundary
HOCHSCHILD_CASES = {
    "hochschild_tree_with_ends_2": lambda: tree_with_ends(2),
    "hochschild_double_entry_tree": double_entry_tree,
    "hochschild_sink_path": sink_path,
    "hochschild_torus_2graph": torus_2graph,
    "hochschild_single_exit_violating_2graph": single_exit_violating_2graph,
    "hochschild_two_extension_2graph": two_extension_2graph,
    "hochschild_one_vertex_kgraph_5": lambda: one_vertex_kgraph(5),
}

CLIFFORD_CASES = {
    "clifford_kmax5": ["clifford", "--kmax", "5"],
    "clifford_kmax8": ["clifford", "--kmax", "8"],
}


# end values that mix an integer and a fraction: the trace keeps ints where
# only integer ends are reached, and the reports print both kinds alike
THIRDS = ["--end-value", "tail:c1=1/3", "--end-value", "tail:c2=2"]

# name -> (subcommand, presentation factory, flags)
REPORT_CASES = {
    "analyze_tree_with_ends_2": ("analyze", lambda: tree_with_ends(2), []),
    "analyze_loop_with_exit": ("analyze", loop_with_exit, []),
    "analyze_torus_2graph": ("analyze", torus_2graph, []),
    "analyze_single_exit_violating_2graph": (
        "analyze", single_exit_violating_2graph, []),
    "trace_tree_with_ends_2": ("trace", lambda: tree_with_ends(2), []),
    "trace_loop_with_exit": ("trace", loop_with_exit, []),
    "trace_tree_with_ends_2_thirds": (
        "trace", lambda: tree_with_ends(2), THIRDS),
    "conditions_tree_with_ends_2_thirds": (
        "conditions", lambda: tree_with_ends(2), THIRDS),
    "ktheory_tree_with_ends_2": ("ktheory", lambda: tree_with_ends(2), []),
    "ktheory_loop_with_exit": ("ktheory", loop_with_exit, []),
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
    elif name in HOCHSCHILD_CASES:
        factory = HOCHSCHILD_CASES[name]
        argv = ["hochschild", str(src)]
    elif name in REPORT_CASES:
        command, factory, flags = REPORT_CASES[name]
        argv = [command, str(src)] + flags
    else:
        factory, level = CASES[name]
        argv = ["conditions", str(src), "--level", str(level)]
    src.write_text(json.dumps(_document(factory())))
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = run(argv + ["--out", str(out)])
    if not out.exists():
        return json.dumps({"exit": code, "stderr": err.getvalue()},
                          indent=2) + "\n"
    return out.read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_conditions_report_matches_golden(name, tmp_path):
    expected = _golden_path(name).read_text()
    assert _report(name, tmp_path) == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_conditions_reads_no_truncation_basis(name, monkeypatch):
    """`evaluate_all` gives the golden report with `build_truncation`, the
    key product `_multiply_keys`, and `Truncation.basis`, `gram` and
    `index` made to raise: irreducibility is counted from the presentation,
    and nothing of `conditions` builds a truncation or forms a product."""
    def unread(*args, **kwargs):
        raise AssertionError("conditions reached the truncation")

    for attr in ("basis", "gram", "index"):
        monkeypatch.setattr(Truncation, attr, property(unread),
                            raising=False)
    for module in (algebra, spectral):
        monkeypatch.setattr(module, "_multiply_keys", unread)
    monkeypatch.setattr(spectral, "build_truncation", unread)
    factory, level = CASES[name]
    doc = json.loads(json.dumps(_document(factory())))
    g = (graph_from_document(doc) if doc.get("k", 1) == 1
         else kgraph_from_document(doc))
    report = evaluate_all(g, level=level).to_json()
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert text == _golden_path(name).read_text()


def _truncation(g, level):
    """The trace and the truncation `conditions` builds (a k-graph at
    level at most 2)."""
    if isinstance(g, GraphPresentation):
        trace = solve_graph_trace(g)
    else:
        trace = solve_kgraph_trace(g)
        level = min(level, 2)
    return trace, build_truncation(g, trace, level)


def _kgraph_orientability(entry, g, level):
    """The v8 k-graph orientability witness: the argument, and where a
    vertex does not receive exactly one edge of some colour, each such
    (vertex, colour) with its count of entering edges."""
    if isinstance(g, GraphPresentation):
        return None
    witness = {"argument": THEOREMS["orientability_kgraph"]}
    entering = {(v, c): 0 for v in g.vertices for c in range(1, g.k + 1)}
    for e in g.edges.values():
        entering[(e.range, e.color)] += 1
    bad = [{"vertex": v, "color": c, "entering": n}
           for (v, c), n in sorted(entering.items()) if n != 1]
    if bad:
        witness["single_exit_violations"] = bad
    return witness


# Every conditions-report change from report version 7, as (path, new):
# `new(parent, presentation, level)` is the v8 value at `path`, given the v7
# dict that holds it, or None where the field stays as it is (or absent).
# k-graph orientability is read from single exit, and the k-graph reality
# witness names the algebra half's argument beside the Clifford signs.
V7_TO_V8 = [
    (("report_version",), lambda doc, g, level: 8),
    (("conditions", "orientability", "witness"), _kgraph_orientability),
    (("conditions", "reality", "witness"),
     lambda entry, g, level:
     {"argument": THEOREMS["reality_1graph"], **entry["witness"]}
     if not isinstance(g, GraphPresentation)
     and entry["status"] != "not_applicable" else None),
]


def _apply_changes(doc: dict, changes, g, level) -> dict:
    for path, new in changes:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        value = new(parent, g, level)
        if value is not None:
            parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("name", sorted(CASES))
def test_v7_twin_differs_only_by_listed_changes(name):
    v7 = json.loads((V7_DIR / f"{name}.json").read_text())
    assert v7["report_version"] == 7
    factory, level = CASES[name]
    v8 = _apply_changes(v7, V7_TO_V8, factory(), level)
    expected = _golden_path(name).read_text()
    assert json.dumps(v8, sort_keys=True, indent=2) + "\n" == expected


KGRAPH_CASES = ("one_vertex_3graph", "one_vertex_kgraph_4",
                "single_exit_violating_2graph", "torus_2graph",
                "torus_2graph_L2", "two_extension_2graph",
                "two_vertex_2graph", "two_vertex_2graph_L2")


@pytest.mark.parametrize("name", KGRAPH_CASES)
def test_kgraph_orientability_matches_the_cancellation_oracle(name):
    """The single exit verdict is the one b(c_k) = 0 and
    pi_D(c_k) = omega_C (x) 1 give, computed on c_k itself."""
    g = CASES[name][0]()
    assert not isinstance(g, GraphPresentation)
    cancel = verify_cancellation_steps(g)
    entry = json.loads(_golden_path(name).read_text())["conditions"][
        "orientability"]
    assert (entry["status"] == "holds") == (
        cancel["b_ck_zero"] and cancel["pi_D_is_volume_form"])


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


# name -> (generators, closedness tuples, tree norm samples or None) that
# the report-version-1 witnesses counted, for every case with a trace
OLD_SAMPLE_COUNTS = {
    "bi_infinite_path": (8, 68, 3),
    "double_entry_tree": (10, 100, None),
    "dyadic_tree_2": (21, 85, 3),
    "one_vertex_3graph": (3, 8, None),
    "single_exit_violating_2graph": (4, 8, None),
    "single_loop_3": (3, 12, None),
    "sink_path": (5, 41, None),
    "torus_2graph": (2, 8, None),
    "torus_2graph_L2": (2, 8, None),
    "tree_with_ends_2": (11, 45, 3),
    "tree_with_ends_3": (16, 65, 3),
    "tree_with_ends_4_L2": (26, 230, 3),
    "two_disjoint_loops": (2, 18, None),
    "two_vertex_2graph": (4, 8, None),
    "two_vertex_2graph_L2": (4, 8, None),
}


@pytest.mark.parametrize("name", sorted(OLD_SAMPLE_COUNTS))
def test_theorem_entries_hold_on_the_old_samples(name):
    """Each "theorem" verdict holds where the computation it replaced
    checked it, on as many samples as the version-1 report counted."""
    factory, level = CASES[name]
    g = factory()
    generators, tuples, norm_samples = OLD_SAMPLE_COUNTS[name]
    new = json.loads(_golden_path(name).read_text())["conditions"]
    trace, tr = _truncation(g, level)
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
    assert len(amb.edge_order) == generators

    checked = 0
    for tup in _closedness_sample(amb, level):
        try:
            res = closedness_eval(g, trace, tup)
        except ValueError:  # the v2 evaluator skipped it too
            continue
        assert res["is_zero"], tup
        checked += 1
    assert checked == tuples

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
        assert samples == norm_samples


# the cases with a faithful trace, where first order and 1-graph reality
# hold by theorem; their checks are its oracles
TRACED = sorted(OLD_SAMPLE_COUNTS) + ["one_vertex_kgraph_4"]


@pytest.mark.parametrize("name", TRACED)
def test_generator_checks_match_their_oracles(name):
    """First order and reality pass, as their theorems say, equal their
    plain loops over p_v, S_e, S_e* dict for dict, and give the verdict of the loops over every degree-box
    key S_mu S_nu* (d(mu), d(nu) in {0,1}^k) that they used to check.  The
    4-graph's 256 degree-box keys are too many for the plain loop; its
    golden pins that verdict instead: the degree-box check wrote its
    first_order status under report v4, and each version since keeps it."""
    factory, level = CASES[name]
    tr = _truncation(factory(), level)[1]
    amb = tr.ambient
    g0, box = ck_generators(amb), generator_keys(amb, 1)
    result = first_order_check(tr)
    assert result["pass"] and result == first_order_oracle(tr, g0)
    if name != "one_vertex_kgraph_4":
        assert result["pass"] == first_order_oracle(tr, box)["pass"]
    if amb.k == 1:
        result = reality_check_1graph(tr)
        assert result["pass"] and result == reality_oracle(tr, g0)
        assert result["pass"] == reality_oracle(tr, box)["pass"]


@pytest.mark.parametrize("name", TRACED)
def test_commutant_probe_matches_its_oracle(name):
    factory, level = CASES[name]
    tr = _truncation(factory(), level)[1]
    assert commutant_probe(tr) == commutant_oracle(tr)


@pytest.mark.parametrize("name", TRACED)
def test_commutant_dimension_matches_the_probe(name):
    """The count `conditions` reports equals the product probe on the
    golden presentation at levels 1-4 (1-2 on a k-graph)."""
    g = CASES[name][0]()
    for level in range(1, 5 if isinstance(g, GraphPresentation) else 3):
        tr = _truncation(g, level)[1]
        assert commutant_dimension(g, tr.level) == \
            commutant_probe(tr)["dimension_interior"], level


@pytest.mark.parametrize("name", TRACED)
def test_products_across_buckets_are_zero(name):
    """Write a key S_mu S_nu* with ls = s(mu) and rs = s(nu): x.y can be
    nonzero only if rs(x) = ls(y), which the bucketed checks rely on.  Every
    generator a and basis key z with rs(a) != ls(z) have a.z = 0, and with
    rs(z) != ls(a) z.a = 0; the products that are formed keep ls(x) and
    rs(y)."""
    factory, level = CASES[name]
    tr = _truncation(factory(), level)[1]
    amb = tr.ambient
    gens = ck_generators(amb)

    def sources(key):
        return key_source_mu(amb, key), key_source_nu(amb, key)

    for z in tr.basis:
        for a in gens:
            for x, y in ((a, z), (z, a)):
                prods = _multiply_keys(amb, x, y)
                if sources(x)[1] != sources(y)[0]:
                    assert prods == (), (x, y)
                for k in prods:
                    assert sources(k) == (sources(x)[0], sources(y)[1])


@pytest.mark.parametrize("name", sorted(SPECTRAL_CASES))
def test_spectral_report_matches_golden(name, tmp_path):
    expected = _golden_path(name).read_text()
    assert _report(name, tmp_path) == expected


@pytest.mark.parametrize("name", sorted(HOCHSCHILD_CASES))
def test_hochschild_report_matches_golden(name, tmp_path):
    expected = _golden_path(name).read_text()
    assert _report(name, tmp_path) == expected


@pytest.mark.parametrize("name", sorted(CLIFFORD_CASES))
def test_clifford_report_matches_golden(name, tmp_path):
    expected = _golden_path(name).read_text()
    assert _report(name, tmp_path) == expected


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_structure_and_trace_report_matches_golden(name, tmp_path):
    expected = _golden_path(name).read_text()
    assert _report(name, tmp_path) == expected


@pytest.mark.parametrize("name", sorted(
    [*CASES, *SPECTRAL_CASES, *HOCHSCHILD_CASES, *CLIFFORD_CASES,
     *REPORT_CASES]))
def test_report_builds_no_gaussian_rational(name, tmp_path, monkeypatch):
    """Every golden report comes out with GaussianRational refused: c_k
    holds int permutation signs and omega_C^2 is the int +-1, so no
    subcommand reaches the rational scalar type."""
    def refuse(*args, **kwargs):
        raise AssertionError("a subcommand built a GaussianRational")
    monkeypatch.setattr(GaussianRational, "__init__", refuse)
    assert _report(name, tmp_path) == _golden_path(name).read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in (sorted(CASES) + sorted(SPECTRAL_CASES)
                     + sorted(HOCHSCHILD_CASES) + sorted(CLIFFORD_CASES)
                     + sorted(REPORT_CASES)):
            _golden_path(case).write_text(_report(case, Path(tmp)))
            print(f"wrote {case}")
