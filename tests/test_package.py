"""What the package ships: no test-only computation under src/, and the
README's library example runs as written."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

import graphtriple

SRC = Path(graphtriple.__file__).parent
README = Path(__file__).parent.parent / "README.md"

# Functions that only the tests call live in tests/oracles.py; the JSON
# round trip of an element, which nothing serialised, is gone.
NOT_IN_SRC = {
    "delta_action", "dirac_commutator", "local_unit",
    "direct_summation_oracle", "first_order_left_counterexample",
    "to_basis_coordinates", "_basis_indices",
    "degree_reversal_check", "word_to_matrix",
    "pi_D", "_restrict_to_sources",
    "orientation_cycle_1graph", "sum_of_vertex_projections",
    "KGraphPresentation.segment", "GraphPresentation.relabel",
    "KGraphPresentation.factorize", "permutation_sign",
    "Truncation.nu_target", "_exact_level_prefix", "_level_prefix",
    "TruncationExceededError",
    "ThetaSum", "semifinite_trace", "decompose_projection",
    "_validate_projection_decomposition", "DecompositionError",
    "_pairwise_sum", "_level_sum", "level_sum_oracle", "_edge_terms_one_end",
    "AlgebraElement.to_json", "AlgebraElement.from_json",
    "GaussianRational.to_json", "GaussianRational.from_json",
}


def _definitions(tree: ast.Module):
    """Module-level function and class names, and Class.method names."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}"


def test_no_test_oracle_is_defined_under_src():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for name in _definitions(ast.parse(path.read_text())):
            if name in NOT_IN_SRC:
                found[name] = path.name
    assert found == {}


def _names(module: str) -> set:
    names = set()
    for node in ast.walk(ast.parse((SRC / module).read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    return names


def test_hochschild_names_no_expansion_or_element():
    # the 1-graph report is read off the presentation; only c_k is a chain
    assert not _names("hochschild.py") & {
        "expand", "ExpandedGraph", "AlgebraElement",
        "sum_of_vertex_projections"}
    # c_k and omega_C^2 are ints: no rational scalar type in either layer
    for module in ("hochschild.py", "clifford.py"):
        assert not _names(module) & {"GaussianRational", "Fraction",
                                     "scalars", "fractions"}, module


def _importers(package: str) -> list:
    """The modules under src/graphtriple/ that import the package."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == package for m in mods):
                found.append(path.name)
    return found


def test_no_module_imports_dataclasses():
    # records are NamedTuples: dataclasses loads inspect, ast, dis and
    # tokenize on every cold start
    assert _importers("dataclasses") == []


def test_no_indented_json_encoder():
    # reports go through the CLI's writer: json.dump(s) with an indent
    # takes the stdlib's pure-Python encoder
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = (node.func.attr if isinstance(node.func, ast.Attribute)
                    else getattr(node.func, "id", None))
            if name in ("dump", "dumps") and any(
                    k.arg == "indent" for k in node.keywords):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_level_walk_is_left():
    # the Dixmier profile sums its mass runs in closed form: no worker
    # thread, no block size, and no numpy in `singular_profile`
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {a.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for a in node.names}
        names |= {node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)}
        assert not names & {"threading", "contextvars"}, path.name
        assert not {"PROFILE_BLOCK", "_pairwise_sum"} & (
            {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree)
               if isinstance(n, ast.Attribute)}), path.name
    tree = ast.parse((SRC / "spectral.py").read_text())
    profile, = (node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "singular_profile")
    assert not [node for node in ast.walk(profile)
                if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_no_runtime_dependency():
    # the profiles sum with `math`; numpy is left to the test extra
    assert _importers("numpy") == []
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((README.parent / "pyproject.toml").read_text())
    assert project["project"]["dependencies"] == []
    assert any(d.startswith("numpy") for d in
               project["project"]["optional-dependencies"]["test"])


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert abs(float(out.getvalue()) - 4.0) < 0.2
