"""The benchmark's tracer wraps graphtriple functions by name at run time
(perfbench/tracing.py).  A rename or a deletion in src/ would silently turn
a traced metric into 0, so every name it wraps must resolve, installing
then uninstalling the tracer must leave every module as it was, and a
traced `conditions` run must form no product.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from graphtriple import cli

from corpus import single_loop, torus_2graph, tree_with_ends
from test_golden import _document

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
HOOKS = [(mod, attr) for mod, attr, _ in tracing.SPANS + tracing.COUNTERS]


def _resolve(mod: str, attr: str):
    obj = importlib.import_module(f"graphtriple.{mod}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("mod,attr", HOOKS,
                         ids=[f"{mod}.{attr}" for mod, attr in HOOKS])
def test_traced_name_resolves(mod, attr):
    assert callable(_resolve(mod, attr))


def _snapshot() -> dict:
    """Every module-level binding and class attribute of the layers the
    tracer patches, by identity."""
    out = {}
    for layer in tracing.LAYERS:
        module = importlib.import_module(f"graphtriple.{layer}")
        for key, value in vars(module).items():
            out[(layer, key)] = value
            if isinstance(value, type):
                for name, member in vars(value).items():
                    out[(layer, key, name)] = member
    return out


def test_install_then_uninstall_restores_the_originals():
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = _snapshot()
        for mod, attr in HOOKS:
            path = (mod,) + tuple(attr.split("."))
            assert patched[path] is not before[path], (mod, attr)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


@pytest.mark.parametrize("factory,level", [
    (lambda: tree_with_ends(2), 2),
    (torus_2graph, 1),
    (lambda: single_loop(3), 3),
], ids=["tree_with_ends_2", "torus_2graph", "single_loop_3"])
def test_traced_conditions_forms_no_product(factory, level, tmp_path):
    """`conditions` counts irreducibility from the presentation, so a
    traced run opens no truncation or commutant span and its product
    counters read 0."""
    src = tmp_path / "presentation.json"
    src.write_text(json.dumps(_document(factory())))
    argv = ["conditions", str(src), "--level", str(level),
            "--out", str(tmp_path / "report.json")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin("conditions")
        assert cli.run(argv) == 0
        tracer.end()
    finally:
        tracer.uninstall()
    spans = {span[0] for span in tracer.spans}
    assert "conditions.evaluate_all" in spans
    assert not spans & {"spectral.truncation", "spectral.commutant"}
    assert tracer.counts["algebra.product_calls"] == 0
    assert tracer.counts["algebra.product_misses"] == 0
    assert tracer.memo_entries == 0


@pytest.mark.parametrize("argv,span", [
    (["spectral", "{input}", "--vertex", "b", "--window", "1000"],
     "spectral.profile"),
    (["clifford", "--kmax", "3"], "clifford.sign_table"),
], ids=["spectral_vertex", "clifford"])
def test_traced_subcommand_opens_its_layer_spans(argv, span, tmp_path):
    """Each subcommand imports its layer when it runs, after the tracer
    has patched that layer, so the traced run still opens the layer's
    spans."""
    src = tmp_path / "presentation.json"
    src.write_text(json.dumps(_document(tree_with_ends(2))))
    argv = [a.replace("{input}", str(src)) for a in argv]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin(argv[0])
        assert cli.run(argv + ["--out", str(tmp_path / "out.json")]) == 0
        tracer.end()
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.run"
    assert span in names
