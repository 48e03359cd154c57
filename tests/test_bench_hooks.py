"""The benchmark's tracer wraps graphtriple functions by name at run time
(perfbench/tracing.py).  A rename or a deletion in src/ would silently turn
a traced metric into 0, so every name it wraps must resolve, and
installing then uninstalling the tracer must leave every module as it was.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
