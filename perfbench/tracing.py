"""Runtime spans and counters around graphtriple's public layer entry points.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each traced
function with a wrapper in every graphtriple module that holds it (functions
imported with ``from .x import f`` are rebound there too), and
:meth:`Tracer.uninstall` puts the originals back.  The wrappers only time and
count, so traced reports are byte-identical to untraced ones.

A span is ``[name, start, end, parent index, request id]``.  A layer's self
time is its spans' durations minus the part covered by their child spans.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional

LAYERS = ("graphs", "kgraphs", "algebra", "traces", "hochschild",
          "spectral", "clifford", "conditions", "cli")

# (module, function, span name): the span name's prefix is the layer
SPANS = (
    ("cli", "run", "cli.run"),
    ("conditions", "evaluate_all", "conditions.evaluate_all"),
    ("conditions", "hypothesis_check", "conditions.hypotheses"),
    ("conditions", "kgraph_hypothesis_check", "conditions.hypotheses"),
    ("graphs", "graph_from_document", "graphs.parse"),
    ("kgraphs", "kgraph_from_document", "kgraphs.parse"),
    ("traces", "solve_graph_trace", "traces.solve"),
    ("traces", "solve_kgraph_trace", "traces.solve"),
    ("traces", "canonical_F_form", "traces.finiteness"),
    ("traces", "fixed_point_norms", "traces.finiteness"),
    ("hochschild", "check_orientation_1graph", "hochschild.orientation"),
    ("hochschild", "verify_cancellation_steps", "hochschild.orientation"),
    ("hochschild", "orientation_cycle_kgraph", "hochschild.orientation"),
    ("hochschild", "pi_D_identity_check", "hochschild.orientation"),
    ("spectral", "build_truncation", "spectral.truncation"),
    ("spectral", "first_order_check", "spectral.first_order"),
    ("spectral", "spin_c_generation_check", "spectral.spin_c"),
    ("spectral", "reality_check_1graph", "spectral.reality"),
    ("spectral", "commutant_probe", "spectral.commutant"),
    ("spectral", "closedness_eval", "spectral.closedness"),
    ("spectral", "vertex_multiplicities", "spectral.profile"),
    ("spectral", "total_multiplicities", "spectral.profile"),
    ("spectral", "singular_profile", "spectral.profile"),
    ("spectral", "kgraph_lattice_profile", "spectral.profile"),
    ("clifford", "generators", "clifford.generators"),
    ("clifford", "reality_operator", "clifford.reality_operator"),
    ("clifford", "volume_form", "clifford.volume_form"),
    ("clifford", "sign_table_check", "clifford.sign_table"),
)

# (module, function or Class.method, counter name): calls only, no span
COUNTERS = (
    ("algebra", "_multiply_keys", "algebra.product_calls"),
    ("algebra", "_multiply_keys_uncached", "algebra.product_misses"),
    ("algebra", "AlgebraElement.is_zero", "algebra.zero_tests"),
    ("kgraphs", "KGraphPresentation.normal", "kgraphs.normal_calls"),
)


class Tracer:
    """Spans, call counts and memo sizes for one traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.rid: Optional[str] = None
        self._stack: List[int] = []
        self._ambients: list = []
        self._undo: list = []
        self.memo_entries = 0
        self.normal_cache_entries = 0
        self.basis_size = 0

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"graphtriple.{m}") for m in LAYERS}
        for mod, attr, name in SPANS:
            self._replace(modules, mod, attr, self._span(name, attr))
        for mod, attr, name in COUNTERS:
            self._replace(modules, mod, attr, self._counter(name))
        self._replace(modules, "graphs", "GraphPresentation.expand",
                      self._capture)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, modules, mod, attr, make) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(modules[mod], cls_name)
            original = owner.__dict__[meth]
            self._undo.append((owner, meth, original))
            setattr(owner, meth, make(original))
            return
        original = getattr(modules[mod], attr)
        wrapper = make(original)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def _span(self, name: str, attr: str):
        spans, stack = self.spans, self._stack
        captures = attr in ("kgraph_from_document", "build_truncation")

        def make(fn):
            def wrapper(*args, **kwargs):
                index = len(spans)
                record = [name, perf_counter(), 0.0,
                          stack[-1] if stack else None, self.rid]
                spans.append(record)
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    record[2] = perf_counter()
                if captures:
                    self._note(result)
                return result
            return wrapper
        return make

    def _counter(self, name: str):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _capture(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._ambients.append(result)
            return result
        return wrapper

    def _note(self, result) -> None:
        basis = getattr(result, "basis", None)
        if basis is not None:  # a Truncation
            self.basis_size += len(basis)
            result = result.ambient
        self._ambients.append(result)

    # -- requests ----------------------------------------------------------------

    def begin(self, rid: str) -> None:
        self.rid = rid
        self._ambients.clear()

    def end(self) -> None:
        """Read the memo sizes of the ambients this request built."""
        for amb in self._ambients:
            self.memo_entries = max(
                self.memo_entries, len(getattr(amb, "_product_cache", ())))
            self.normal_cache_entries = max(
                self.normal_cache_entries,
                len(getattr(amb, "_normal_cache", ())))
        self._ambients.clear()
        self.rid = None

    # -- summaries -----------------------------------------------------------------

    def inclusive_seconds(self) -> Dict[str, float]:
        """Per span name, the time of spans not nested in one of that name."""
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            while parent is not None and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent is None:
                out[name] += end - start
        return out

    def self_seconds(self) -> Dict[str, float]:
        """Per layer, span durations minus their direct children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".")[0]] += end - start - child[i]
        return out

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)
