"""Symbolic-numeric verification of noncommutative-manifold conditions
for graph and k-graph C*-algebras.

Given a finitely presented directed graph or k-graph, the package builds
the Cuntz-Krieger path algebra with exact Gaussian-rational coefficients,
the gauge spectral triple data at a truncation, the Hochschild orientation
cycles and the Clifford/reality operators, and checks the nine conditions
for semifinite nonunital noncommutative manifolds, exactly or by a stated
theorem; Dixmier limits come from closed forms.
"""

import importlib

# Each re-exported name and the module that defines it: the module is
# imported on the name's first access, so `import graphtriple` and a
# subcommand load only the layers they use.
_EXPORTS = {"AlgebraElement": "algebra", "Edge": "graphs", "End": "graphs",
            "GaussianRational": "scalars", "GraphPresentation": "graphs",
            "GraphTrace": "traces", "KGraphPresentation": "kgraphs",
            "parse_graph": "graphs", "parse_kgraph": "kgraphs",
            "solve_graph_trace": "traces", "trace_functional": "traces"}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                   name)
