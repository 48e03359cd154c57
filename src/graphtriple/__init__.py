"""Symbolic-numeric verification of noncommutative-manifold conditions
for graph and k-graph C*-algebras.

Given a finitely presented directed graph or k-graph, the package builds
the Cuntz-Krieger path algebra with exact Gaussian-rational coefficients,
the gauge spectral triple data at a truncation, the Hochschild orientation
cycles and the Clifford/reality operators, and checks the nine conditions
for semifinite nonunital noncommutative manifolds, exactly or by a stated
theorem; Dixmier limits come from closed forms.
"""

from .algebra import AlgebraElement
from .graphs import Edge, End, GraphPresentation, parse_graph
from .kgraphs import KGraphPresentation, parse_kgraph
from .scalars import GaussianRational
from .traces import GraphTrace, solve_graph_trace, trace_functional

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "Edge",
    "End",
    "GaussianRational",
    "GraphPresentation",
    "GraphTrace",
    "KGraphPresentation",
    "parse_graph",
    "parse_kgraph",
    "solve_graph_trace",
    "trace_functional",
    "__version__",
]
