"""Graph traces, the induced trace on A_c, K-theory ranks, and the
fixed-point algebra canonical form with its three norms.

A graph trace is a positive vertex function with g(v) = sum over edges out
of v of g(r(e)); faithful graph traces correspond one-to-one to faithful
semifinite gauge-invariant traces, which act on generators by
tau(S_mu S_nu*) = delta_{mu,nu} g(r(mu)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from .graphs import End, GraphPresentation, GraphValidationError
from .kgraphs import KGraphPresentation
from .linalg import SparseEchelon
from .scalars import GaussianRational

if TYPE_CHECKING:
    from .algebra import AlgebraElement


class NoFaithfulTraceError(GraphValidationError):
    """Raised when the presentation admits no faithful graph trace."""


class NonDiagonalError(ValueError):
    """Raised when a fixed-point-algebra input is not diagonal."""


@dataclass(frozen=True)
class GraphTrace:
    """Faithful graph trace: core vertex values plus per-end values."""

    presentation: GraphPresentation
    values: Dict[str, Fraction]
    end_values: Dict[str, Fraction]

    def vertex_value(self, v: str) -> Fraction:
        """Trace of p_v for a vertex of any expansion of the presentation."""
        if v in self.values:
            return self.values[v]
        root, mark = v.split("~", 1)
        if mark.startswith("t"):
            return self.end_values[f"tail:{root}"]
        return self.values[root]


@dataclass(frozen=True)
class KGraphTrace:
    presentation: KGraphPresentation
    values: Dict[str, Fraction]

    def vertex_value(self, v: str) -> Fraction:
        return self.values[v]


def solve_graph_trace(
    g: GraphPresentation,
    end_values: Optional[Dict[str, Fraction]] = None,
) -> GraphTrace:
    """Propagate end values backward through the graph.

    End values default to 1.  Raises NoFaithfulTraceError when a loop has an
    exit (then no faithful trace exists at all), and GraphValidationError
    when end_values misses an end or names one the presentation lacks.
    """
    ends = g.find_ends()
    report = g.structural_report()
    if report["loops_with_exit"]:
        raise NoFaithfulTraceError("a loop has an exit; no faithful graph trace")
    unknown = sorted(set(end_values or ()) - {end.id for end in ends})
    if unknown:
        raise GraphValidationError(f"no such end: {', '.join(unknown)}")
    ev: Dict[str, Fraction] = {}
    for end in ends:
        if end_values is None:
            ev[end.id] = Fraction(1)
        else:
            if end.id not in end_values:
                raise GraphValidationError(f"missing end value for {end.id}")
            ev[end.id] = Fraction(end_values[end.id])
        if ev[end.id] <= 0:
            raise GraphValidationError(f"end value for {end.id} must be positive")
    fixed: Dict[str, Fraction] = {}
    for end in ends:
        for v in end.vertices:
            if end.kind in ("sink", "loop"):
                fixed[v] = ev[end.id]

    # sinks first, so every out-edge of a vertex off the loop ends leads to
    # a vertex that already has its value
    values: Dict[str, Fraction] = {}
    for comp in g.components():
        for v in comp:
            if v in fixed:
                values[v] = fixed[v]
                continue
            total = ev[f"tail:{v}"] if v in g.tail_set else Fraction(0)
            for eid in g.out_edges(v):
                total += values[g.edges[eid].range]
            values[v] = total
    return GraphTrace(g, values, ev)


def solve_kgraph_trace(g: KGraphPresentation) -> KGraphTrace:
    """Solve the per-color harmonic system g(v) = sum_{s(e)=v, color c} g(r(e)).

    Finite k-graphs only; raises NoFaithfulTraceError when no positive
    solution exists.
    """
    verts = list(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    ech = SparseEchelon()
    for c in range(1, g.k + 1):
        for v in verts:
            row = {index[v]: Fraction(1)}
            for eid in g.out_edges(v):
                if g.edges[eid].color == c:
                    j = index[g.edges[eid].range]
                    row[j] = row.get(j, Fraction(0)) - 1
            ech.insert({j: x for j, x in row.items() if x})
    basis = [[vec.get(i, Fraction(0)) for i in range(len(verts))]
             for vec in ech.nullspace(len(verts))]
    candidates = list(basis)
    if basis:
        candidates.append([sum(col) for col in zip(*basis)])
    for vec in candidates:
        if all(x > 0 for x in vec):
            return KGraphTrace(g, {v: vec[index[v]] for v in verts})
        if all(x < 0 for x in vec):
            return KGraphTrace(g, {v: -vec[index[v]] for v in verts})
    raise NoFaithfulTraceError("no positive solution to the k-graph trace system")


def trace_functional(trace, a: AlgebraElement) -> GaussianRational:
    """Linear extension of tau(S_mu S_nu*) = delta_{mu,nu} tau(p_{r(mu)})."""
    amb = a.ambient
    _check_ambient_matches_trace(trace, amb)
    total = GaussianRational(0)
    for (mu, nu, v), c in a.terms.items():
        if mu == nu:
            total = total + c * trace.vertex_value(v)
    return total


def _check_ambient_matches_trace(trace, ambient) -> None:
    pres = trace.presentation
    if hasattr(ambient, "presentation"):
        if ambient.presentation.fingerprint() != pres.fingerprint():
            raise ValueError("trace and element presentations differ")
    elif ambient.fingerprint() != pres.fingerprint():
        raise ValueError("trace and element presentations differ")


def ktheory_ranks(g: GraphPresentation) -> dict:
    """K_0 rank = number of ends, K_1 rank = number of loops."""
    report = g.structural_report()
    if report["loops_with_exit"]:
        raise GraphValidationError(
            "K-theory formula requires that no loop has an exit"
        )
    return {"k0": len(g.find_ends()), "k1": report["loops"]}


# -- fixed point algebra ----------------------------------------------------------


@dataclass
class FixedPointCanonicalForm:
    """f = sum c_{v,n} S_{(v,n)} S_{(v,n)}* with (v,n) the path from v into end n."""

    presentation: GraphPresentation
    ends: Tuple[End, ...]
    terms: Dict[Tuple[str, int], object]  # GaussianRational (exact) or complex
    exact: bool = True


def _stationary_end(g: GraphPresentation) -> Dict[str, Optional[str]]:
    """Map each core vertex to its end id when its forward cone is a chain.

    Sinks first, so a chain's next vertex is mapped before it.  A vertex of
    a cyclic component that is not a loop end maps to None: the chain
    stays in the component and meets a tail, a second out-edge or itself."""
    on_end = {v: end.id for end in g.find_ends() if end.kind in ("sink", "loop")
              for v in end.vertices}
    out: Dict[str, Optional[str]] = {}
    for comp in g.components():
        for v in comp:
            outs = g.out_edges(v)
            if v in on_end:
                out[v] = on_end[v]
            elif v in g.tail_set:
                out[v] = None if outs else f"tail:{v}"
            elif len(outs) == 1 and len(comp) == 1:
                out[v] = out[g.edges[outs[0]].range]
            else:
                out[v] = None
    return out


def canonical_F_form(
    f: AlgebraElement, presentation: GraphPresentation
) -> FixedPointCanonicalForm:
    """Rewrite a diagonal degree-zero element over end-terminating projections.

    Extends or splits every S_alpha S_alpha* through the Cuntz-Krieger
    relation until the path terminates inside an end; duplicate projections
    merge.  Value preserving.  Raises NonDiagonalError for a term with
    mu != nu and GraphValidationError for a vertex with no forward
    extension.
    """
    from .algebra import key_source_mu
    queue = []
    for key, c in f.terms.items():
        mu, nu, v = key
        if mu != nu:
            raise NonDiagonalError(f"term {key} is not diagonal")
        queue.append((key_source_mu(f.ambient, key), v, c))
    return _fold_into_ends(presentation, queue, GaussianRational(0))


def canonical_F_form_numeric(
    projections: Sequence[Tuple[complex, str]], presentation: GraphPresentation
) -> FixedPointCanonicalForm:
    """Float-coefficient variant: input is a list of (coefficient, vertex)."""
    queue = [(v, v, complex(c)) for c, v in projections]
    return _fold_into_ends(presentation, queue, 0j)


def _fold_into_ends(presentation: GraphPresentation, queue: list,
                    zero) -> FixedPointCanonicalForm:
    """Walk each (source, vertex, coefficient) forward until it reaches an
    end and sum the coefficients per (source, end index).

    One walk for both coefficient types: `zero` is GaussianRational(0) for
    the exact form and 0j for the numeric one.  Vertices of an expanded
    ambient map back to the presentation: v~t* lies on the tail of v, and
    v~s* extends through its chain into v.  Zero sums drop out at the end.
    """
    ends = tuple(presentation.find_ends())
    end_index = {e.id: i + 1 for i, e in enumerate(ends)}
    stationary = _stationary_end(presentation)
    terms: Dict[Tuple[str, int], object] = {}

    def add(src: str, end_id: str, c) -> None:
        k = (src, end_index[end_id])
        terms[k] = terms.get(k, zero) + c

    while queue:
        src, u, c = queue.pop()
        if "~t" in u:
            end_id = f"tail:{u.split('~', 1)[0]}"
        elif "~s" in u:
            queue.append((src, u.split("~", 1)[0], c))
            continue
        else:
            end_id = stationary.get(u)
        if end_id is not None:
            add(src, end_id, c)
            continue
        successors = [presentation.edges[e].range for e in presentation.out_edges(u)]
        if u in presentation.tail_set:
            # the tail branch is already stationary
            add(src, f"tail:{u}", c)
        elif not successors:
            raise GraphValidationError(f"vertex {u} has no forward extension")
        for w in successors:
            queue.append((src, w, c))
    terms = {k: c for k, c in terms.items() if c}
    return FixedPointCanonicalForm(presentation, ends, terms,
                                   exact=isinstance(zero, GaussianRational))


def fixed_point_norms(form: FixedPointCanonicalForm, trace: GraphTrace) -> dict:
    """C*-, Hilbert- and module-norm squares of a canonical form.

    ||f||_F^2 = sup |c|^2;  ||f||_H^2 = sum |c|^2 tau(p_n);  the module norm
    coincides with the C*-norm, and hilbert >= min{tau(p_n)} * module.
    """
    end_value = {
        i + 1: trace.end_values[e.id] for i, e in enumerate(form.ends)
    }
    if form.exact:
        sup = Fraction(0)
        hil = Fraction(0)
        for (v, n), c in form.terms.items():
            mag = c.abs_sq()
            sup = max(sup, mag)
            hil += mag * end_value[n]
        min_end = min(end_value.values()) if end_value else Fraction(0)
    else:
        sup = 0.0
        hil = 0.0
        for (v, n), c in form.terms.items():
            mag = abs(c) ** 2
            sup = max(sup, mag)
            hil += mag * float(end_value[n])
        min_end = min(float(x) for x in end_value.values()) if end_value else 0.0
    return {
        "cstar_norm_sq": sup,
        "hilbert_norm_sq": hil,
        "module_norm_sq": sup,
        "min_end_trace": min_end,
    }
