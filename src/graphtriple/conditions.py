"""Orchestrates the nine conditions for semifinite nonunital manifolds.

Each condition is evaluated independently and reported as holds / fails /
not_applicable with a structured witness.  not_applicable is distinct from
fails: when a prerequisite (typically the faithful trace) is missing, the
report names the broken hypothesis instead of failing all nine.

Once a faithful trace exists, regularity, closedness, first order,
spin_c, 1-graph reality and (on a single loop, a directed tree or a finite
k-graph) finiteness hold on every presentation the parsers accept.  They
are reported with method "theorem" and their argument (THEOREMS) as
witness; `closedness_eval`, `first_order_check`,
`spin_c_generation_check`, `reality_check_1graph` and `canonical_F_form`
with `fixed_point_norms` re-derive them in the tests, and so does the
tests' own `delta_action` (tests/oracles.py).

Irreducibility is counted from the presentation (`commutant_dimension`,
with `spectral.commutant_probe` as its oracle): `conditions` builds no
truncation, expands no tail and forms no product, so its work does not
grow with the level; it refuses only a k-graph with k > KMAX.

Orientability is read from the presentation on both ranks.  On a 1-graph,
c is a cycle iff every coefficient of `graphs.boundary_coefficients_1graph`
vanishes, so `conditions` imports neither `hochschild` nor `algebra`.  On
a k-graph, b(c_k) = 0 and pi_D(c_k) = omega_C (x) 1 hold together exactly
under the single exit condition (THEOREMS["orientability_kgraph"]), so no
c_k is built.  The truncated b(c) and pi_D(c) on the 1-graph with its
tails expanded one step (`check_orientation_1graph`) and c_k with its
cancellation steps (`verify_cancellation_steps`) run in
`graphtriple hochschild` and the tests.

Dimension is a theorem: on a 1-graph the Dixmier limit at a sample is
2 tau(p_v), or tau(p_v) where v has bounded entering paths, by the trace
equation (`vertex_multiplicities` re-derives it in the tests); on a k-graph
it is the trace mass times the unit k-ball volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Union

from .clifford import KMAX, SIGN_TABLE, reality_operator
from .graphs import (GraphPresentation, GraphValidationError, WorkBudgetError,
                     boundary_coefficients_1graph, count_classes)
from .kgraphs import KGraphPresentation
from .traces import (NoFaithfulTraceError, solve_graph_trace,
                     solve_kgraph_trace)

CONDITION_NAMES = (
    "dimension",
    "regularity",
    "orientability",
    "closedness",
    "finiteness",
    "first_order",
    "spin_c",
    "reality",
    "irreducibility",
)

REPORT_VERSION = 8

# The argument behind each verdict that holds by construction; the witness
# of its "theorem" entry (Connes, CMP 182, 1996, for the conditions).
THEOREMS = {
    "dimension_1graph": (
        "the trace equation tau(p_u) = tail(u) + sum_{s(e)=u} tau(p_r(e))"
        " keeps the forward mass of p_v at tau(p_v) on every gauge level when"
        " v reaches no sink, as at every sample, so c+ = tau(p_v); c- ="
        " tau(p_v) if v has entering paths of every length, else 0; the"
        " Dixmier limit of p_v(1+D^2)^(-1/2) is c+ + c- (Pask-Rennie-Sims)"
    ),
    "dimension": (
        "each n in Z^k carries tau~-mass sum tau(p_v) = mass > 0 (tau is"
        " faithful), and V_k R^k + O(R^(k-1)) of them have |n| <= R, so the"
        " Dixmier limit of (1+D^2)^(-k/2) is mass k V_k log R / k log R ="
        " mass V_k, V_k = pi^(k/2)/Gamma(k/2+1) (Gracia-Bondia-Varilly-"
        "Figueroa, Elements of Noncommutative Geometry, ch. 7)"
    ),
    "regularity": (
        "delta = [|D|, .] multiplies the gauge-degree-n part of a generator"
        " by |m + n| - |m| on the degree-m block, at most |n| in absolute"
        " value, so every delta^j(a) and delta^j([D, a]) is bounded"
    ),
    "closedness": (
        "tau vanishes off gauge degree 0, and at degree 0 the degree factor"
        " is 0: n for k = 1, and for k >= 2 the determinant of degree"
        " columns that sum to 0"
    ),
    "first_order": (
        "b^op = J b* J^-1 acts on L^2(A, tau) by right multiplication"
        " z -> z b, and a and [D, a] by left multiplication, since the gauge"
        " degree adds under products; left and right multiplications commute"
        " in the associative algebra A_c, so [a, b^op] = [[D, a], b^op] = 0"
    ),
    "orientability_kgraph": (
        "pi_D(c_k) = sum_mu S_mu* S_mu (x) omega_C = sum_w n(w) p_w (x)"
        " omega_C, n(w) the number of degree-(1,...,1) paths mu with range w,"
        " so pi_D(c_k) = omega_C (x) 1 iff n = 1 at every w; as every vertex"
        " emits each colour, n = 1 iff every vertex receives exactly one edge"
        " of each colour (single exit): backing up from w one colour at a"
        " time gives one path, and n = 1 leaves one unit path out of each"
        " vertex, so each colour's edges are a map f_c : V -> V, composing in"
        " any order to the bijection v -> r(mu_v), and f_c first shows f_c"
        " injective, hence bijective; single exit gives b(c_k) = 0 by the"
        " three cancellation steps (Pask-Rennie-Sims)"
    ),
    "reality_1graph": (
        "J z = z* reverses products, so J a* J z = (a* z*)* = z a: J a* J"
        " = a^op; J^2 = 1, and JDJ = -D as J negates the gauge degree"
    ),
    "spin_c": (
        "for k = 1, [D, S_mu S_nu*] = n S_mu S_nu* lies in A_c; for k >= 2"
        " every vertex emits an edge of each colour, so the k gammas span"
        " the 2^k-dimensional Clifford algebra"
    ),
    "unital": (
        "finitely many vertices, so 1 = sum of the p_v lies in A and the"
        " smooth module is finitely generated projective"
    ),
    "ends": (
        "finitely many ends, and ||f||_H^2 = sum |c|^2 tau(p_n) >="
        " min tau(p_n) sup |c|^2 = min tau(p_n) ||f||^2 term by term"
    ),
}


@dataclass
class ConditionEntry:
    name: str
    status: str  # holds | fails | not_applicable
    method: str  # exact | theorem (holds by the THEOREMS argument)
    witness: object = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "method": self.method,
            "witness": self.witness,
        }


@dataclass
class ConditionReport:
    entries: Dict[str, ConditionEntry]
    hypotheses: dict
    parameters: dict

    def all_hold(self) -> bool:
        return all(e.status == "holds" for e in self.entries.values())

    def exit_code(self) -> int:
        if any(e.status == "fails" for e in self.entries.values()):
            return 2
        if any(e.status == "not_applicable" for e in self.entries.values()):
            return 3
        return 0

    def to_json(self) -> dict:
        return {
            "report_version": REPORT_VERSION,
            "hypotheses": self.hypotheses,
            "parameters": self.parameters,
            "conditions": {
                name: self.entries[name].to_json() for name in CONDITION_NAMES
            },
        }


def hypothesis_check(g: GraphPresentation) -> dict:
    """The structural hypotheses behind the nine conditions, each evaluated
    separately so reports can name exactly what broke.  With the default
    end values, a loop with an exit is the one reason `solve_graph_trace`
    finds no faithful trace."""
    report = g.structural_report()
    ends = g.find_ends()
    return {
        "connected": report["connected"],
        "locally_finite": report["locally_finite"] and report["row_finite"],
        "no_sinks": not report["sinks"],
        "faithful_graph_trace_exists": not report["loops_with_exit"],
        "single_entry": g.single_entry_check()["holds"],
        "fg_ktheory": len(ends) < float("inf"),
        "ends_count": len(ends),
    }


def kgraph_hypothesis_check(g: KGraphPresentation,
                            exits: Optional[dict] = None,
                            trace_exists: Optional[bool] = None) -> dict:
    """`exits` is g.single_exit_check() and `trace_exists` whether
    solve_kgraph_trace(g) finds a trace, if the caller has them."""
    exits = exits or g.single_exit_check()
    if trace_exists is None:
        try:
            solve_kgraph_trace(g)
            trace_exists = True
        except NoFaithfulTraceError:
            trace_exists = False
    return {
        "connected": g.connected(),
        "locally_finite": True,
        "no_sinks": True,  # enforced at parse: every vertex emits per color
        "faithful_graph_trace_exists": trace_exists,
        "single_exit": exits["holds"],
        "fg_ktheory": True,
        "ends_count": 0,
    }


def evaluate_all(
    presentation: Union[GraphPresentation, KGraphPresentation],
    end_values: Optional[dict] = None,
    level: int = 3,
) -> ConditionReport:
    if level < 1:
        raise ValueError("truncation level must be >= 1")
    if isinstance(presentation, KGraphPresentation):
        if presentation.k == 1:
            raise ValueError(
                "a k = 1 presentation is evaluated as a 1-graph; build it"
                " with graph_from_document or GraphPresentation"
            )
        if end_values:  # a k-graph has no ends
            raise GraphValidationError(
                f"no such end: {', '.join(sorted(end_values))}")
        return _evaluate_kgraph(presentation, level)
    return _evaluate_graph(presentation, end_values, level)


def commutant_dimension(g: Union[GraphPresentation, KGraphPresentation],
                        level: int) -> int:
    """The dimension of {f in span of S_mu S_mu*, d(mu) <= (m, ..., m):
    [f, S_e] = [f, S_e*] = 0}, m = max(level - 1, 1), on the truncation at
    `level`, without a product or the truncation's ambient.

    Such an f is a depth-m cylinder function on boundary paths, constant
    along edges, so it is fixed by one value on each terminal strongly
    connected component (a sink, the cut end of a tail, an exitless
    cycle), and depth m equates the terminals that one vertex receiving a
    path of degree (m, ..., m) reaches (Bates-Pask-Raeburn-Szymanski, NYJM
    6, 2000, on ideals).  The receivers are closed under edges and hold
    every terminal but the sinks they miss, so the classes are those sinks
    and the linked parts of the receivers.

    On a 1-graph the receivers are the vertices with backward depth None
    or >= m: the ambient's source tails run deeper than m.  A tail's chain
    vertices at depth >= m, its cut end among them, link to its root, or
    form a class of their own when the root is no receiver.  On a k-graph
    the vertex set is pushed m edges forward in each colour.
    """
    if not g.vertices:
        raise ValueError("degenerate presentation: empty truncation basis")
    m = max(level - 1, 1)
    if isinstance(g, GraphPresentation):
        receivers = {v for v in g.vertices
                     if (depth := g.backward_depth(v)) is None or depth >= m}
        missed = sum(not g.out_edges(v) or v in g.tail_set
                     for v in g.vertices if v not in receivers)
    else:
        # no path is listed; once a push leaves the set unchanged, so
        # would the colour's later ones.  A k-graph has no sinks to miss
        receivers = set(g.vertices)
        for colour in range(1, g.k + 1):
            for _ in range(m):
                pushed = {g.edge_range(e) for v in receivers
                          for e in g.out_edges(v)
                          if g.edge_color(e) == colour}
                if pushed == receivers:
                    break
                receivers = pushed
        missed = 0
    return missed + count_classes(receivers, (
        (v, g.edge_range(e)) for v in receivers for e in g.out_edges(v)))


def _na(name: str, broken: str) -> ConditionEntry:
    return ConditionEntry(
        name, "not_applicable", "exact",
        {"violated_hypothesis": broken},
    )


def _evaluate_graph(g: GraphPresentation, end_values,
                    level) -> ConditionReport:
    hyp = hypothesis_check(g)
    entries: Dict[str, ConditionEntry] = {}
    params = {"level": level}

    try:
        trace = solve_graph_trace(g, end_values)
    except NoFaithfulTraceError:
        trace = None

    # orientability is combinatorial and stays evaluable without the trace
    coeffs = boundary_coefficients_1graph(g)
    nonzero = {v: c for v, c in coeffs.items() if c}
    entries["orientability"] = ConditionEntry(
        "orientability", "fails" if nonzero else "holds", "exact",
        {"nonzero_boundary_coefficients": nonzero} if nonzero
        else {"boundary_coefficients": coeffs},
    )

    if trace is None:
        return _shared_entries(entries, hyp, params, None, None)

    # dimension: c+ + c- at samples that reach no sink (THEOREMS)
    sample = [v for v in g.vertices
              if not g.reaches_sink(v) and g.backward_infinite(v)] or [
        v for v in g.vertices if not g.reaches_sink(v)
    ]
    if not sample:
        entries["dimension"] = _na("dimension", "no_sinks")
    else:
        tau = trace.vertex_value
        entries["dimension"] = ConditionEntry(
            "dimension", "holds", "theorem",
            {"argument": THEOREMS["dimension_1graph"], "samples": [
                {"vertex": v, "target": str(2 * tau(v)),
                 "limit": str(tau(v) * (2 if g.backward_infinite(v) else 1))}
                for v in sample]},
        )

    entries["reality"] = ConditionEntry(
        "reality", "holds", "theorem",
        {"argument": THEOREMS["reality_1graph"]})

    finite = {
        "SingleLoop": {"case": "unital", "argument": THEOREMS["unital"]},
        "DirectedTree": {"ends": hyp["ends_count"],
                         "argument": THEOREMS["ends"]},
    }.get(g.classify().kind)
    return _shared_entries(entries, hyp, params,
                           commutant_dimension(g, level), finite)


def _evaluate_kgraph(g: KGraphPresentation, level) -> ConditionReport:
    if g.k > KMAX:  # reality builds the Clifford algebra of k gammas
        raise WorkBudgetError(f"a {g.k}-graph exceeds KMAX = {KMAX}")
    exits = g.single_exit_check()
    try:
        trace = solve_kgraph_trace(g)
    except NoFaithfulTraceError:
        trace = None
    hyp = kgraph_hypothesis_check(g, exits, trace is not None)
    entries: Dict[str, ConditionEntry] = {}
    level = min(level, 2)  # where a k-graph truncation stops (reported)
    params = {"level": level}
    k = g.k

    # orientability is single exit (THEOREMS), evaluable without the trace
    witness = {"argument": THEOREMS["orientability_kgraph"]}
    if not exits["holds"]:
        witness["single_exit_violations"] = [
            {"vertex": v, "color": c, "entering": n}
            for (v, c), n in sorted(exits["violations"].items())]
    entries["orientability"] = ConditionEntry(
        "orientability", "holds" if exits["holds"] else "fails", "exact",
        witness)

    if trace is None:
        return _shared_entries(entries, hyp, params, None, None)

    mass = sum(trace.values[v] for v in g.vertices)
    ball = math.pi ** (k / 2) / math.gamma(k / 2 + 1)
    entries["dimension"] = ConditionEntry(
        "dimension", "holds", "theorem",
        {"argument": THEOREMS["dimension"], "trace_mass": str(mass),
         "constant": "pi^(k/2)/Gamma(k/2+1)", "limit": float(mass) * ball},
    )

    data = reality_operator(k)
    expected = SIGN_TABLE[k % 8]
    got = (data.eps, data.eps_prime, data.eps_dprime)
    entries["reality"] = ConditionEntry(
        "reality", "holds" if got == expected else "fails", "exact",
        {"argument": THEOREMS["reality_1graph"], "computed": list(got),
         "expected": list(expected), "omega_sq": str(data.omega_sq)},
    )

    finite = {"case": "unital", "argument": THEOREMS["unital"]}
    return _shared_entries(entries, hyp, params,
                           commutant_dimension(g, level), finite)


def _shared_entries(entries: Dict[str, ConditionEntry], hyp: dict,
                    params: dict, interior: Optional[int],
                    finite: Optional[dict]) -> ConditionReport:
    """Complete a report with the entries both ranks build alike.

    `interior` is `commutant_dimension` at params["level"], or None when
    no faithful trace exists: then every entry not yet made is
    not_applicable.  `finite` is the finiteness witness, or None outside
    the single loop / directed tree / finite k-graph cases.
    """
    if interior is not None:
        for name in ("regularity", "closedness", "first_order", "spin_c"):
            entries[name] = ConditionEntry(name, "holds", "theorem",
                                           {"argument": THEOREMS[name]})
        entries["finiteness"] = (
            ConditionEntry("finiteness", "holds", "theorem", finite)
            if finite is not None
            else _na("finiteness", "single_entry_tree_or_loop")
        )
        irr_ok = hyp["connected"] and interior == 1
        entries["irreducibility"] = ConditionEntry(
            "irreducibility", "holds" if irr_ok else "fails", "exact",
            {"dimension_interior": interior},
        )
    for name in CONDITION_NAMES:
        if name not in entries:
            entries[name] = _na(name, "faithful_graph_trace_exists")
    return ConditionReport(entries, hyp, params)
