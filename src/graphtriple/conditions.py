"""Orchestrates the nine conditions for semifinite nonunital manifolds.

Each condition is evaluated independently and reported as holds / fails /
not_applicable with a structured witness.  not_applicable is distinct from
fails: when a prerequisite (typically the faithful trace) is missing, the
report names the broken hypothesis instead of failing all nine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from .algebra import AlgebraElement, delta_action
from .clifford import SIGN_TABLE, reality_operator, volume_form
from .graphs import GraphPresentation, GraphValidationError
from .hochschild import (check_orientation_1graph, orientation_cycle_kgraph,
                         pi_D_identity_check, verify_cancellation_steps)
from .kgraphs import KGraphPresentation
from .scalars import GaussianRational
from .spectral import (build_truncation, closedness_eval, commutant_probe,
                       first_order_check, generator_keys,
                       kgraph_lattice_profile, reality_check_1graph,
                       singular_profile, spin_c_generation_check,
                       vertex_multiplicities)
from .traces import (NoFaithfulTraceError, NonDiagonalError, canonical_F_form,
                     fixed_point_norms, solve_graph_trace, solve_kgraph_trace)

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

REPORT_VERSION = 1


@dataclass
class ConditionEntry:
    name: str
    status: str  # holds | fails | not_applicable
    method: str  # exact | numeric
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
    separately so reports can name exactly what broke."""
    report = g.structural_report()
    try:
        solve_graph_trace(g)
        trace_exists = True
    except NoFaithfulTraceError:
        trace_exists = False
    ends = g.find_ends()
    return {
        "connected": report["connected"],
        "locally_finite": report["locally_finite"] and report["row_finite"],
        "no_sinks": not report["sinks"],
        "faithful_graph_trace_exists": trace_exists,
        "single_entry": g.single_entry_check()["holds"],
        "fg_ktheory": len(ends) < float("inf"),
        "ends_count": len(ends),
    }


def kgraph_hypothesis_check(g: KGraphPresentation) -> dict:
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
        "single_exit": g.single_exit_check()["holds"],
        "fg_ktheory": True,
        "ends_count": 0,
    }


def evaluate_all(
    presentation: Union[GraphPresentation, KGraphPresentation],
    end_values: Optional[dict] = None,
    level: int = 3,
    window: int = 100_000,
    tolerance: float = 0.05,
) -> ConditionReport:
    if isinstance(presentation, KGraphPresentation) and presentation.k >= 2:
        return _evaluate_kgraph(presentation, level, window, tolerance)
    return _evaluate_graph(presentation, end_values, level, window, tolerance)


def _na(name: str, broken: str) -> ConditionEntry:
    return ConditionEntry(
        name, "not_applicable", "exact",
        {"violated_hypothesis": broken},
    )


def _evaluate_graph(g: GraphPresentation, end_values, level, window,
                    tolerance) -> ConditionReport:
    hyp = hypothesis_check(g)
    entries: Dict[str, ConditionEntry] = {}
    params = {"level": level, "window": window, "tolerance": tolerance}

    try:
        trace = solve_graph_trace(g, end_values)
    except NoFaithfulTraceError:
        trace = None

    # orientability is combinatorial and stays evaluable without the trace
    orient = check_orientation_1graph(g, depth=level)
    if orient["orientable"]:
        entries["orientability"] = ConditionEntry(
            "orientability", "holds", "exact",
            {"boundary_coefficients": orient["boundary_coefficients"]},
        )
    else:
        witness = {
            v: c for v, c in orient["boundary_coefficients"].items() if c != 0
        }
        entries["orientability"] = ConditionEntry(
            "orientability", "fails", "exact",
            {"nonzero_boundary_coefficients": witness},
        )

    if trace is None:
        for name in CONDITION_NAMES:
            if name not in entries:
                entries[name] = _na(name, "faithful_graph_trace_exists")
        return ConditionReport(entries, hyp, params)

    tr = build_truncation(g, trace, level)
    amb = tr.ambient

    # dimension: positivity of the Dixmier functional on p_v samples
    interior = amb.interior_vertices()
    sample = sorted(set(v for v in interior if v in g.vertices)) or [
        v for v in g.vertices if not g.reaches_sink(v)
    ]
    if not sample:
        entries["dimension"] = _na("dimension", "no_sinks")
    else:
        dim_witness = []
        ok = True
        for v in sample:
            model = vertex_multiplicities(g, trace, v)
            prof = singular_profile(model, window)
            target = 2.0 * float(trace.vertex_value(v))
            positive = prof.limit_estimate is not None and prof.limit_estimate > 0
            matches = (
                prof.limit_estimate is not None
                and g.backward_infinite(v)
                and abs(prof.limit_estimate - target) <= tolerance * target
            )
            ok = ok and positive and (matches or not g.backward_infinite(v))
            dim_witness.append({
                "vertex": v,
                "limit": prof.limit_estimate,
                "target": target,
            })
        entries["dimension"] = ConditionEntry(
            "dimension", "holds" if ok else "fails", "numeric",
            {"samples": dim_witness, "window": window, "tolerance": tolerance},
        )

    # regularity: delta-boundedness of the generators
    bounds = []
    for eid in sorted(amb.edge_order):
        a = AlgebraElement.generator(amb, (eid,), ())
        bounds.append(delta_action(a, 1)["bounded"])
    entries["regularity"] = ConditionEntry(
        "regularity", "holds" if all(bounds) else "fails", "exact",
        {"generators_checked": len(bounds)},
    )

    # closedness: exact vanishing on a deterministic generator sample
    closed_ok = True
    checked = 0
    for key in generator_keys(amb, min(level, 2)):
        a = AlgebraElement(amb, {key: GaussianRational(1)})
        res = closedness_eval(g, trace, [a])
        closed_ok = closed_ok and res["is_zero"]
        checked += 1
    entries["closedness"] = ConditionEntry(
        "closedness", "holds" if closed_ok else "fails", "exact",
        {"tuples_checked": checked},
    )

    # finiteness
    cls = g.classify()
    if cls.kind == "SingleLoop":
        entries["finiteness"] = ConditionEntry(
            "finiteness", "holds", "exact", {"case": "unital"},
        )
    elif cls.kind == "DirectedTree":
        ok, detail = _finiteness_tree(g, trace, amb)
        entries["finiteness"] = ConditionEntry(
            "finiteness", "holds" if ok else "fails", "exact", detail,
        )
    else:
        entries["finiteness"] = _na("finiteness", "single_entry_tree_or_loop")

    fo = first_order_check(tr)
    entries["first_order"] = ConditionEntry(
        "first_order", "holds" if fo["pass"] else "fails", "exact",
        {"generators": fo["generators"], "failures": fo["failures"][:3]},
    )

    sc = spin_c_generation_check(tr)
    entries["spin_c"] = ConditionEntry(
        "spin_c", "holds" if sc["pass"] else "fails", "exact", sc,
    )

    re = reality_check_1graph(tr)
    entries["reality"] = ConditionEntry(
        "reality", "holds" if re["pass"] else "fails", "exact",
        {"failures": re["failures"][:3]},
    )

    probe = commutant_probe(tr)
    irr_ok = hyp["connected"] and probe["dimension_interior"] == 1
    entries["irreducibility"] = ConditionEntry(
        "irreducibility", "holds" if irr_ok else "fails", "exact", probe,
    )
    return ConditionReport(entries, hyp, params)


def _finiteness_tree(g: GraphPresentation, trace, amb) -> Tuple[bool, dict]:
    """Finitely many ends plus the norm inequality on sampled F_c elements."""
    ends = g.find_ends()
    samples = 0
    ok = True
    coeffs = [GaussianRational(1), GaussianRational(2), GaussianRational(-1)]
    diag = [k for k in generator_keys(amb, 2) if k[0] == k[1]][:6]
    for i in range(min(3, len(diag))):
        f = AlgebraElement(amb, {})
        for j, key in enumerate(diag[i:i + 3]):
            f = f + AlgebraElement(amb, {key: coeffs[j % len(coeffs)]})
        try:
            form = canonical_F_form(f, g)
        except (NonDiagonalError, GraphValidationError):
            continue
        norms = fixed_point_norms(form, trace)
        samples += 1
        ok = ok and (
            norms["hilbert_norm_sq"]
            >= norms["min_end_trace"] * norms["module_norm_sq"]
        )
    return ok, {"ends": len(ends), "norm_samples": samples}


def _evaluate_kgraph(g: KGraphPresentation, level, window,
                     tolerance) -> ConditionReport:
    hyp = kgraph_hypothesis_check(g)
    entries: Dict[str, ConditionEntry] = {}
    params = {"level": level, "window": window, "tolerance": tolerance}
    k = g.k

    cancel = verify_cancellation_steps(g)
    cycle = orientation_cycle_kgraph(g)
    pid = pi_D_identity_check(cycle)
    orient_ok = cancel["b_ck_zero"] and pid["pass"]
    entries["orientability"] = ConditionEntry(
        "orientability", "holds" if orient_ok else "fails", "exact",
        {
            "b_ck_zero": cancel["b_ck_zero"],
            "pi_D_is_volume_form": pid["pass"],
            "failing_step": None if cancel["pass"] else _failing_step(cancel),
        },
    )

    try:
        trace = solve_kgraph_trace(g)
    except NoFaithfulTraceError:
        trace = None
    if trace is None:
        for name in CONDITION_NAMES:
            if name not in entries:
                entries[name] = _na(name, "faithful_graph_trace_exists")
        return ConditionReport(entries, hyp, params)

    tr = build_truncation(g, trace, min(level, 2))

    prof = kgraph_lattice_profile(g, trace, window=32)
    positive = prof.limit_estimate is not None and prof.limit_estimate > 0
    entries["dimension"] = ConditionEntry(
        "dimension", "holds" if positive else "fails", "numeric",
        {"measured_constant": prof.limit_estimate, "note":
         "normalization constant reported, not asserted"},
    )

    bounds = []
    for eid in sorted(g.edge_order):
        a = AlgebraElement.generator(g, (eid,), ())
        bounds.append(delta_action(a, 1)["bounded"])
    entries["regularity"] = ConditionEntry(
        "regularity", "holds" if all(bounds) else "fails", "exact",
        {"generators_checked": len(bounds)},
    )

    closed_ok = True
    checked = 0
    singles = [key for key in generator_keys(g, 1)]
    for i in range(min(8, len(singles))):
        tup = [
            AlgebraElement(g, {singles[(i + j) % len(singles)]: GaussianRational(1)})
            for j in range(k)
        ]
        try:
            res = closedness_eval(g, trace, tup)
        except ValueError:
            continue
        closed_ok = closed_ok and res["is_zero"]
        checked += 1
    entries["closedness"] = ConditionEntry(
        "closedness", "holds" if closed_ok else "fails", "exact",
        {"tuples_checked": checked},
    )

    entries["finiteness"] = ConditionEntry(
        "finiteness", "holds", "exact", {"case": "unital"},
    )

    fo = first_order_check(tr)
    entries["first_order"] = ConditionEntry(
        "first_order", "holds" if fo["pass"] else "fails", "exact",
        {"generators": fo["generators"]},
    )

    sc = spin_c_generation_check(tr)
    entries["spin_c"] = ConditionEntry(
        "spin_c", "holds" if sc["pass"] else "fails", "exact", sc,
    )

    data = reality_operator(k)
    expected = SIGN_TABLE[k % 8]
    got = (data.eps, data.eps_prime, data.eps_dprime)
    entries["reality"] = ConditionEntry(
        "reality", "holds" if got == expected else "fails", "exact",
        {"computed": list(got), "expected": list(expected),
         "omega_sq": str(volume_form(k)["omega_sq_scalar"])},
    )

    probe = commutant_probe(tr)
    irr_ok = hyp["connected"] and probe["dimension_interior"] == 1
    entries["irreducibility"] = ConditionEntry(
        "irreducibility", "holds" if irr_ok else "fails", "exact", probe,
    )
    return ConditionReport(entries, hyp, params)


def _failing_step(cancel: dict) -> dict:
    witness_of = {
        "step1_middle_terms_vanish": "step1_witness",
        "step2_elementary_tensors_equal": "step2_witness",
        "step3_ck_cancellation": "step3_witness",
    }
    for step, wkey in witness_of.items():
        if not cancel[step]:
            return {"step": step, "witness": _jsonable(cancel[wkey])}
    return {"step": "b_ck_zero", "witness": None}


def _jsonable(obj):
    """obj with dict keys as strings, sequences as lists and other
    non-JSON leaves as their str()."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj if isinstance(obj, (str, int, float, bool, type(None))) else str(obj)
