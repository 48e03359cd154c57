"""Command line entry point for batch verification.

Subcommands: analyze, trace, ktheory, hochschild, clifford, spectral,
conditions.  Identical inputs and flags produce byte-identical output.
Exit codes follow sysexits conventions: 64 usage, 65 invalid data, 66 no
input, 69 when the work exceeds a budget (a k-graph with k > KMAX in
conditions, the k-graph cycle c_k of hochschild, or the spectral
window), 73 when --out cannot be written;
the conditions subcommand exits 0 when all nine hold, 2 when some fail and
3 when prerequisites were not applicable.  Only a usage error leaves
`run` through argparse's SystemExit; every other code is returned.

`run(argv)` may be called many times in one process.  The argument parser
depends on no input, so the first call builds it and later calls reuse it;
each call still reads its input and builds its work afresh.

Importing this module loads only `graphs`, `kgraphs` and `clifford` (for
KMAX); each subcommand imports the layers it runs, so `clifford` loads no
other and `conditions` never loads `algebra`, `hochschild` or `spectral`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .clifford import KMAX, sign_table_check
from .graphs import (GraphFormatError, GraphPresentation, GraphValidationError,
                     WorkBudgetError, graph_from_document, read_document)
from .kgraphs import kgraph_from_document

EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66
EX_UNAVAILABLE = 69
EX_CANTCREAT = 73


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EX_USAGE)


class _Failure(Exception):
    """A request that cannot go on: its message and exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _Failure(f"cannot read {path}: {exc}", EX_NOINPUT) from None
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"not UTF-8 text: {exc}") from None
    doc = read_document(text)
    k = doc.get("k", 1) if isinstance(doc, dict) else None
    if type(k) is int and k == 1:
        return graph_from_document(doc)
    return kgraph_from_document(doc)


def _emit(payload, args) -> None:
    if getattr(args, "format", "json") == "csv" and hasattr(payload, "to_csv"):
        text = payload.to_csv()
    else:
        doc = payload.to_json() if hasattr(payload, "to_json") else payload
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _Failure(f"cannot write {args.out}: {exc}",
                           EX_CANTCREAT) from None
    else:
        sys.stdout.write(text)


def _end_values(args, g):
    """The --end-value pairs as a dict, or None when there are none.  A
    k-graph has no ends, so every pair given for one names no end."""
    if not args.end_value:
        return None
    out = {}
    for item in args.end_value:
        if "=" not in item:
            raise GraphValidationError(f"end value must be END=VALUE: {item!r}")
        key, val = item.split("=", 1)
        try:
            out[key] = Fraction(val)
        except (ValueError, ZeroDivisionError):
            raise GraphValidationError(
                f"end value must be a rational number: {item!r}") from None
    if not isinstance(g, GraphPresentation):
        raise GraphValidationError(f"no such end: {', '.join(sorted(out))}")
    return out


def _jsonable(obj):
    """obj with dict keys as strings, sequences as lists and other
    non-JSON leaves as their str()."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj if isinstance(obj, (str, int, float, bool, type(None))) else str(obj)


def _cmd_analyze(args) -> int:
    from .conditions import hypothesis_check, kgraph_hypothesis_check
    g = _load(args.input)
    if isinstance(g, GraphPresentation):
        classification = g.classify()
        payload = {
            "structural": g.structural_report(),
            "ends": [
                {"kind": e.kind, "id": e.id, "vertices": list(e.vertices)}
                for e in g.find_ends()
            ],
            "single_entry": _jsonable(g.single_entry_check()),
            "classification": {"kind": classification.kind,
                               "n": classification.n},
            "hypotheses": hypothesis_check(g),
        }
    else:
        payload = {
            "k": g.k,
            "single_exit": _jsonable(g.single_exit_check()),
            "connected": g.connected(),
            "unit_degree_paths": [list(p) for p in g.unit_degree_paths()],
            "hypotheses": kgraph_hypothesis_check(g),
        }
    _emit(payload, args)
    return 0


def _cmd_trace(args) -> int:
    from .traces import solve_graph_trace, solve_kgraph_trace
    g = _load(args.input)
    end_values = _end_values(args, g)
    if isinstance(g, GraphPresentation):
        trace = solve_graph_trace(g, end_values)
        payload = {
            "vertices": {v: str(trace.values[v]) for v in g.vertices},
            "ends": {k: str(v) for k, v in trace.end_values.items()},
        }
    else:
        trace = solve_kgraph_trace(g)
        payload = {"vertices": {v: str(trace.values[v]) for v in g.vertices}}
    _emit(payload, args)
    return 0


def _cmd_ktheory(args) -> int:
    from .traces import ktheory_ranks
    g = _load(args.input)
    if not isinstance(g, GraphPresentation):
        print("K-theory ranks are computed for 1-graphs", file=sys.stderr)
        return EX_DATAERR
    _emit(ktheory_ranks(g), args)
    return 0


def _cmd_hochschild(args) -> int:
    from .hochschild import check_orientation_1graph, verify_cancellation_steps
    g = _load(args.input)
    if isinstance(g, GraphPresentation):
        report = check_orientation_1graph(g)
        payload = {
            "boundary_coefficients": report["boundary_coefficients"],
            "b_cycle_zero": report["closed_form_zero"],
            "truncated_boundary_is_boundary_residue":
                report["truncated_boundary_is_boundary_residue"],
            "pi_D_identity_on_interior": report["pi_D_identity_on_interior"],
            "orientable": report["orientable"],
        }
    else:
        cancel = verify_cancellation_steps(g)
        payload = {
            "b_ck_zero": cancel["b_ck_zero"],
            "cancellation_steps": {
                "step1_middle_terms_vanish": cancel["step1_middle_terms_vanish"],
                "step2_elementary_tensors_equal":
                    cancel["step2_elementary_tensors_equal"],
                "step3_ck_cancellation": cancel["step3_ck_cancellation"],
            },
            "witnesses": _jsonable({
                "step1": cancel["step1_witness"],
                "step2": cancel["step2_witness"],
                "step3": cancel["step3_witness"],
            }),
            "pi_D_is_volume_form": cancel["pi_D_is_volume_form"],
        }
    _emit(payload, args)
    return 0


def _cmd_clifford(args) -> int:
    report = sign_table_check(args.kmax)
    payload = {
        "pass": report["pass"],
        "table": {
            str(k): entry for k, entry in report["entries"].items()
        },
        "omega_squares": {
            str(k): str(sq) for k, sq in report["omega_squares"].items()
        },
    }
    _emit(payload, args)
    return 0 if report["pass"] else 2


def _cmd_spectral(args) -> int:
    from .spectral import (singular_profile, total_multiplicities,
                           vertex_multiplicities)
    from .traces import solve_graph_trace
    g = _load(args.input)
    if not isinstance(g, GraphPresentation):
        print("spectral profiles are computed for 1-graphs", file=sys.stderr)
        return EX_DATAERR
    try:
        trace = solve_graph_trace(g, _end_values(args, g))
        if args.vertex:
            if args.vertex not in g.vertices:
                raise GraphValidationError(f"unknown vertex {args.vertex!r}")
            model = vertex_multiplicities(g, trace, args.vertex)
        else:
            model = total_multiplicities(g, trace)
    except ValueError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EX_DATAERR
    profile = singular_profile(model, args.window)
    _emit(profile, args)
    return 0


def _cmd_conditions(args) -> int:
    from .conditions import evaluate_all
    g = _load(args.input)
    try:
        report = evaluate_all(
            g,
            end_values=_end_values(args, g),
            level=args.level,
        )
    except ValueError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EX_DATAERR
    _emit(report, args)
    return report.exit_code()


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text!r}")
    return value


def _kmax(text: str) -> int:
    value = _positive_int(text)
    if value > KMAX:
        raise argparse.ArgumentTypeError(f"must be at most {KMAX}: {text!r}")
    return value


@functools.cache
def build_parser() -> _Parser:
    """The one parser of this process: parse_args keeps no state in it."""
    parser = _Parser(prog="graphtriple",
                     description="Verify noncommutative-manifold conditions "
                                 "for graph and k-graph algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, end_value=False, formats=("json",)):
        """Add the input, --out and --format, and --end-value where the
        subcommand reads it."""
        p.add_argument("input", help="presentation document (JSON)")
        p.add_argument("--out", help="write the report to this file")
        p.add_argument("--format", choices=list(formats), default="json")
        if end_value:
            p.add_argument("--end-value", action="append", metavar="END=VALUE",
                           help="trace value for an end (default 1)")

    common(sub.add_parser("analyze", help="structural report"))
    common(sub.add_parser("trace", help="solve the graph trace"),
           end_value=True)
    common(sub.add_parser("ktheory", help="K-theory ranks"))
    common(sub.add_parser("hochschild", help="orientation cycle checks"))
    sp = sub.add_parser("spectral", help="singular value profile")
    common(sp, end_value=True, formats=("json", "csv"))
    sp.add_argument("--window", type=_positive_int, default=100000,
                    help="spectral window N (default 100000)")
    sp.add_argument("--vertex", help="profile p_v instead of (1+D^2)^{-1/2}")
    cond = sub.add_parser("conditions", help="evaluate the nine conditions")
    common(cond, end_value=True)
    cond.add_argument("--level", type=_positive_int, default=3,
                      help="truncation level L (default 3)")
    cl = sub.add_parser("clifford", help="reality sign table")
    cl.add_argument("--kmax", type=_kmax, default=8,
                    help=f"largest k in the table, 1..{KMAX} (default 8)")
    cl.add_argument("--out")
    cl.add_argument("--format", choices=["json"], default="json")
    return parser


_COMMANDS = {
    "analyze": _cmd_analyze,
    "trace": _cmd_trace,
    "ktheory": _cmd_ktheory,
    "hochschild": _cmd_hochschild,
    "clifford": _cmd_clifford,
    "spectral": _cmd_spectral,
    "conditions": _cmd_conditions,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GraphFormatError, GraphValidationError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EX_DATAERR
    except WorkBudgetError as exc:
        print(f"over budget: {exc}", file=sys.stderr)
        return EX_UNAVAILABLE
    except _Failure as exc:
        print(exc, file=sys.stderr)
        return exc.code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
