"""Time to verdict for ``graphtriple conditions``, ``spectral`` and ``clifford``.

Run from the repository root:

    python3 perfbench/run.py --workload trees --seed 1 --seconds 30 --trace 0

One client, one process, no threads: a closed loop sends each request of
the workload's seeded set (see ``inputs.py``) through
``graphtriple.cli.run([...])`` only after the previous one has finished.
Each request reads its input file afresh, so product memos start cold as in
a real command-line call.  Passes over the set repeat while another pass
fits in ``--seconds``; there is always at least one.  Every verdict is
checked against the known answer of its input, and every report's digest
against the other passes, the other runs of the same seed recorded under
``perfbench/out/state`` and, for a traced run, the untraced runs.

Times are reported in reference seconds: each measured time is scaled by
``PROBE_REF_S / probe time``, where the probe is a fixed pure-Python kernel
timed right before and after the measured call.  This cancels the speed
swings of a shared host (see README.md); the raw times go to stderr.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the layer
entry points (``tracing.py``) and prints the per-layer metrics.  The last
line of standard output is the JSON result; a summary goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 5
OK_EXITS = (0, 2, 3)
# the probe's best time on an uncontended core of the 2-CPU sandbox the
# benchmark was calibrated on (Python 3.11.7)
PROBE_REF_S = 0.0036

sys.path.insert(0, str(BENCH))
import inputs  # noqa: E402


def probe() -> float:
    """Best of three timings of a fixed kernel like the program's inner
    loops: tuple-keyed dict updates and exact Fraction sums."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table, acc = {}, Fraction(0)
        for i in range(1000):
            key = ((f"e{i % 97}", f"f{i % 13}"), (), f"v{i % 7}")
            table[key] = table.get(key, 0) + 1
            acc += Fraction(i % 11, 1 + i % 5)
        best = min(best, time.perf_counter() - start)
    return best


def timed(call):
    """Run call(); return its result, raw seconds and reference seconds."""
    before = probe()
    start = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - start
    after = probe()
    return result, seconds, seconds * 2 * PROBE_REF_S / (before + after)


def prepare(workload: str, seed: int, workdir: Path):
    """Draw the request set and write its input files; returns the argvs."""
    workdir.mkdir(parents=True, exist_ok=True)
    plan = []
    for req in inputs.draw(workload, seed):
        path = workdir / f"{req.rid}.json"
        if req.doc is not None:
            path.write_text(json.dumps(req.doc, indent=1), encoding="utf-8")
        argv = [a.replace("{input}", str(path)) for a in req.argv]
        plan.append((req, argv + ["--out", str(workdir / f"{req.rid}.out")]))
    return plan


def setup_once(workload: str, seed: int, workdir: Path) -> float:
    """Import, input generation and the first call's set-up (argument
    parsing and validating its input) in this fresh interpreter, in
    reference seconds."""

    def setup():
        sys.path.insert(0, str(SRC))
        from graphtriple import cli, graphs, kgraphs
        plan = prepare(workload, seed, workdir)
        req, argv = plan[0]
        cli.build_parser().parse_args(argv)
        if req.doc is not None:
            doc = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
            load = graphs.graph_from_document if doc["k"] == 1 else \
                kgraphs.kgraph_from_document
            load(doc)

    return timed(setup)[2]


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    code = (
        "import sys; from pathlib import Path; "
        f"sys.path.insert(0, {str(BENCH)!r}); import run; "
        f"print(run.setup_once({workload!r}, {seed}, Path(sys.argv[1])))"
    )
    samples = []
    for i in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code, str(workdir / f"setup{i}")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Outcome:
    """What the runs of one request set found, pass by pass."""

    def __init__(self, reference_digests):
        self.reference = dict(reference_digests)
        self.samples = {}
        self.raw = {}
        self.pass_seconds = []
        self.attempted = 0
        self.mismatches = []
        self.failures = []

    def record(self, req, code, raised, report_bytes, seconds, ref_seconds):
        self.attempted += 1
        self.raw.setdefault(req.rid, []).append(seconds)
        self.samples.setdefault(req.rid, []).append(ref_seconds)
        if raised is not None or code not in OK_EXITS:
            self.failures.append(f"{req.rid}: {raised or f'exit {code}'}")
            return
        report = json.loads(report_bytes) if report_bytes is not None else None
        for problem in inputs.check(req, code, report):
            self.mismatches.append(f"{req.rid}: {problem}")
        digest = hashlib.sha256(report_bytes or b"").hexdigest()
        if self.reference.setdefault(req.rid, digest) != digest:
            self.failures.append(f"{req.rid}: report bytes differ across runs")

    def per_request(self):
        """Each request's lower-quartile reference time over the passes,
        sorted: low enough to skip slow phases, and unlike the minimum not
        set by the one sample whose probes caught a burst."""
        return sorted(
            statistics.quantiles(v, n=4, method="inclusive")[0]
            if len(v) > 1 else v[0]
            for v in self.samples.values()
        )


def run_request(cli, req, argv, tracer):
    out = Path(argv[-1])
    with contextlib.suppress(FileNotFoundError):
        out.unlink()
    gc.collect()
    if tracer:
        tracer.begin(req.rid)

    def call():
        try:
            return cli.run(argv), None
        except SystemExit as exc:
            return exc.code, None
        except Exception as exc:  # a crash is a failed operation, not the end
            return None, f"{type(exc).__name__}: {exc}"

    (code, raised), seconds, ref_seconds = timed(call)
    if tracer:
        tracer.end()
    report = out.read_bytes() if out.exists() else None
    return code, raised, report, seconds, ref_seconds


def run_passes(cli, plan, seconds, outcome, tracer=None, max_passes=None):
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for req, argv in plan:
            outcome.record(req, *run_request(cli, req, argv, tracer))
        now = time.perf_counter()
        outcome.pass_seconds.append(now - pass_start)
        if max_passes and len(outcome.pass_seconds) >= max_passes:
            return
        if now - start + outcome.pass_seconds[-1] > seconds:
            return


# -- state kept across runs in this checkout ----------------------------------------


def load_state(workload: str) -> dict:
    path = OUT / "state" / f"{workload}.json"
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    return {"untraced_wall_s": [], "digests": {}}


def save_state(workload: str, state: dict) -> None:
    path = OUT / "state" / f"{workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(state, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


# -- metrics ------------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(outcome, setup_s):
    times = outcome.per_request()
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    return {
        "wall_s": metric(sum(times), "s"),
        "verdict_s.p50": metric(statistics.median(times), "s"),
        "verdict_s.p90": metric(p90, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def per_layer(tracer, outcome, untraced_wall_s):
    passes = len(outcome.pass_seconds)
    wall = sum(outcome.per_request())
    incl = tracer.inclusive_seconds()
    own = tracer.self_seconds()
    counts = tracer.counts
    calls = counts["algebra.product_calls"]
    misses = counts["algebra.product_misses"]

    def secs(name):
        return metric(incl.get(name, 0.0) / passes, "s")

    def count(value):
        return metric(value / passes, "count")

    out = {
        "spectral.first_order_s": secs("spectral.first_order"),
        "algebra.product_calls": count(calls),
        "algebra.product_misses": count(misses),
        "algebra.product_hit_ratio": metric(
            1 - misses / calls if calls else 0.0, "ratio"),
        "algebra.zero_tests": count(counts["algebra.zero_tests"]),
        "kgraphs.normal_calls": count(counts["kgraphs.normal_calls"]),
        "kgraphs.normal_cache_entries": metric(
            tracer.normal_cache_entries, "count"),
        "algebra.memo_entries": metric(tracer.memo_entries, "count"),
        "spectral.commutant_s": secs("spectral.commutant"),
        "spectral.reality_s": secs("spectral.reality"),
        "spectral.truncation_s": secs("spectral.truncation"),
        "spectral.basis_size": count(tracer.basis_size),
        "spectral.spin_c_s": secs("spectral.spin_c"),
        "spectral.closedness_s": secs("spectral.closedness"),
        "spectral.profile_s": secs("spectral.profile"),
        "hochschild.orientation_s": secs("hochschild.orientation"),
        "traces.solve_s": secs("traces.solve"),
        "traces.solve_calls": count(tracer.calls("traces.solve")),
        "traces.finiteness_s": secs("traces.finiteness"),
        "graphs.parse_s": secs("graphs.parse"),
        "kgraphs.parse_s": secs("kgraphs.parse"),
        "clifford.generators_s": secs("clifford.generators"),
        "clifford.generators_calls": count(
            tracer.calls("clifford.generators")),
        "clifford.reality_operator_s": secs("clifford.reality_operator"),
        "clifford.volume_form_s": secs("clifford.volume_form"),
    }
    for layer in ("conditions", "cli", "spectral", "hochschild", "traces",
                  "clifford", "graphs", "kgraphs"):
        out[f"{layer}.self_s"] = metric(own.get(layer, 0.0) / passes, "s")
    out["trace.wall_s"] = metric(wall, "s")
    out["trace.overhead_s"] = metric(wall - untraced_wall_s, "s")
    out["trace.self_share"] = metric(
        sum(own.values()) / sum(outcome.pass_seconds), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graphtriple" / "__init__.py").is_file():
        print(f"no graphtriple sources under {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    state = load_state(args.workload)
    seed_key = str(args.seed)
    setup_s = None
    if not args.trace:
        setup_s = measure_setup(args.workload, args.seed, workdir)
    sys.path.insert(0, str(SRC))
    from graphtriple import cli
    plan = prepare(args.workload, args.seed, workdir / "run")
    outcome = Outcome(state["digests"].get(seed_key, {}))

    if not args.trace:
        run_passes(cli, plan, args.seconds, outcome)
        metrics = end_to_end(outcome, setup_s)
        state["untraced_wall_s"] = (
            state["untraced_wall_s"] + [metrics["wall_s"]["value"]])[-25:]
    else:
        import tracing
        if not state["untraced_wall_s"]:
            # no untraced run recorded here yet: make one reference pass
            reference = Outcome(outcome.reference)
            run_passes(cli, plan, 0, reference, max_passes=1)
            outcome.reference = reference.reference
            outcome.failures += reference.failures
            outcome.mismatches += reference.mismatches
            state["untraced_wall_s"].append(sum(reference.per_request()))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run_passes(cli, plan, args.seconds, outcome, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, outcome,
                            statistics.median(state["untraced_wall_s"]))
    state["digests"][seed_key] = outcome.reference
    save_state(args.workload, state)

    for line in outcome.mismatches + outcome.failures:
        print(f"  {line}", file=sys.stderr)
    for rid, seconds in sorted(outcome.raw.items()):
        print(f"  {rid:24s} raw " + " ".join(f"{x:.3f}" for x in seconds)
              + "  ref " + " ".join(f"{x:.3f}" for x in outcome.samples[rid]),
              file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{outcome.attempted} requests in passes of "
          f"{', '.join(f'{x:.2f}' for x in outcome.pass_seconds)} s, "
          f"verdict_mismatches={len(outcome.mismatches)} "
          f"failed_ops={len(outcome.failures)}/{outcome.attempted}",
          file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.mismatches,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
