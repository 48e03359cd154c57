"""Seeded request sets for the benchmark workloads, with their known answers.

Every expected verdict is derived from how an input is built and from the
paper's theorems, never from a run of the program:

* a single-entry, sink-free tree fed by a source tail, a single loop and the
  bi-infinite path satisfy all nine conditions (exit 0);
* the 1-graph orientation cycle has boundary coefficient
  (entering edges at v) - [v is not a sink] at each vertex, so a double entry
  or a sink breaks orientability;
* a loop with an exit admits no faithful graph trace, so every condition
  that needs the trace is not applicable (exit 3);
* a disconnected presentation breaks irreducibility;
* k commuting permutations give a single-exit k-graph whose squares are
  forced; it is connected iff the translations generate the group acting,
  which for a cyclic group Z_n is gcd(shifts, n) = 1;
* a colour map that is not a bijection breaks the single exit condition,
  on which the cancellation behind b(c_k) = 0 rests, so orientability fails;
* the Dixmier limit of p_v on a tree is 2 tau(p_v), where tau(p_v) counts
  the tail ends reachable from v (each end has value 1);
* the reality signs follow the KO-dimension table mod 8, and the volume
  form omega_C = i^ceil((k+1)/2) gamma^1...gamma^k squares to +1 for odd k
  and -1 for even k.

The mix of each workload is fixed; the seed draws labels, the order of
children and requests, the translations (within a fixed group and
connectivity) and the profiled vertices.  So the work per run hardly
depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

CONDITIONS = (
    "dimension", "regularity", "orientability", "closedness", "finiteness",
    "first_order", "spin_c", "reality", "irreducibility",
)

# (eps, eps', eps'') by k mod 8; eps'' = 0 marks odd k (no grading)
KO_SIGNS = {
    0: (1, 1, 1), 1: (1, -1, 0), 2: (-1, 1, -1), 3: (-1, 1, 0),
    4: (-1, 1, 1), 5: (-1, -1, 0), 6: (1, 1, -1), 7: (1, 1, 0),
}

SPECTRAL_WINDOW = 1_000_000
SPECTRAL_TOLERANCE = 0.05  # the CLI's default relative --tolerance

WORKLOADS = ("trees", "kgraphs", "clifford")


@dataclass(frozen=True)
class Request:
    """One CLI call: argv with ``{input}`` standing for the document's file."""

    rid: str
    argv: Tuple[str, ...]
    doc: Optional[dict]
    exit_code: int
    statuses: Dict[str, str] = field(default_factory=dict)
    spectral_target: Optional[float] = None
    kmax: Optional[int] = None


# -- labels ---------------------------------------------------------------------


def _labels(rng: random.Random, count: int, prefix: str) -> List[str]:
    """Distinct labels whose sort order is unrelated to construction order."""
    return [f"{prefix}{i:03d}" for i in rng.sample(range(1000), count)]


# -- 1-graphs -------------------------------------------------------------------


def graph_doc(vertices, edges, tails=(), source_tails=()) -> dict:
    return {
        "k": 1,
        "vertices": list(vertices),
        "edges": [{"id": e, "source": s, "range": r} for e, s, r in edges],
        "tails": sorted(tails),
        "source_tails": sorted(source_tails),
    }


# (shape as nested child lists, a leaf being [], truncation level)
TREES = {
    "tree2": ([[], []], 2),
    "tree3": ([[], [[], []]], 1),
    "tree4": ([[[], []], [[], []]], 1),
}


def tree_doc(rng: random.Random, shape: list) -> dict:
    """Single-entry tree with tail-marked leaves, fed by a source tail."""
    count = _count_nodes(shape)
    names = _labels(rng, count, "v")
    eids = _labels(rng, count - 1, "e")
    vertices, edges, leaves = [], [], []

    def build(node: list) -> str:
        v = names[len(vertices)]
        vertices.append(v)
        if not node:
            leaves.append(v)
        children = list(node)
        rng.shuffle(children)
        for child in children:
            w = build(child)
            edges.append((eids[len(edges)], v, w))
        return v

    root = build(shape)
    return graph_doc(vertices, edges, tails=leaves, source_tails=[root])


def _count_nodes(shape: list) -> int:
    return 1 + sum(_count_nodes(c) for c in shape)


def loop_doc(rng: random.Random, n: int) -> dict:
    names = _labels(rng, n, "v")
    eids = _labels(rng, n, "e")
    return graph_doc(
        names, [(eids[i], names[i], names[(i + 1) % n]) for i in range(n)]
    )


def bi_path_doc(rng: random.Random) -> dict:
    (v,) = _labels(rng, 1, "v")
    return graph_doc([v], [], tails=[v], source_tails=[v])


def double_entry_doc(rng: random.Random) -> dict:
    b, c = _labels(rng, 2, "v")
    e1, e2 = _labels(rng, 2, "e")
    return graph_doc([b, c], [(e1, b, c), (e2, b, c)], tails=[c],
                     source_tails=[b])


def sink_doc(rng: random.Random) -> dict:
    v, w = _labels(rng, 2, "v")
    (e,) = _labels(rng, 1, "e")
    return graph_doc([v, w], [(e, v, w)], source_tails=[v])


def two_loops_doc(rng: random.Random) -> dict:
    u, w = _labels(rng, 2, "v")
    e, f = _labels(rng, 2, "e")
    return graph_doc([u, w], [(e, u, u), (f, w, w)])


def loop_exit_doc(rng: random.Random) -> dict:
    v1, v2, w = _labels(rng, 3, "v")
    e1, e2, f = _labels(rng, 3, "e")
    return graph_doc([v1, v2, w], [(e1, v1, v2), (e2, v2, v1), (f, v1, w)],
                     tails=[w])


def boundary_coefficients(doc: dict) -> Dict[str, int]:
    """(entering edges, source tails included) - [not a sink], per vertex."""
    into = {v: int(v in doc["source_tails"]) for v in doc["vertices"]}
    emits = {v: v in doc["tails"] for v in doc["vertices"]}
    for e in doc["edges"]:
        into[e["range"]] += 1
        emits[e["source"]] = True
    return {v: into[v] - int(emits[v]) for v in doc["vertices"]}


def reachable_ends(doc: dict, v: str) -> int:
    """tau(p_v) with every end valued 1: tail ends reachable from v."""
    out: Dict[str, List[str]] = {u: [] for u in doc["vertices"]}
    for e in doc["edges"]:
        out[e["source"]].append(e["range"])
    seen, stack = set(), [v]
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(out[u])
    return sum(1 for u in seen if u in doc["tails"])


# -- k-graphs -------------------------------------------------------------------


def _group_elements(orders: Sequence[int]) -> List[Tuple[int, ...]]:
    out = [()]
    for m in orders:
        out = [x + (i,) for x in out for i in range(m)]
    return out


def _translate(x, g, orders):
    return tuple((a + b) % m for a, b, m in zip(x, g, orders))


def generated_subgroup_order(orders: Sequence[int], gens) -> int:
    zero = tuple(0 for _ in orders)
    seen, stack = {zero}, [zero]
    while stack:
        x = stack.pop()
        for g in gens:
            y = _translate(x, g, orders)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen)


def kgraph_doc(k: int, vertices: Sequence[str], maps: Sequence[Dict[str, str]],
               eids: Sequence[str]) -> dict:
    """k-graph whose colour c edge out of v runs to maps[c-1][v].

    The maps must commute; the square through (v, c, d) is then forced:
    e_c(v) e_d(c v) = e_d(v) e_c(d v).
    """
    ident = {}
    edges = []
    it = iter(eids)
    for c in range(1, k + 1):
        for v in vertices:
            ident[(c, v)] = next(it)
            edges.append({"id": ident[(c, v)], "source": v,
                          "range": maps[c - 1][v], "color": c})
    squares = []
    for c in range(1, k + 1):
        for d in range(c + 1, k + 1):
            mc, md = maps[c - 1], maps[d - 1]
            for v in vertices:
                squares.append({
                    "first": [ident[(c, v)], ident[(d, mc[v])]],
                    "second": [ident[(d, v)], ident[(c, md[v])]],
                })
    return {"k": k, "vertices": list(vertices), "edges": edges, "tails": [],
            "squares": squares}


def abelian_kgraph(rng: random.Random, k: int, orders: Sequence[int],
                   connected: bool) -> dict:
    """k translations of Z_orders[0] x Z_orders[1] x ..., relabelled, drawn
    so that they generate the whole group (the graph is connected) iff
    ``connected``."""
    elements = _group_elements(orders)
    n = len(elements)
    while True:
        gens = [rng.choice(elements) for _ in range(k)]
        if (generated_subgroup_order(orders, gens) == n) == connected:
            break
    names = dict(zip(elements, _labels(rng, n, "v")))
    maps = [
        {names[x]: names[_translate(x, g, orders)] for x in elements}
        for g in gens
    ]
    return kgraph_doc(k, [names[x] for x in elements], maps,
                      _labels(rng, k * n, "e"))


def single_exit_violating_doc(rng: random.Random) -> dict:
    """2-graph on {u, w}: one colour collapses both vertices onto w, the
    other fixes both, so w receives two edges of the first colour."""
    u, w = _labels(rng, 2, "v")
    collapse = {u: w, w: w}
    fixed = {u: u, w: w}
    maps = [collapse, fixed] if rng.random() < 0.5 else [fixed, collapse]
    return kgraph_doc(2, [u, w], maps, _labels(rng, 4, "e"))


# -- workloads ----------------------------------------------------------------------

_ALL_HOLD = {c: "holds" for c in CONDITIONS}


def _conditions(rid, doc, level, exit_code=0, statuses=None) -> Request:
    argv = ("conditions", "{input}", "--level", str(level))
    return Request(rid, argv, doc, exit_code,
                   dict(_ALL_HOLD if exit_code == 0 else statuses))


def trees(rng: random.Random) -> List[Request]:
    reqs = []
    for name, (shape, level) in TREES.items():
        doc = tree_doc(rng, shape)
        reqs.append(_conditions(name, doc, level))
        v = rng.choice(doc["vertices"])
        argv = ("spectral", "{input}", "--vertex", v,
                "--window", str(SPECTRAL_WINDOW))
        reqs.append(Request(f"spectral-{name}", argv, doc, 0,
                            spectral_target=2.0 * reachable_ends(doc, v)))
    for n in range(1, 6):
        reqs.append(_conditions(f"loop{n}", loop_doc(rng, n), 3))
    reqs.append(_conditions("bi_path", bi_path_doc(rng), 2))
    no_trace = {c: "not_applicable" for c in CONDITIONS}
    mutants = (  # (request id, document, level, exit code, named verdicts)
        ("double_entry", double_entry_doc(rng), 1, 2, {}),
        ("sink", sink_doc(rng), 3, 2, {"dimension": "not_applicable"}),
        ("two_loops", two_loops_doc(rng), 3, 2, {"irreducibility": "fails"}),
        ("loop_exit", loop_exit_doc(rng), 3, 3, no_trace),
    )
    for rid, doc, level, exit_code, named in mutants:
        orientable = set(boundary_coefficients(doc).values()) == {0}
        statuses = dict(named,
                        orientability="holds" if orientable else "fails")
        reqs.append(_conditions(rid, doc, level, exit_code, statuses))
    rng.shuffle(reqs)
    return reqs


# (request id, k, group as cyclic factors, level, connected)
KGRAPH_MIX = (
    ("k2n1", 2, (1,), 2, True),
    ("k2n2", 2, (2,), 1, True),
    ("k2n2_split", 2, (2,), 1, False),
    ("k2n3", 2, (3,), 1, True),
    ("k3n1", 3, (1,), 1, True),
)


def kgraphs(rng: random.Random) -> List[Request]:
    reqs = []
    for rid, k, orders, level, connected in KGRAPH_MIX:
        doc = abelian_kgraph(rng, k, orders, connected)
        if connected:
            reqs.append(_conditions(rid, doc, level))
        else:
            statuses = dict(_ALL_HOLD, irreducibility="fails")
            reqs.append(_conditions(rid, doc, level, 2, statuses))
    reqs.append(_conditions("single_exit_violating",
                            single_exit_violating_doc(rng), 1, 2,
                            {"orientability": "fails"}))
    rng.shuffle(reqs)
    return reqs


CLIFFORD_KMAX = (3, 4, 5)


def clifford(rng: random.Random) -> List[Request]:
    reqs = [
        Request(f"kmax{K}", ("clifford", "--kmax", str(K)), None, 0, kmax=K)
        for K in CLIFFORD_KMAX
    ]
    rng.shuffle(reqs)
    return reqs


def draw(workload: str, seed: int) -> List[Request]:
    """The workload's request set for this seed (same seed, same requests)."""
    builders = {"trees": trees, "kgraphs": kgraphs, "clifford": clifford}
    return builders[workload](random.Random(f"{workload}:{seed}"))


# -- checking ---------------------------------------------------------------------


def check(req: Request, exit_code: int, report: Optional[dict]) -> List[str]:
    """Differences between a request's outcome and its known answer."""
    if exit_code != req.exit_code:
        return [f"exit {exit_code}, expected {req.exit_code}"]
    if report is None:
        return ["no report"]
    problems = []
    if req.argv[0] == "conditions":
        got = {c: report["conditions"][c]["status"] for c in CONDITIONS}
        for cond, want in req.statuses.items():
            if got[cond] != want:
                problems.append(f"{cond} is {got[cond]}, expected {want}")
    elif req.argv[0] == "spectral":
        limit = report["limit"]
        target = req.spectral_target
        if limit is None or abs(limit - target) > SPECTRAL_TOLERANCE * target:
            problems.append(f"limit {limit}, expected {target}")
    else:
        problems.extend(_check_clifford(req.kmax, report))
    return problems


def _check_clifford(kmax: int, report: dict) -> List[str]:
    problems = []
    if report["pass"] is not True:
        problems.append("sign table check did not pass")
    if sorted(report["table"], key=int) != [str(k) for k in range(1, kmax + 1)]:
        problems.append("table does not cover k = 1..kmax")
    for k in range(1, kmax + 1):
        entry = report["table"].get(str(k), {})
        want = dict(zip(("eps", "eps_prime", "eps_dprime"), KO_SIGNS[k % 8]))
        if entry.get("computed") != want:
            problems.append(f"k={k}: signs {entry.get('computed')}, "
                            f"expected {want}")
        omega_sq = "1" if k % 2 else "-1"
        if report["omega_squares"].get(str(k)) != omega_sq:
            problems.append(f"k={k}: omega^2 {report['omega_squares'].get(str(k))}, "
                            f"expected {omega_sq}")
    return problems

