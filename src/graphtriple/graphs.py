"""Finitely presented directed graphs with infinite tails.

A presentation is a finite core (vertices, edges) plus two kinds of marks:

* ``tails``: the marked vertex emits an infinite no-exit path (one fresh edge
  per step, single entry, single exit).  These are the ends of the graph.
* ``source_tails``: the marked vertex receives an infinite single-entry,
  single-exit chain.  These remove sources without adding ends, keeping
  no-source trees finitely presentable.

All operations are pure; presentations are immutable after construction.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import (AbstractSet, Callable, Dict, FrozenSet, Iterable,
                    Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple)


class GraphFormatError(ValueError):
    """Raised for malformed presentation documents (syntax or schema)."""


class GraphValidationError(ValueError):
    """Raised when a presentation violates a structural invariant."""


class WorkBudgetError(RuntimeError):
    """A check would do more work than its budget allows."""


KMAX = 16  # the largest k whose Clifford algebra is built and tabulated


class Edge(NamedTuple):
    id: str
    source: str
    range: str
    color: int = 1


class End(NamedTuple):
    """A sink, a loop without exit, or an infinite no-exit path."""

    kind: str  # "sink" | "loop" | "tail"
    id: str
    vertices: Tuple[str, ...]
    cycle_edges: Tuple[str, ...] = ()


class Classification(NamedTuple):
    kind: str  # "SingleLoop" | "DirectedTree" | "Other"
    n: Optional[int] = None


TAIL_MARGIN = 2  # level-L truncations expand tails L + TAIL_MARGIN deep


class EdgeSkeleton:
    """Edge indexing and path enumeration shared by presentations and
    ambients: ``vertices``, ``edges`` (id -> Edge) and the sorted per-vertex
    ``_out`` / ``_in`` edge tuples.  An expanded 1-graph has every edge of
    colour 1, so ``paths_with_degree`` serves it as the case k = 1."""

    def _index_edges(self, edges: Sequence[Edge]) -> None:
        """Index the edges in one pass, as they are read: ``edges`` by id,
        the sorted ``edge_order``, and each vertex's out- and in-edge ids,
        sorted.  GraphValidationError on a repeated vertex or edge id, or
        on an edge that joins an undeclared vertex."""
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphValidationError("duplicate vertex identifier")
        out: Dict[str, List[str]] = {v: [] for v in self.vertices}
        into: Dict[str, List[str]] = {v: [] for v in self.vertices}
        index: Dict[str, Edge] = {}
        for e in edges:
            eid = e.id
            if eid in index:
                raise GraphValidationError(f"duplicate edge id {eid!r}")
            try:
                out[e.source].append(eid)
                into[e.range].append(eid)
            except KeyError:
                v = e.range if e.source in out else e.source
                raise GraphValidationError(
                    f"edge {eid!r} references undeclared vertex {v!r}"
                ) from None
            index[eid] = e
        self.edges: Dict[str, Edge] = index
        self.edge_order: Tuple[str, ...] = tuple(sorted(index))
        self._out = {v: tuple(sorted(es)) for v, es in out.items()}
        self._in = {v: tuple(sorted(es)) for v, es in into.items()}

    def out_edges(self, v: str) -> Tuple[str, ...]:
        return self._out[v]

    def in_edges(self, v: str) -> Tuple[str, ...]:
        return self._in[v]

    def edge_source(self, eid: str) -> str:
        return self.edges[eid].source

    def edge_range(self, eid: str) -> str:
        return self.edges[eid].range

    def edge_color(self, eid: str) -> int:
        return self.edges[eid].color

    def path_source(self, path: Tuple[str, ...]) -> str:
        return self.edges[path[0]].source

    def path_range(self, path: Tuple[str, ...]) -> str:
        return self.edges[path[-1]].range

    def is_path(self, path: Tuple[str, ...]) -> bool:
        return all(
            self.edges[a].range == self.edges[b].source
            for a, b in zip(path, path[1:])
        )

    def connected(self) -> bool:
        """Whether the underlying undirected graph is connected (the empty
        graph is)."""
        return self.weak_components <= 1

    @cached_property
    def weak_components(self) -> int:
        """The number of connected parts of the underlying undirected
        graph, by one union-find per skeleton."""
        return count_classes(self.vertices, (
            (e.source, e.range) for e in self.edges.values()))

    def paths_with_degree(self, n: Tuple[int, ...], v: Optional[str],
                          direction: str) -> List[Tuple[str, ...]]:
        """All colour-sorted paths of degree n into / out of v (None = all),
        in lexicographic order."""
        if direction not in ("into", "out-of"):
            raise ValueError("direction must be 'into' or 'out-of'")

        def go_out(u: str, left: Tuple[int, ...]) -> List[Tuple[str, ...]]:
            if not any(left):
                return [()]
            c = next(i for i, x in enumerate(left) if x)
            rem = tuple(x - 1 if i == c else x for i, x in enumerate(left))
            acc = []
            for eid in self._out[u]:
                if self.edges[eid].color == c + 1:
                    for rest in go_out(self.edges[eid].range, rem):
                        acc.append((eid,) + rest)
            return acc

        def go_in(u: str, left: Tuple[int, ...]) -> List[Tuple[str, ...]]:
            if not any(left):
                return [()]
            c = max(i for i, x in enumerate(left) if x)
            rem = tuple(x - 1 if i == c else x for i, x in enumerate(left))
            acc = []
            for eid in self._in[u]:
                if self.edges[eid].color == c + 1:
                    for rest in go_in(self.edges[eid].source, rem):
                        acc.append(rest + (eid,))
            return acc

        go = go_out if direction == "out-of" else go_in
        if v is None:
            words = [w for u in self.vertices for w in go(u, n)]
        else:
            words = go(v, n)
        return sorted(words)


def strong_components(
    vertices: Iterable[str], successors: Callable[[str], Iterable[str]],
) -> List[Tuple[str, ...]]:
    """Strongly connected components by Tarjan's algorithm (SIAM J. Comput.
    1 (1972) 146-160), run with an explicit stack so that path length is
    not bounded by the recursion limit.

    Components come out in completion order, which is reverse topological:
    every edge that leaves a component goes to one listed earlier, so sinks
    come first.  Each component lists its vertices in sorted order."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    stack: List[str] = []
    on_stack: Set[str] = set()
    out: List[Tuple[str, ...]] = []
    for root in vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:  # visit w
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors(w))))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    on_stack.difference_update(comp)
                    out.append(tuple(sorted(comp)) if len(comp) > 1
                               else (v,))
    return out


def count_classes(items: Iterable[str],
                  links: Iterable[Tuple[str, str]]) -> int:
    """The number of classes of the equivalence on items that the linked
    pairs generate, by union-find with path halving."""
    parent = {v: v for v in items}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    parts = len(parent)
    for a, b in links:
        a, b = find(a), find(b)
        if a != b:
            parent[a] = b
            parts -= 1
    return parts


class CoreCycle(NamedTuple):
    """The simple cycle kept for one cyclic component, its edges, and
    whether the component holds a cycle with an exit."""

    vertices: Tuple[str, ...]
    edges: Tuple[str, ...]
    has_exit: bool


class CoreStructure(NamedTuple):
    """Everything the structural hypotheses read from the core, from one
    strongly connected component pass.

    A component is cyclic when it has more than one vertex or a self-loop.
    The pass keeps one simple cycle per cyclic component: the walk along
    each vertex's first inside out-edge from the least vertex.  A cyclic
    component is *bare* when each of its vertices has exactly one out-edge
    inside it (parallel edges count separately); the kept cycle is then its
    only simple cycle.  In any other cyclic component every simple cycle
    has an exit: one that misses a vertex of the component has an edge
    leaving it, by strong connectivity, and one through every vertex meets
    the vertex with two inside out-edges.  So a component holds a cycle
    with an exit iff its kept cycle has one.  A vertex is backward-infinite
    iff its backward cone holds a source tail or a vertex of a cyclic
    component.  The sinks, the sources, the ends and the vertices whose
    conceptual in-degree is not 1 are listed once, as tuples, so no report
    can change them through its result."""

    components: Tuple[Tuple[str, ...], ...]
    cycles: Tuple[CoreCycle, ...]
    backward_depth: Dict[str, Optional[int]]
    reaching_sink: FrozenSet[str]
    sinks: Tuple[str, ...]
    sources: Tuple[str, ...]
    ends: Tuple[End, ...]
    entry_violations: Tuple[Tuple[str, int], ...]

    @classmethod
    def of(cls, g: "GraphPresentation") -> "CoreStructure":
        edges, out, into = g.edges, g._out, g._in
        tail_set, source_tail_set = g.tail_set, g.source_tail_set

        sinks = tuple(filter(g.is_sink, g.vertices))
        sink_set = frozenset(sinks)
        heads = {v: [edges[e].range for e in es] for v, es in out.items()}
        comps = strong_components(g.vertices, heads.__getitem__)
        cycles: List[CoreCycle] = []
        cyclic: Set[str] = set()
        # filled as each component is reached, sinks first: its successors
        # are in already
        reaching: Set[str] = set()
        for comp in comps:
            v = comp[0]
            if len(comp) == 1 and v not in (hs := heads[v]):
                # a single vertex without a self-loop
                if v in sink_set or not reaching.isdisjoint(hs):
                    reaching.add(v)
                continue
            members = set(comp)
            cyclic |= members
            inside = {u: [e for e in out[u] if edges[e].range in members]
                      for u in comp}
            if not reaching.isdisjoint(h for u in comp for h in heads[u]):
                reaching |= members
            walk: List[str] = []
            seen: Dict[str, int] = {}
            while v not in seen:
                seen[v] = len(walk)
                walk.append(inside[v][0])
                v = edges[walk[-1]].range
            walk = walk[seen[v]:]
            k = min(range(len(walk)), key=lambda j: edges[walk[j]].source)
            walk = walk[k:] + walk[:k]
            verts = tuple(edges[e].source for e in walk)
            # a second out-edge at a cycle vertex leaves the cycle or runs
            # parallel inside it, an exit either way
            has_exit = any(u in tail_set or len(out[u]) > 1 for u in verts)
            cycles.append(CoreCycle(verts, tuple(walk), has_exit))

        depth: Dict[str, Optional[int]] = {}
        for comp in reversed(comps):  # sources first
            for v in comp:
                if v in cyclic or v in source_tail_set:
                    depth[v] = None
                    continue
                d: Optional[int] = 0
                for e in into[v]:
                    p = depth[edges[e].source]
                    if p is None:
                        d = None
                        break
                    if p >= d:
                        d = p + 1
                depth[v] = d
        cycles.sort(key=lambda c: c.vertices)
        ends = [End("sink", f"sink:{v}", (v,)) for v in sinks]
        ends += [End("loop", "loop:" + "-".join(c.vertices), c.vertices,
                     c.edges) for c in cycles if not c.has_exit]
        ends += [End("tail", f"tail:{v}", (v,)) for v in g.tails]
        entries = zip(g.vertices, map(g.conceptual_in_degree, g.vertices))
        return cls(tuple(comps), tuple(cycles), depth, frozenset(reaching),
                   sinks, tuple(filter(g.is_source, g.vertices)),
                   tuple(sorted(ends, key=lambda e: e.id)),
                   tuple((v, n) for v, n in entries if n != 1))


_GRAPH_KEYS = {"k", "vertices", "edges", "tails", "source_tails"}
_EDGE_KEYS = {"id", "source", "range"}


class GraphPresentation(EdgeSkeleton):
    """Validated finite presentation of a (possibly infinite) directed graph."""

    def __init__(
        self,
        vertices: Sequence[str],
        edges: Sequence[Edge],
        tails: Sequence[str] = (),
        source_tails: Sequence[str] = (),
    ):
        self.vertices: Tuple[str, ...] = tuple(sorted(vertices))
        self.tails: Tuple[str, ...] = tuple(sorted(tails))
        self.source_tails: Tuple[str, ...] = tuple(sorted(source_tails))
        # the sorted tuples are what reports print; membership tests use sets
        self.tail_set: FrozenSet[str] = frozenset(self.tails)
        self.source_tail_set: FrozenSet[str] = frozenset(self.source_tails)
        self._validate(edges)
        self._index_edges(edges)

    # -- validation ---------------------------------------------------------

    def _validate(self, edges: Sequence[Edge]) -> None:
        vset = set(self.vertices)
        for ident in list(self.vertices) + [e.id for e in edges]:
            if not isinstance(ident, str) or not ident or "~" in ident:
                raise GraphValidationError(
                    f"identifier {ident!r} must be a nonempty string without '~'"
                )
        for v in self.tails:
            if v not in vset:
                raise GraphValidationError(f"tail mark on undeclared vertex {v!r}")
        if len(self.tail_set) != len(self.tails):
            raise GraphValidationError("duplicate tail mark")
        for v in self.source_tails:
            if v not in vset:
                raise GraphValidationError(
                    f"source tail mark on undeclared vertex {v!r}"
                )
        if len(self.source_tail_set) != len(self.source_tails):
            raise GraphValidationError("duplicate source tail mark")
        # a tail mark makes its vertex emit, so marked vertices are never
        # sinks; the smallest tail graph is a single marked vertex

    # -- basic structure ----------------------------------------------------

    def is_sink(self, v: str) -> bool:
        return not self._out[v] and v not in self.tail_set

    def is_source(self, v: str) -> bool:
        return not self._in[v] and v not in self.source_tail_set

    def conceptual_in_degree(self, v: str) -> int:
        return len(self._in[v]) + (1 if v in self.source_tail_set else 0)

    @cached_property
    def _core(self) -> "CoreStructure":
        return CoreStructure.of(self)

    def components(self) -> Tuple[Tuple[str, ...], ...]:
        """Strongly connected components of the core, sinks first: every
        edge that leaves a component goes to one listed earlier."""
        return self._core.components

    def simple_cycles(self) -> List[Tuple[str, ...]]:
        """One simple cycle per cyclic component of the core (the one
        `CoreStructure` keeps), least vertex first, in sorted order.  This is
        every simple cycle exactly when each cyclic component is bare, as it
        is whenever no loop has an exit."""
        return sorted(c.vertices for c in self._core.cycles)

    def loop_has_exit(self, cycle: Tuple[str, ...]) -> bool:
        """Whether a simple cycle of the core (its vertices) has an exit:
        by `CoreStructure`, exactly when the kept cycle of its component
        has one."""
        comp = next(c for c in self._core.components if cycle[0] in c)
        return next(c.has_exit for c in self._core.cycles
                    if c.vertices[0] in comp)

    def reaches_sink(self, v: str) -> bool:
        """Whether some finite forward path from v dies at a sink."""
        return v in self._core.reaching_sink

    def backward_infinite(self, v: str) -> bool:
        """Whether v admits entering paths of every length: its backward
        cone holds a source tail or a vertex of a cyclic component."""
        return self._core.backward_depth[v] is None

    def backward_depth(self, v: str) -> Optional[int]:
        """Length of the longest entering path, or None when unbounded."""
        return self._core.backward_depth[v]

    # -- reports ------------------------------------------------------------

    def structural_report(self) -> dict:
        """`loops` counts the cyclic components of the core, and
        `loops_with_exit` those that hold a cycle with an exit; both are
        simple-cycle counts when every cyclic component is a bare cycle."""
        core = self._core
        return {
            "row_finite": True,
            "locally_finite": True,
            "sinks": list(core.sinks),
            "sources": list(core.sources),
            "loops": len(core.cycles),
            "loops_with_exit": sum(1 for c in core.cycles if c.has_exit),
            "connected": self.connected(),
        }

    def find_ends(self) -> List[End]:
        return list(self._core.ends)

    def single_entry_check(self) -> dict:
        violations = self._core.entry_violations
        return {"holds": not violations, "violations": dict(violations)}

    def classify(self) -> Classification:
        if (
            not self.connected()
            or self._core.entry_violations
            or self._core.sinks
        ):
            return Classification("Other")
        cycles = self._core.cycles
        if not cycles:
            return Classification("DirectedTree")
        cyc = cycles[0]
        if (
            len(cycles) == 1
            and not cyc.has_exit
            and len(cyc.vertices) == len(self.vertices)
            and not self.tails
            and not self.source_tails
        ):
            return Classification("SingleLoop", len(cyc.vertices))
        return Classification("Other")

    # -- transforms -----------------------------------------------------------

    def expand(self, depth: int) -> "ExpandedGraph":
        """Materialize tails and source tails to the given depth."""
        return ExpandedGraph(self, depth)

    def fingerprint(self) -> tuple:
        return (
            1,
            self.vertices,
            tuple(sorted((e.id, e.source, e.range) for e in self.edges.values())),
            self.tails,
            self.source_tails,
        )


def boundary_coefficients_1graph(g: GraphPresentation) -> Dict[str, int]:
    """Closed form of the Hochschild boundary b(c) of the orientation cycle
    on the conceptual graph: (|v|_1 - 1) p_v at non-sinks and |v|_1 p_v at
    sinks (tail interiors all vanish), read off the presentation."""
    out = {}
    for v in g.vertices:
        entries = g.conceptual_in_degree(v)
        out[v] = entries if g.is_sink(v) else entries - 1
    return out


class ExpandedGraph(EdgeSkeleton):
    """Finite window of the conceptual graph: core plus depth-d tail segments.

    Serves as the ambient for exact path algebra, as a k-graph with k = 1:
    every edge has colour 1 and a path's degree is the 1-tuple of its
    length.  Vertices added for a tail rooted at v are named ``v~t1..v~td``
    (and ``v~s1..`` for source tails).
    """

    def __init__(self, presentation: GraphPresentation, depth: int):
        if depth < 0:
            raise ValueError("expansion depth must be >= 0")
        self.presentation = presentation
        self.depth = depth
        self.k = 1
        verts = list(presentation.vertices)
        edges = [
            Edge(e.id, e.source, e.range, 1) for e in presentation.edges.values()
        ]
        for root in presentation.tails:
            prev = root
            for j in range(1, depth + 1):
                v = f"{root}~t{j}"
                verts.append(v)
                edges.append(Edge(f"{root}~te{j}", prev, v, 1))
                prev = v
        for root in presentation.source_tails:
            prev = root
            for j in range(1, depth + 1):
                v = f"{root}~s{j}"
                verts.append(v)
                edges.append(Edge(f"{root}~se{j}", v, prev, 1))
                prev = v
        self.vertices: Tuple[str, ...] = tuple(sorted(verts))
        self._index_edges(edges)

    # -- ambient interface used by the path algebra -------------------------

    def fingerprint(self) -> tuple:
        return self.presentation.fingerprint() + (self.depth,)

    def degree(self, path: Tuple[str, ...]) -> Tuple[int]:
        return (len(path),)

    def normal(self, path: Tuple[str, ...]) -> Tuple[str, ...]:
        return path

    def compose(
        self, p: Tuple[str, ...], q: Tuple[str, ...]
    ) -> Optional[Tuple[str, ...]]:
        if p and q and self.path_range(p) != self.path_source(q):
            return None
        return p + q

    def divide_prefix(
        self, nu: Tuple[str, ...], alpha: Tuple[str, ...]
    ) -> Optional[Tuple[str, ...]]:
        """Return nu' with nu = alpha . nu', or None."""
        if len(alpha) > len(nu) or nu[: len(alpha)] != alpha:
            return None
        return nu[len(alpha):]


def read_document(text: str) -> object:
    """The JSON value of a presentation document's text."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise GraphFormatError("arrays or objects nested too deeply") from None
    except ValueError as exc:  # an integer past the int-digit limit
        raise GraphFormatError(f"number out of range: {exc}") from None


def parse_graph(text: str) -> GraphPresentation:
    """Parse and validate a 1-graph presentation document."""
    return graph_from_document(read_document(text))


def document_edges(doc: object, fields: AbstractSet[str],
                   edge_fields: AbstractSet[str]) -> List[Edge]:
    """Check a presentation document's schema and return its edges.

    GraphFormatError unless doc is a JSON object with no field outside
    `fields`, with k, vertices, edges and tails present, a positive int k,
    every other field an array, string vertices and tail marks, and every
    edge record an object with exactly `edge_fields`: string id, source,
    range, int color.
    """
    if not isinstance(doc, dict):
        raise GraphFormatError("presentation document must be a JSON object")
    unknown = set(doc) - fields
    if unknown:
        raise GraphFormatError(f"unknown fields: {sorted(unknown)}")
    for key in ("k", "vertices", "edges", "tails"):
        if key not in doc:
            raise GraphFormatError(f"missing required field {key!r}")
    if type(doc["k"]) is not int or doc["k"] < 1:
        raise GraphFormatError("k must be a positive integer")
    for key in sorted(fields - {"k"}):
        if key in doc and not isinstance(doc[key], list):
            raise GraphFormatError(f"field {key!r} must be an array")
    for key in ("vertices", "tails", "source_tails"):
        if not all(isinstance(v, str) for v in doc.get(key, ())):
            raise GraphFormatError(f"{key} must be strings")
    edges: List[Edge] = []
    width, coloured = len(edge_fields), "color" in edge_fields
    for rec in doc["edges"]:
        # one test per field: with width fields, these are exactly the ones
        if (isinstance(rec, dict) and len(rec) == width
                and isinstance(ident := rec.get("id"), str)
                and isinstance(source := rec.get("source"), str)
                and isinstance(target := rec.get("range"), str)
                and type(color := rec.get("color", None if coloured else 1))
                is int):
            edges.append(Edge(ident, source, target, color))
            continue
        if not isinstance(rec, dict):
            raise GraphFormatError("edge records must be objects")
        extra = set(rec) - edge_fields
        if extra:
            raise GraphFormatError(f"unknown edge fields: {sorted(extra)}")
        if set(rec) != edge_fields:
            raise GraphFormatError(f"edge record missing fields: {rec}")
        if not all(isinstance(rec[f], str) for f in ("id", "source", "range")):
            raise GraphFormatError(
                f"edge id, source and range must be strings: {rec}")
        raise GraphFormatError(f"edge color must be an integer: {rec}")
    return edges


def graph_from_document(doc: object) -> GraphPresentation:
    if isinstance(doc, dict) and doc.get("k", 1) != 1:
        raise GraphFormatError("graph documents must have k = 1 (use parse_kgraph)")
    edges = document_edges(doc, _GRAPH_KEYS, _EDGE_KEYS)
    return GraphPresentation(
        doc["vertices"], edges, doc["tails"], doc.get("source_tails", ())
    )


def graph_to_document(g: GraphPresentation) -> dict:
    doc = {
        "k": 1,
        "vertices": list(g.vertices),
        "edges": [
            {"id": e, "source": g.edges[e].source, "range": g.edges[e].range}
            for e in g.edge_order
        ],
        "tails": list(g.tails),
    }
    if g.source_tails:
        doc["source_tails"] = list(g.source_tails)
    return doc
