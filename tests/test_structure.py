"""The one-pass core structure (`graphs.CoreStructure`) against the
networkx simple-cycle route it replaced, kept here as the oracle.

The oracle lists every simple cycle of the core.  The pass lists the
strongly connected components instead, and the two must agree: on whether
each loop has an exit, and, where none has, on the loops, the ends, the
classification, the K-theory ranks and the trace.  Connectivity is checked
against networkx, and backward depth against a count of entering paths in
an expansion.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtriple.graphs import Classification, Edge, End, GraphPresentation
from graphtriple.traces import (_stationary_end, ktheory_ranks,
                                solve_graph_trace)

from corpus import (bi_infinite_path, double_entry_tree, dyadic_tree,
                    loop_with_exit, loop_with_exit_tree, single_loop,
                    sink_path, tree_with_ends, two_disjoint_loops)

CORPUS = [
    single_loop(1), single_loop(2), single_loop(3), single_loop(4),
    bi_infinite_path(), tree_with_ends(2), tree_with_ends(3),
    tree_with_ends(4), dyadic_tree(1), dyadic_tree(2), dyadic_tree(3),
    sink_path(), loop_with_exit(), loop_with_exit_tree(),
    double_entry_tree(), two_disjoint_loops(),
]


# -- the networkx route ------------------------------------------------------------


def oracle_cycles(g: GraphPresentation) -> List[Tuple[str, ...]]:
    d = nx.MultiDiGraph()
    d.add_nodes_from(g.vertices)
    for eid in g.edge_order:
        d.add_edge(g.edges[eid].source, g.edges[eid].range, key=eid)
    cycles = []
    for cyc in nx.simple_cycles(d):
        k = cyc.index(min(cyc))
        cycles.append(tuple(cyc[k:] + cyc[:k]))
    return sorted(set(cycles))


def oracle_has_exit(g: GraphPresentation, cycle: Tuple[str, ...]) -> bool:
    cset = set(cycle)
    for v in cycle:
        inside = [e for e in g.out_edges(v) if g.edges[e].range in cset]
        if v in g.tails or len(inside) != len(g.out_edges(v)) or len(inside) > 1:
            return True
    return False


def oracle_ends(g: GraphPresentation) -> List[End]:
    ends = [End("sink", f"sink:{v}", (v,)) for v in g.vertices if g.is_sink(v)]
    for cyc in oracle_cycles(g):
        if not oracle_has_exit(g, cyc):
            edges = tuple(
                min(e for e in g.out_edges(v)
                    if g.edges[e].range == cyc[(i + 1) % len(cyc)])
                for i, v in enumerate(cyc))
            ends.append(End("loop", "loop:" + "-".join(cyc), cyc, edges))
    ends.extend(End("tail", f"tail:{v}", (v,)) for v in g.tails)
    return sorted(ends, key=lambda e: e.id)


def oracle_connected(g: GraphPresentation) -> bool:
    u = nx.Graph()
    u.add_nodes_from(g.vertices)
    u.add_edges_from((e.source, e.range) for e in g.edges.values())
    return not g.vertices or nx.is_connected(u)


def oracle_classify(g: GraphPresentation) -> Classification:
    if (not oracle_connected(g) or not g.single_entry_check()["holds"]
            or any(g.is_sink(v) for v in g.vertices)):
        return Classification("Other")
    cycles = oracle_cycles(g)
    if not cycles:
        return Classification("DirectedTree")
    if (len(cycles) == 1 and not oracle_has_exit(g, cycles[0])
            and len(cycles[0]) == len(g.vertices)
            and not g.tails and not g.source_tails):
        return Classification("SingleLoop", len(cycles[0]))
    return Classification("Other")


def oracle_trace(g: GraphPresentation) -> Dict[str, Fraction]:
    """The depth-first recursion `solve_graph_trace` used, end values 1."""
    values = {v: Fraction(1) for end in oracle_ends(g)
              if end.kind != "tail" for v in end.vertices}

    def value(v: str) -> Fraction:
        if v not in values:
            values[v] = Fraction(int(v in g.tails)) + sum(
                (value(g.edges[e].range) for e in g.out_edges(v)), Fraction(0))
        return values[v]

    for v in g.vertices:
        value(v)
    return values


def oracle_stationary_end(g: GraphPresentation) -> Dict[str, Optional[str]]:
    """The depth-first chain walk `_stationary_end` used."""
    on_end = {v: end.id for end in oracle_ends(g) if end.kind != "tail"
              for v in end.vertices}
    out: Dict[str, Optional[str]] = {}

    def walk(v: str, seen: Tuple[str, ...]) -> Optional[str]:
        if v not in out:
            outs = g.out_edges(v)
            if v in on_end:
                out[v] = on_end[v]
            elif v in seen:
                return None
            elif v in g.tails:
                out[v] = None if outs else f"tail:{v}"
            elif len(outs) != 1:
                out[v] = None
            else:
                out[v] = walk(g.edges[outs[0]].range, seen + (v,))
        return out[v]

    for v in g.vertices:
        walk(v, ())
    return out


def entering_depth(g: GraphPresentation, v: str) -> Optional[int]:
    """Longest entering path at v by counting paths of each length up to
    n = |V| in the expansion with source chains of length n; None when
    some path has length n.  An entering path of length n repeats a vertex
    or starts n steps up a source chain, and then there are paths of every
    length; otherwise the core cone is acyclic, and its paths are shorter
    than n."""
    n = len(g.vertices)
    amb = g.expand(n)
    count = {u: 1 for u in amb.vertices}
    longest = 0
    for length in range(1, n + 1):
        count = {u: sum(count[amb.edge_source(e)] for e in amb.in_edges(u))
                 for u in amb.vertices}
        if count[v]:
            longest = length
    return None if longest == n else longest


# -- strategies -------------------------------------------------------------------


@st.composite
def digraphs(draw, max_vertices=7):
    """Any presentation on up to max_vertices vertices: parallel edges,
    self-loops, tails and source tails."""
    n = draw(st.integers(1, max_vertices))
    verts = [f"v{i}" for i in range(n)]
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=3 * n))
    edges = [Edge(f"e{i:02d}", verts[a], verts[b])
             for i, (a, b) in enumerate(pairs)]
    tails = draw(st.sets(st.sampled_from(verts)))
    sources = draw(st.sets(st.sampled_from(verts)))
    return GraphPresentation(verts, edges, tails, sources)


@st.composite
def exitless_digraphs(draw):
    """Presentations on up to 7 vertices in which no loop has an exit: an
    acyclic part (parallel edges, diamonds, tails) feeding disjoint bare
    cycles, some of them self-loops, with source tails anywhere."""
    lengths = draw(st.lists(st.integers(1, 3), max_size=3))
    while sum(lengths) > 6:
        lengths.pop()
    m = draw(st.integers(1 if not lengths else 0, 7 - sum(lengths)))
    dag = [f"a{i}" for i in range(m)]
    verts = list(dag)
    edges = []
    for c, length in enumerate(lengths):
        ring = [f"c{c}{i}" for i in range(length)]
        verts += ring
        edges += [(ring[i], ring[(i + 1) % length]) for i in range(length)]
    if dag:
        later = st.integers(0, len(verts) - 1)
        for i, j in draw(st.lists(st.tuples(st.integers(0, m - 1), later),
                                  max_size=3 * m)):
            if j > i:
                edges.append((dag[i], verts[j]))
    tails = draw(st.sets(st.sampled_from(dag))) if dag else set()
    sources = draw(st.sets(st.sampled_from(verts)))
    return GraphPresentation(
        verts, [Edge(f"e{i:02d}", s, r) for i, (s, r) in enumerate(edges)],
        tails, sources)


# -- checks ------------------------------------------------------------------------


def check_against_oracle(g: GraphPresentation) -> None:
    cycles = oracle_cycles(g)
    report = g.structural_report()
    exits = any(oracle_has_exit(g, c) for c in cycles)
    assert (report["loops_with_exit"] > 0) == exits
    for c in cycles:
        assert g.loop_has_exit(c) == oracle_has_exit(g, c), c
    assert report["connected"] == g.connected() == oracle_connected(g)
    assert _stationary_end(g) == oracle_stationary_end(g)
    for v in g.vertices:
        depth = entering_depth(g, v)
        assert g.backward_depth(v) == depth
        assert g.backward_infinite(v) == (depth is None)
    if exits:
        return
    assert g.simple_cycles() == cycles
    assert report["loops"] == len(cycles)
    assert g.find_ends() == oracle_ends(g)
    assert g.classify() == oracle_classify(g)
    assert ktheory_ranks(g) == {"k0": len(oracle_ends(g)), "k1": len(cycles)}
    assert solve_graph_trace(g).values == oracle_trace(g)


def test_corpus_matches_oracle():
    for g in CORPUS:
        check_against_oracle(g)


@given(digraphs())
@settings(max_examples=300, deadline=None)
def test_random_digraphs_match_oracle(g):
    check_against_oracle(g)


@given(exitless_digraphs())
@settings(max_examples=300, deadline=None)
def test_exitless_digraphs_match_oracle(g):
    assert not g.structural_report()["loops_with_exit"]
    check_against_oracle(g)


def test_complete_digraph_on_twelve_vertices_is_one_loop_with_exit():
    # 119,481,284 simple cycles, so the oracle cannot list them
    verts = [f"x{i:02d}" for i in range(12)]
    g = GraphPresentation(verts, [Edge(f"e{u}{w}", u, w)
                                  for u in verts for w in verts if u != w])
    report = g.structural_report()
    assert (report["loops"], report["loops_with_exit"]) == (1, 1)
    assert report["connected"] and g.find_ends() == []
    assert g.classify().kind == "Other"
    assert all(g.backward_depth(v) is None for v in verts)
