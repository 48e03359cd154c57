"""Hand-built presentations shared across the test modules."""

import random

from graphtriple.graphs import Edge, GraphPresentation
from graphtriple.kgraphs import KGraphPresentation, kgraph_from_document


def single_loop(n: int = 1) -> GraphPresentation:
    verts = [f"v{i}" for i in range(n)]
    edges = [Edge(f"e{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
    return GraphPresentation(verts, edges)


def bi_infinite_path() -> GraphPresentation:
    return GraphPresentation(["v"], [], tails=["v"], source_tails=["v"])


def tree_with_ends(n_ends: int) -> GraphPresentation:
    """Single-entry no-source tree with the given number of tail ends."""
    if n_ends == 1:
        return bi_infinite_path()
    if n_ends == 2:
        return GraphPresentation(
            ["b", "c1", "c2"],
            [Edge("e1", "b", "c1"), Edge("e2", "b", "c2")],
            tails=["c1", "c2"],
            source_tails=["b"],
        )
    if n_ends == 3:
        return GraphPresentation(
            ["b", "c1", "c2", "d1", "d2"],
            [
                Edge("e1", "b", "c1"),
                Edge("e2", "b", "c2"),
                Edge("f1", "c2", "d1"),
                Edge("f2", "c2", "d2"),
            ],
            tails=["c1", "d1", "d2"],
            source_tails=["b"],
        )
    if n_ends == 4:
        return GraphPresentation(
            ["b", "c1", "c2", "d1", "d2", "d3", "d4"],
            [
                Edge("e1", "b", "c1"),
                Edge("e2", "b", "c2"),
                Edge("f1", "c1", "d1"),
                Edge("f2", "c1", "d2"),
                Edge("f3", "c2", "d3"),
                Edge("f4", "c2", "d4"),
            ],
            tails=["d1", "d2", "d3", "d4"],
            source_tails=["b"],
        )
    raise ValueError("tree_with_ends supports 1..4 ends")


def dyadic_tree(depth: int) -> GraphPresentation:
    """Full binary tree to the given depth, leaves tail-marked, fed by a
    source tail; the canonical growing-ends counterexample family."""
    verts = ["r"]
    edges = []
    level = ["r"]
    for d in range(depth):
        nxt = []
        for v in level:
            for side in "01":
                w = f"{v}{side}"
                verts.append(w)
                edges.append(Edge(f"E{w}", v, w))
                nxt.append(w)
        level = nxt
    return GraphPresentation(verts, edges, tails=level, source_tails=["r"])


def random_tree(n: int, seed: int = 0) -> GraphPresentation:
    """A random single-entry tree on v0..v{n-1}: vertex i hangs off one of
    the 50 vertices before it, every leaf carries a tail and the root v0 a
    source tail."""
    rng = random.Random(seed)
    verts = [f"v{i}" for i in range(n)]
    parents = [rng.randrange(max(0, i - 50), i) for i in range(1, n)]
    edges = [Edge(f"e{i}", f"v{p}", f"v{i}")
             for i, p in enumerate(parents, start=1)]
    leaves = set(range(n)) - set(parents)
    return GraphPresentation(verts, edges, tails=[f"v{i}" for i in leaves],
                             source_tails=["v0"])


def sink_path() -> GraphPresentation:
    return GraphPresentation(
        ["v", "w"], [Edge("e", "v", "w")], source_tails=["v"]
    )


def loop_with_exit() -> GraphPresentation:
    return GraphPresentation(
        ["v", "w"],
        [Edge("e", "v", "v"), Edge("f", "v", "w")],
        tails=["w"],
    )


def loop_with_exit_tree() -> GraphPresentation:
    """Single-entry, no sinks, but the loop has an exit (no faithful trace)."""
    return GraphPresentation(
        ["v1", "v2", "w"],
        [
            Edge("e1", "v1", "v2"),
            Edge("e2", "v2", "v1"),
            Edge("f", "v1", "w"),
        ],
        tails=["w"],
    )


def double_entry_tree() -> GraphPresentation:
    return GraphPresentation(
        ["b", "c"],
        [Edge("e1", "b", "c"), Edge("e2", "b", "c")],
        tails=["c"],
        source_tails=["b"],
    )


def two_disjoint_loops() -> GraphPresentation:
    return GraphPresentation(
        ["u", "w"], [Edge("e", "u", "u"), Edge("f", "w", "w")]
    )


def torus_2graph() -> KGraphPresentation:
    return KGraphPresentation(
        2,
        ["v"],
        [Edge("e", "v", "v", 1), Edge("f", "v", "v", 2)],
        [(("e", "f"), ("f", "e"))],
    )


def two_vertex_2graph() -> KGraphPresentation:
    """Two-vertex single-exit 2-graph: color 1 swaps, color 2 loops."""
    return KGraphPresentation(
        2,
        ["u", "w"],
        [
            Edge("a", "u", "w", 1),
            Edge("b", "w", "u", 1),
            Edge("f", "u", "u", 2),
            Edge("g", "w", "w", 2),
        ],
        [(("a", "g"), ("f", "a")), (("b", "f"), ("g", "b"))],
    )


def two_loop_fan_doc(u: str = "u") -> dict:
    """A 2-graph document: a loop of each colour at a and at b, and a vertex
    u with one edge of each colour into a (x1, x2) and into b (y1, y2),
    squared by x1 a2 = x2 a1 and y1 b2 = y2 b1.  Its trace is g(a) = g(b)
    = 1, g(u) = 2, whatever u is called."""
    def edge(eid, source, range_, color):
        return {"id": eid, "source": source, "range": range_, "color": color}

    def square(first, second):
        return {"first": first, "second": second}
    return {
        "k": 2, "vertices": ["a", "b", u], "tails": [],
        "edges": [edge("a1", "a", "a", 1), edge("a2", "a", "a", 2),
                  edge("b1", "b", "b", 1), edge("b2", "b", "b", 2),
                  edge("x1", u, "a", 1), edge("x2", u, "a", 2),
                  edge("y1", u, "b", 1), edge("y2", u, "b", 2)],
        "squares": [square(["a1", "a2"], ["a2", "a1"]),
                    square(["b1", "b2"], ["b2", "b1"]),
                    square(["x1", "a2"], ["x2", "a1"]),
                    square(["y1", "b2"], ["y2", "b1"])],
    }


def two_loop_fan_2graph(u: str = "u") -> KGraphPresentation:
    return kgraph_from_document(two_loop_fan_doc(u))


def two_extension_2graph() -> KGraphPresentation:
    """One vertex, two edges of each colour; e1 f2 = f1 e2 makes
    S_e1* S_f1 = S_f1 S_e1* + S_f2 S_e2* a sum of two terms."""
    return KGraphPresentation(
        2,
        ["v"],
        [
            Edge("e1", "v", "v", 1),
            Edge("e2", "v", "v", 1),
            Edge("f1", "v", "v", 2),
            Edge("f2", "v", "v", 2),
        ],
        [
            (("e1", "f1"), ("f1", "e1")),
            (("e1", "f2"), ("f1", "e2")),
            (("e2", "f1"), ("f2", "e1")),
            (("e2", "f2"), ("f2", "e2")),
        ],
    )


def one_vertex_3graph() -> KGraphPresentation:
    return KGraphPresentation(
        3,
        ["v"],
        [
            Edge("x", "v", "v", 1),
            Edge("y", "v", "v", 2),
            Edge("z", "v", "v", 3),
        ],
        [
            (("x", "y"), ("y", "x")),
            (("x", "z"), ("z", "x")),
            (("y", "z"), ("z", "y")),
        ],
    )


def one_vertex_kgraph(k: int) -> KGraphPresentation:
    edges = [Edge(f"g{c}", "v", "v", c) for c in range(1, k + 1)]
    squares = [
        ((f"g{c}", f"g{d}"), (f"g{d}", f"g{c}"))
        for c in range(1, k + 1)
        for d in range(c + 1, k + 1)
    ]
    return KGraphPresentation(k, ["v"], edges, squares)


def single_exit_violating_2graph() -> KGraphPresentation:
    """Vertex w receives two color-1 edges, u receives none."""
    return KGraphPresentation(
        2,
        ["u", "w"],
        [
            Edge("a", "u", "w", 1),
            Edge("b", "w", "w", 1),
            Edge("f", "u", "u", 2),
            Edge("g", "w", "w", 2),
        ],
        [(("a", "g"), ("f", "a")), (("b", "g"), ("g", "b"))],
    )


ORIENTATION_CORPUS_1GRAPH = [
    ("loop1", single_loop(1)),
    ("loop2", single_loop(2)),
    ("loop3", single_loop(3)),
    ("loop4", single_loop(4)),
    ("loop5", single_loop(5)),
    ("bi_path", bi_infinite_path()),
    ("tree2", tree_with_ends(2)),
    ("tree3", tree_with_ends(3)),
    ("tree4", tree_with_ends(4)),
    ("loop_exit_tail", loop_with_exit_tree()),
]
