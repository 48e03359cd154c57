import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtriple.graphs import Edge, GraphFormatError, GraphValidationError
from graphtriple.kgraphs import KGraphPresentation, parse_kgraph

from corpus import (one_vertex_3graph, one_vertex_kgraph,
                    single_exit_violating_2graph, torus_2graph,
                    two_extension_2graph, two_vertex_2graph)
from oracles import factorize, normal_by_bubbles, segment
from test_conditions import product_kgraphs, twisted_2graphs
from test_spectral import abelian_kgraphs


def torus_doc(squares=({"first": ["e", "f"], "second": ["f", "e"]},)):
    return json.dumps({
        "k": 2,
        "vertices": ["v"],
        "edges": [
            {"id": "e", "source": "v", "range": "v", "color": 1},
            {"id": "f", "source": "v", "range": "v", "color": 2},
        ],
        "tails": [],
        "squares": list(squares),
    })


class TestParse:
    def test_torus(self):
        g = parse_kgraph(torus_doc())
        assert g.k == 2
        assert g.unit_degree_paths() == [("e", "f")]

    def test_missing_square(self):
        with pytest.raises(GraphValidationError, match="missing square"):
            parse_kgraph(torus_doc(squares=()))

    def test_square_endpoint_mismatch(self):
        doc = json.loads(torus_doc())
        doc["vertices"] = ["v", "w"]
        doc["edges"].append({"id": "g", "source": "w", "range": "w", "color": 1})
        doc["edges"].append({"id": "h", "source": "w", "range": "w", "color": 2})
        doc["squares"] = [
            {"first": ["e", "f"], "second": ["g", "h"]},
        ]
        with pytest.raises(GraphValidationError):
            parse_kgraph(json.dumps(doc))

    def test_cube_inconsistency_detected(self):
        # one vertex, two edges per color; the plain commuting squares are
        # consistent, but twisting two of the three swap families by an XOR
        # on the edge labels breaks the Yang-Baxter (cube) condition
        def build(twist):
            def xor(s, t):
                return "a" if s == t else "b"

            edges = []
            for c in range(1, 4):
                for s in "ab":
                    edges.append(
                        {"id": f"{c}{s}", "source": "v", "range": "v", "color": c}
                    )
            squares = []
            for s in "ab":
                for t in "ab":
                    s12 = xor(s, t) if twist else s
                    s23 = xor(s, t) if twist else s
                    squares.append({"first": [f"1{s}", f"2{t}"],
                                    "second": [f"2{t}", f"1{s12}"]})
                    squares.append({"first": [f"2{s}", f"3{t}"],
                                    "second": [f"3{t}", f"2{s23}"]})
                    squares.append({"first": [f"1{s}", f"3{t}"],
                                    "second": [f"3{t}", f"1{s}"]})
            return json.dumps({"k": 3, "vertices": ["v"], "tails": [],
                               "edges": edges, "squares": squares})

        parse_kgraph(build(twist=False))  # plain version is consistent
        with pytest.raises(GraphValidationError, match="cube"):
            parse_kgraph(build(twist=True))

    def test_tails_rejected(self):
        doc = json.loads(torus_doc())
        doc["tails"] = ["v"]
        with pytest.raises(GraphFormatError, match="tails"):
            parse_kgraph(json.dumps(doc))

    def test_missing_color_rejected(self):
        doc = json.loads(torus_doc())
        del doc["edges"][0]["color"]
        with pytest.raises(GraphFormatError):
            parse_kgraph(json.dumps(doc))


class TestSegments:
    def test_identity_segment(self):
        g = torus_2graph()
        lam = g.normal(("e", "f"))
        assert segment(g, lam, (0, 0), g.degree(lam)) == lam

    def test_prefix_of_normal_form(self):
        g = torus_2graph()
        assert segment(g, ("e", "f"), (0, 0), (1, 0)) == ("e",)
        assert segment(g, ("e", "f"), (1, 0), (1, 1)) == ("f",)

    def test_out_of_range(self):
        g = torus_2graph()
        with pytest.raises(ValueError):
            segment(g, ("e", "f"), (0, 0), (2, 0))

    def test_segment_composition_exhaustive(self):
        # all paths of degree <= (2,2) on the two-vertex 2-graph: splitting
        # then recomposing recovers the path
        g = two_vertex_2graph()
        for d1 in range(3):
            for d2 in range(3):
                for v in g.vertices:
                    for lam in g.paths_with_degree((d1, d2), v, "out-of"):
                        d = g.degree(lam)
                        for m1 in range(d1 + 1):
                            for m2 in range(d2 + 1):
                                head = segment(g, lam, (0, 0), (m1, m2))
                                tail = segment(g, lam, (m1, m2), d)
                                assert g.compose(head, tail) == g.normal(lam)


class TestFactorize:
    """The tests' factorisation, the route `hochschild` took before it
    walked the colour orders as a tree, which is now its oracle."""

    def test_torus_identity_and_flip(self):
        g = torus_2graph()
        mu = g.normal(("e", "f"))
        assert factorize(g, mu, (1, 2)) == (("e",), ("f",))
        assert factorize(g, mu, (2, 1)) == (("f",), ("e",))

    def test_two_vertex_example(self):
        g = two_vertex_2graph()
        mu = g.normal(("a", "g"))  # = fa by the square
        assert factorize(g, mu, (1, 2)) == (("a",), ("g",))
        assert factorize(g, mu, (2, 1)) == (("f",), ("a",))

    def test_degree_mismatch(self):
        g = torus_2graph()
        with pytest.raises(ValueError):
            factorize(g, ("e",), (1, 2))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_all_permutations_recompose(self, k):
        g = one_vertex_kgraph(k)
        for v in g.vertices:
            for mu in g.paths_with_degree(tuple([1] * k), v, "out-of"):
                for sigma in itertools.permutations(range(1, k + 1)):
                    factors = factorize(g, mu, sigma)
                    assert [g.degree(f) for f in factors] == [
                        tuple(1 if i == s - 1 else 0 for i in range(k))
                        for s in sigma
                    ]
                    whole = ()
                    for f in factors:
                        whole = g.compose(whole, f)
                    assert whole == g.normal(mu)


# the corpus k-graphs, and drawn abelian, product and twisted ones
CORPUS_KGRAPHS = [torus_2graph(), two_vertex_2graph(), one_vertex_3graph(),
                  single_exit_violating_2graph(), two_extension_2graph(),
                  *(one_vertex_kgraph(k) for k in (2, 4))]


@st.composite
def shuffled_words(draw):
    """A k-graph, a colour-sorted path of degree at most 2 in each colour,
    and a word for the same path reached from it by random square moves."""
    g = draw(st.one_of(st.sampled_from(CORPUS_KGRAPHS), abelian_kgraphs(),
                       product_kgraphs(), twisted_2graphs()))
    n = tuple(draw(st.lists(st.integers(0, 2), min_size=g.k,
                            max_size=g.k)))
    paths = g.paths_with_degree(n, draw(st.sampled_from(g.vertices)),
                                "out-of")
    sorted_word = draw(st.sampled_from(paths)) if paths else ()
    word = sorted_word
    for i in draw(st.lists(st.integers(0, max(len(word) - 2, 0)),
                           max_size=12)):
        if len(word) > 1 and g.edge_color(word[i]) != g.edge_color(word[i + 1]):
            word = g._swap_at(word, i)
    return g, sorted_word, word


class TestWordsAgainstBubbles:
    """normal, split_prefix and divide_prefix share one pull routine; the
    bubble sort of leftmost square moves is their oracle."""

    @given(shuffled_words())
    @settings(max_examples=150, deadline=None)
    def test_normal_is_the_bubble_normal_form(self, case):
        g, sorted_word, word = case
        assert g.normal(word) == normal_by_bubbles(g, word) == sorted_word

    @given(shuffled_words(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_split_and_divide_recompose(self, case, data):
        g, sorted_word, word = case
        d = g.degree(word)
        m = tuple(data.draw(st.integers(0, n)) for n in d)
        prefix, rest = g.split_prefix(word, m)
        assert g.degree(prefix) == m
        assert prefix == normal_by_bubbles(g, prefix)
        assert rest == normal_by_bubbles(g, rest)
        assert g.compose(prefix, rest) == sorted_word
        if word:
            # only the path's own prefix of degree m divides it
            for alpha in g.paths_with_degree(m, g.path_source(word),
                                             "out-of"):
                assert g.divide_prefix(word, alpha) == (
                    rest if alpha == prefix else None)


class TestEnumeration:
    def test_torus_unit_square_unique(self):
        g = torus_2graph()
        assert g.paths_with_degree((1, 1), "v", "out-of") == [("e", "f")]

    @given(st.one_of(st.sampled_from(CORPUS_KGRAPHS), abelian_kgraphs(),
                     product_kgraphs(), twisted_2graphs()))
    @settings(max_examples=60, deadline=None)
    def test_unit_degree_path_count_is_the_list_length(self, g):
        assert g.unit_degree_path_count() == len(g.unit_degree_paths())

    def test_single_exit_checks(self):
        assert torus_2graph().single_exit_check()["holds"]
        assert two_vertex_2graph().single_exit_check()["holds"]
        chk = single_exit_violating_2graph().single_exit_check()
        assert not chk["holds"]
        assert chk["violations"][("w", 1)] == 2
        assert chk["violations"][("u", 1)] == 0

    def test_k1_embedding_agrees_with_plain_enumeration(self):
        g = KGraphPresentation(
            1, ["a", "b"],
            [Edge("e", "a", "b", 1), Edge("f", "b", "a", 1)],
            [],
        )
        assert g.paths_with_degree((2,), "a", "out-of") == [("e", "f")]
        # the length-2 path ending at a is e then f
        assert g.paths_with_degree((2,), "a", "into") == [("e", "f")]
        assert g.paths_with_degree((2,), "b", "into") == [("f", "e")]


class TestProperties:
    @given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
           st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_degree_additivity(self, a, b, c, d):
        g = two_vertex_2graph()
        for v in g.vertices:
            for lam in g.paths_with_degree((a, b), v, "out-of"):
                w = g.path_range(lam) if lam else v
                for nu in g.paths_with_degree((c, d), w, "out-of"):
                    whole = g.compose(lam, nu)
                    assert g.degree(whole) == (a + c, b + d)

    def test_color_histogram_preserved_by_squares(self):
        g = one_vertex_3graph()
        word = ("z", "y", "x")
        assert sorted(g.edges[e].color for e in g.normal(word)) == [1, 2, 3]
