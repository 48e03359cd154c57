"""Finitely presented higher-rank graphs (k-graphs).

A k-graph is presented by a colored 1-skeleton plus commuting squares: for
every composable two-color pair of edges e,f the square names the unique
pair a,b with the opposite color order and the same endpoints such that the
paths ef and ab are equal.  For k >= 3 the presentation is only a k-graph if
the squares satisfy the associativity (cube) condition, which is checked
eagerly at parse time.

Convention dictionary: this codebase keeps the 1-graph orientation (edges run
source -> range, paths compose left to right) everywhere.  The k-graph
literature swaps the names of range and source, so its "no sources" reads
here as "every vertex emits an edge of each color" and its "single exit
condition" reads here as "every vertex receives exactly one edge of each
color".  Internal data never flips.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .graphs import (Edge, EdgeSkeleton, GraphFormatError,
                     GraphValidationError, document_edges, read_document)

Degree = Tuple[int, ...]
Word = Tuple[str, ...]

# The most terms of c_k (k! per unit-degree path) `hochschild` builds, and
# the most unit-degree paths `analyze` lists, both counted before listing.
# c_k of the one-vertex 7-graph took 0.32-0.41 s and of the 8-graph 3.2 s
# and 117 MB (in-process, 2 CPUs, Python 3.11.7).
CYCLE_BUDGET = 5_040

_KGRAPH_KEYS = {"k", "vertices", "edges", "tails", "squares", "source_tails"}
_EDGE_KEYS = {"id", "source", "range", "color"}


class KGraphPresentation(EdgeSkeleton):
    """Validated k-graph presentation; also the ambient for its path algebra."""

    def __init__(self, k: int, vertices: Sequence[str], edges: Sequence[Edge],
                 squares: Sequence[Tuple[Word, Word]]):
        if k < 1:
            raise GraphValidationError("rank k must be a positive integer")
        self.k = k
        self.vertices: Tuple[str, ...] = tuple(sorted(vertices))
        self._index_edges(edges)
        self._validate_colors()
        self._swap: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self._install_squares(squares)
        self._check_square_coverage()
        if self.k >= 3:
            self._check_cubes()

    # -- validation ----------------------------------------------------------

    def _validate_colors(self) -> None:
        for e in self.edges.values():
            if not 1 <= e.color <= self.k:
                raise GraphValidationError(
                    f"edge {e.id!r} has color {e.color} outside 1..{self.k}"
                )
        for v in self.vertices:
            emitted = {self.edges[eid].color for eid in self._out[v]}
            for c in range(1, self.k + 1):
                if c not in emitted:
                    raise GraphValidationError(
                        f"vertex {v!r} emits no edge of color {c}"
                        " (presentation must be row-finite with no sources"
                        " in the k-graph sense)"
                    )

    def _install_squares(self, squares: Sequence[Tuple[Word, Word]]) -> None:
        for first, second in squares:
            for pair in (first, second):
                if len(pair) != 2 or any(e not in self.edges for e in pair):
                    raise GraphValidationError(f"square references unknown edges: {pair}")
                if not self.is_path(pair):
                    raise GraphValidationError(f"square pair {pair} is not composable")
            (e, f), (a, b) = tuple(first), tuple(second)
            ce, cf = self.edges[e].color, self.edges[f].color
            ca, cb = self.edges[a].color, self.edges[b].color
            if ce == cf or (ca, cb) != (cf, ce):
                raise GraphValidationError(
                    f"square {first}={second} must swap two distinct colors"
                )
            if (self.edges[e].source != self.edges[a].source
                    or self.edges[f].range != self.edges[b].range):
                raise GraphValidationError(
                    f"square endpoint mismatch: {first} vs {second}"
                )
            for key, val in (((e, f), (a, b)), ((a, b), (e, f))):
                if key in self._swap and self._swap[key] != val:
                    raise GraphValidationError(
                        f"conflicting squares for pair {key}"
                    )
                self._swap[key] = val

    def _check_square_coverage(self) -> None:
        for e in self.edge_order:
            for f in self._out[self.edges[e].range]:
                if self.edges[e].color != self.edges[f].color:
                    if (e, f) not in self._swap:
                        raise GraphValidationError(
                            f"missing square for composable pair ({e}, {f})"
                        )

    def _check_cubes(self) -> None:
        # two reshuffle routes from abc to the color-reversed word must agree
        for e1 in self.edge_order:
            for e2 in self._out[self.edges[e1].range]:
                for e3 in self._out[self.edges[e2].range]:
                    colors = {self.edges[x].color for x in (e1, e2, e3)}
                    if len(colors) != 3:
                        continue
                    w = (e1, e2, e3)
                    a = self._swap_at(self._swap_at(self._swap_at(w, 0), 1), 0)
                    b = self._swap_at(self._swap_at(self._swap_at(w, 1), 0), 1)
                    if a != b:
                        raise GraphValidationError(
                            f"cube inconsistency at 3-color path {w}: "
                            f"{a} != {b}"
                        )

    def fingerprint(self) -> tuple:
        return (
            self.k,
            self.vertices,
            tuple(sorted(
                (e.id, e.source, e.range, e.color) for e in self.edges.values()
            )),
            tuple(sorted(self._swap.items())),
        )

    # -- path machinery ---------------------------------------------------------

    def _swap_at(self, word: Word, i: int) -> Word:
        a, b = self._swap[(word[i], word[i + 1])]
        return word[:i] + (a, b) + word[i + 2:]

    def degree(self, word: Word) -> Degree:
        d = [0] * self.k
        for eid in word:
            d[self.edges[eid].color - 1] += 1
        return tuple(d)

    def _pull(self, word: Word, m: Sequence[int]) -> Tuple[Word, Word]:
        """Move m[c-1] edges of each colour c, colour 1 first, to the front
        by square moves: the colour-sorted prefix of degree m and the rest.
        Each pulled edge is the first of its colour, carried left one
        square at a time."""
        prefix: List[str] = []
        rest = list(word)
        for c, count in enumerate(m, 1):
            for _ in range(count):
                j = next(i for i, eid in enumerate(rest)
                         if self.edges[eid].color == c)
                e = rest.pop(j)
                for i in range(j - 1, -1, -1):
                    e, rest[i] = self._swap[(rest[i], e)]
                prefix.append(e)
        return tuple(prefix), tuple(rest)

    def normal(self, word: Word) -> Word:
        """Color-sorted normal form: the whole word pulled, colour by colour."""
        cache = getattr(self, "_normal_cache", None)
        if cache is None:
            cache = {}
            self._normal_cache = cache
        w = tuple(word)
        hit = cache.get(w)
        if hit is None:
            hit = cache[w] = self._pull(w, self.degree(w))[0]
        return hit

    def compose(self, p: Word, q: Word) -> Optional[Word]:
        if p and q and self.path_range(p) != self.path_source(q):
            return None
        return self.normal(p + q)

    def split_prefix(self, word: Word, m: Degree) -> Tuple[Word, Word]:
        """Factor word = prefix . rest with d(prefix) = m (unique by UFP)."""
        d = self.degree(word)
        if any(not 0 <= m[c] <= d[c] for c in range(self.k)):
            raise ValueError(f"degree {m} out of range for path of degree {d}")
        prefix, rest = self._pull(word, m)
        return prefix, self.normal(rest)

    def divide_prefix(self, nu: Word, alpha: Word) -> Optional[Word]:
        """Return nu' with nu = alpha . nu' (as paths), or None."""
        da, dn = self.degree(alpha), self.degree(nu)
        if any(da[c] > dn[c] for c in range(self.k)):
            return None
        prefix, rest = self._pull(nu, da)
        return self.normal(rest) if prefix == self.normal(alpha) else None

    def single_exit_check(self) -> dict:
        """Single exit condition: |Lambda^{e_i} v| = 1 for all v, i.

        In this codebase's orientation that is one entering edge per color
        at every vertex.
        """
        violations = {}
        for v in self.vertices:
            for c in range(1, self.k + 1):
                count = sum(
                    1 for eid in self._in[v] if self.edges[eid].color == c
                )
                if count != 1:
                    violations[(v, c)] = count
        return {"holds": not violations, "violations": violations}

    def unit_degree_paths(self) -> List[Word]:
        """All paths of degree (1,...,1), i.e. the sum range of the cycle c_k."""
        return self.paths_with_degree(tuple([1] * self.k), None, "out-of")

    def unit_degree_path_count(self) -> int:
        """len(unit_degree_paths()) with no path listed: N_c(v), the
        colour-sorted paths from v with one edge of each colour c..k, is
        counted from colour k down, N_{k+1}(v) = 1."""
        counts = dict.fromkeys(self.vertices, 1)
        for c in range(self.k, 0, -1):
            counts = {v: sum(counts[self.edge_range(e)]
                             for e in self.out_edges(v)
                             if self.edge_color(e) == c)
                      for v in self.vertices}
        return sum(counts.values())


def parse_kgraph(text: str) -> KGraphPresentation:
    """Parse and validate a k-graph presentation document."""
    return kgraph_from_document(read_document(text))


def kgraph_from_document(doc: object) -> KGraphPresentation:
    edges = document_edges(doc, _KGRAPH_KEYS, _EDGE_KEYS)
    if doc["tails"] or doc.get("source_tails"):
        raise GraphFormatError("tails are not supported for k-graph documents")
    squares = []
    for rec in doc.get("squares", ()):
        if not isinstance(rec, dict) or set(rec) != {"first", "second"}:
            raise GraphFormatError(f"square record must have first/second: {rec}")
        if not all(isinstance(rec[key], list)
                   and all(isinstance(e, str) for e in rec[key]) for key in rec):
            raise GraphFormatError(f"square pairs must be arrays of ids: {rec}")
        squares.append((tuple(rec["first"]), tuple(rec["second"])))
    return KGraphPresentation(doc["k"], doc["vertices"], edges, squares)
