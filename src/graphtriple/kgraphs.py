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

_KGRAPH_KEYS = {"k", "vertices", "edges", "tails", "squares", "source_tails"}
_EDGE_KEYS = {"id", "source", "range", "color"}


class KGraphPresentation(EdgeSkeleton):
    """Validated k-graph presentation; also the ambient for its path algebra.

    A finite k-graph has no truncation boundary, so ``boundary_out`` and
    ``boundary_in`` stay empty."""

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

    def normal(self, word: Word) -> Word:
        """Color-sorted normal form, reached by leftmost square moves."""
        cache = getattr(self, "_normal_cache", None)
        if cache is None:
            cache = {}
            self._normal_cache = cache
        w = tuple(word)
        hit = cache.get(w)
        if hit is not None:
            return hit
        original = w
        changed = True
        while changed:
            changed = False
            for i in range(len(w) - 1):
                if self.edges[w[i]].color > self.edges[w[i + 1]].color:
                    w = self._swap_at(w, i)
                    changed = True
                    break
        cache[original] = w
        return w

    def compose(self, p: Word, q: Word) -> Optional[Word]:
        if p and q and self.path_range(p) != self.path_source(q):
            return None
        return self.normal(p + q)

    def split_prefix(self, word: Word, m: Degree) -> Tuple[Word, Word]:
        """Factor word = prefix . rest with d(prefix) = m (unique by UFP)."""
        need = list(m)
        d = self.degree(word)
        if any(not 0 <= need[c] <= d[c] for c in range(self.k)):
            raise ValueError(f"degree {m} out of range for path of degree {d}")
        prefix: List[str] = []
        w = tuple(word)
        for c in range(1, self.k + 1):
            for _ in range(need[c - 1]):
                j = next(
                    i for i, eid in enumerate(w) if self.edges[eid].color == c
                )
                while j > 0:
                    w = self._swap_at(w, j - 1)
                    j -= 1
                prefix.append(w[0])
                w = w[1:]
        return tuple(prefix), self.normal(w)

    def segment(self, word: Word, m: Degree, n: Degree) -> Word:
        """The unique middle factor word(m, n), in normal form."""
        d = self.degree(word)
        if not all(0 <= m[c] <= n[c] <= d[c] for c in range(self.k)):
            raise ValueError(f"need 0 <= {m} <= {n} <= {d} componentwise")
        _, rest = self.split_prefix(word, m)
        mid, _ = self.split_prefix(rest, tuple(n[c] - m[c] for c in range(self.k)))
        return mid

    def divide_prefix(self, nu: Word, alpha: Word) -> Optional[Word]:
        """Return nu' with nu = alpha . nu' (as paths), or None."""
        da, dn = self.degree(alpha), self.degree(nu)
        if any(da[c] > dn[c] for c in range(self.k)):
            return None
        try:
            prefix, rest = self.split_prefix(nu, da)
        except ValueError:
            return None
        if self.normal(prefix) != self.normal(alpha):
            return None
        return rest

    def factorize(self, mu: Word, sigma: Sequence[int]) -> Tuple[Word, ...]:
        """Split a degree-(1,..,1) path into single edges ordered by sigma.

        sigma is a permutation of 1..k; factor i has color sigma(i).
        """
        if self.degree(mu) != tuple([1] * self.k):
            raise ValueError("factorize requires a path of degree (1,...,1)")
        if sorted(sigma) != list(range(1, self.k + 1)):
            raise ValueError(f"{sigma} is not a permutation of 1..{self.k}")
        factors: List[Word] = []
        rest = tuple(mu)
        for c in sigma:
            target = tuple(1 if i == c - 1 else 0 for i in range(self.k))
            head, rest = self.split_prefix(rest, target)
            factors.append(head)
        return tuple(factors)

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
        return self.paths_with_degree(
            tuple([1] * self.k), None, "out-of", max_level=max(1, self.k)
        )


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
