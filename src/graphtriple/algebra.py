"""Exact arithmetic in the dense path subalgebra A_c = span{S_mu S_nu*}.

Elements are Gaussian-rational combinations of normal-form generator keys
(mu, nu, v) with r(mu) = r(nu) = v; vertices are paths of length zero, so
p_v is the key ((), (), v).

The ambient is a k-graph, and an expanded 1-graph (``ExpandedGraph``) is
the case k = 1 (factorisation property, Kumjian-Pask 2000).  Both give one
protocol: the rank ``k``, a tuple ``degree`` of a word, the sorted
``paths_with_degree(n, v, direction)``, ``edge_color``, the
colour-sorted ``normal`` form, ``compose`` and ``divide_prefix``.  k = 1
is told apart only where a public result shows it: the int ``grade()``
labels.

Products reduce by the Cuntz-Krieger relations: S_mu1 S_nu1* . S_mu2 S_nu2*
is the sum of S_{mu1 xi} S_{nu2 eta}* over the pairs (xi, eta) with
nu1 xi = mu2 eta minimal.  For comparable paths that is one prefix collapse;
for k-graph pairs of incomparable degree it sums over the minimal common
extensions (the prefix rule alone is not associative, which the small-case
tests would catch).  ``_multiply_keys`` is the one product on generator
keys: it memoizes each product per key pair in ``ambient._product_cache``,
as a tuple so that no caller can change the memo through a result.
``make_key`` puts both words in colour-sorted normal form, unique by the
factorisation property, so equal paths give one key.  ``conditions``
forms no product; ``graphtriple hochschild`` and the tests' oracle loops
repeat products, so the memo stays.

Stored term maps are only unique up to the relation p_v = sum S_e S_e*, so
equality and zero tests go through a depth-aligned expansion within each
gauge degree class, where the generators are linearly independent.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import GaussianRational, ONE

Word = Tuple[str, ...]
GenKey = Tuple[Word, Word, str]


class PresentationMismatchError(ValueError):
    """Raised when combining elements over different presentations."""


def _check_same(a: "AlgebraElement", b: "AlgebraElement") -> None:
    if a.ambient is b.ambient:
        return
    if a.ambient.fingerprint() != b.ambient.fingerprint():
        raise PresentationMismatchError("elements live over different presentations")


class AlgebraElement:
    """Finite Gaussian-rational combination of spanning generators."""

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient, terms: Optional[Dict[GenKey, GaussianRational]] = None):
        self.ambient = ambient
        self.terms: Dict[GenKey, GaussianRational] = {}
        if terms:
            for key, coeff in terms.items():
                if not coeff.is_zero():
                    self.terms[key] = coeff

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ambient) -> "AlgebraElement":
        return AlgebraElement(ambient)

    @staticmethod
    def vertex(ambient, v: str) -> "AlgebraElement":
        if v not in ambient.vertices:
            raise ValueError(f"unknown vertex {v!r}")
        return AlgebraElement(ambient, {((), (), v): ONE})

    @staticmethod
    def generator(ambient, mu: Sequence[str], nu: Sequence[str],
                  coeff: GaussianRational = ONE) -> "AlgebraElement":
        key = make_key(ambient, tuple(mu), tuple(nu))
        return AlgebraElement(ambient, {key: GaussianRational.coerce(coeff)})

    # -- linear structure ------------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same(self, other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, GaussianRational(0)) + c
        return AlgebraElement(self.ambient, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(GaussianRational(-1))

    def __neg__(self) -> "AlgebraElement":
        return self.scale(GaussianRational(-1))

    def scale(self, c) -> "AlgebraElement":
        c = GaussianRational.coerce(c)
        return AlgebraElement(
            self.ambient, {k: v * c for k, v in self.terms.items()}
        )

    # -- ring structure ----------------------------------------------------------

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same(self, other)
        amb = self.ambient
        out: Dict[GenKey, GaussianRational] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                for key in _multiply_keys(amb, k1, k2):
                    accumulate(out, key, c1 * c2)
        return AlgebraElement(amb, out)

    def involution(self) -> "AlgebraElement":
        out = {}
        for (mu, nu, v), c in self.terms.items():
            out[(nu, mu, v)] = c.conjugate()
        return AlgebraElement(self.ambient, out)

    # -- gauge grading -------------------------------------------------------------

    def grade(self) -> Dict[object, "AlgebraElement"]:
        """Split into Phi_m components keyed by degree (int for k = 1)."""
        buckets: Dict[tuple, Dict[GenKey, GaussianRational]] = {}
        for key, c in self.terms.items():
            d = key_degree(self.ambient, key)
            buckets.setdefault(d, {})[key] = c
        out = {}
        for d, terms in buckets.items():
            label = d[0] if self.ambient.k == 1 else d
            out[label] = AlgebraElement(self.ambient, terms)
        return out

    def component(self, degree) -> "AlgebraElement":
        """Phi_degree applied to this element."""
        want = _as_degree_tuple(self.ambient, degree)
        terms = {
            key: c
            for key, c in self.terms.items()
            if key_degree(self.ambient, key) == want
        }
        return AlgebraElement(self.ambient, terms)

    def expectation(self) -> "AlgebraElement":
        """Average over the gauge action: the degree-zero component."""
        return self.component((0,) * self.ambient.k)

    # -- canonical comparison ---------------------------------------------------------

    def aligned_terms(self) -> Dict[GenKey, GaussianRational]:
        """Depth-aligned canonical coefficients (zero iff the element is zero)."""
        return aligned(self.ambient, self.terms)

    def is_zero(self) -> bool:
        if not self.terms:
            return True
        return not self.aligned_terms()

    def equals(self, other: "AlgebraElement") -> bool:
        _check_same(self, other)
        return (self - other).is_zero()

    # -- misc -------------------------------------------------------------------------

    def support_vertices(self) -> List[str]:
        verts = set()
        for (mu, nu, v) in self.terms:
            verts.add(key_source_mu(self.ambient, (mu, nu, v)))
            verts.add(key_source_nu(self.ambient, (mu, nu, v)))
        return sorted(verts)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            mu, nu, v = key
            name = f"S[{','.join(mu)}]" if mu else f"p[{v}]"
            if nu:
                name += f"S[{','.join(nu)}]*"
            bits.append(f"({self.terms[key]})*{name}")
        return " + ".join(bits)


# -- key helpers ---------------------------------------------------------------------


def make_key(ambient, mu: Word, nu: Word) -> GenKey:
    mu, nu = ambient.normal(mu), ambient.normal(nu)
    if mu and not ambient.is_path(mu):
        raise ValueError(f"{mu} is not a path")
    if nu and not ambient.is_path(nu):
        raise ValueError(f"{nu} is not a path")
    if mu:
        v = ambient.path_range(mu)
        if nu and ambient.path_range(nu) != v:
            raise ValueError(f"range mismatch: r({mu}) != r({nu})")
    elif nu:
        v = ambient.path_range(nu)
    else:
        raise ValueError("make_key needs a nonempty path or use AlgebraElement.vertex")
    return (mu, nu, v)


def key_degree(ambient, key: GenKey) -> tuple:
    mu, nu, _ = key
    return tuple(map(operator.sub, ambient.degree(mu), ambient.degree(nu)))


def key_degree_nu(ambient, key: GenKey) -> tuple:
    return ambient.degree(key[1])


def key_source_mu(ambient, key: GenKey) -> str:
    mu, _, v = key
    return ambient.path_source(mu) if mu else v


def key_source_nu(ambient, key: GenKey) -> str:
    _, nu, v = key
    return ambient.path_source(nu) if nu else v


def _as_degree_tuple(ambient, degree) -> tuple:
    if isinstance(degree, int):
        if ambient.k != 1 and degree == 0:
            return tuple([0] * ambient.k)
        return (degree,)
    return tuple(degree)


def alignment_targets(ambient, terms: Iterable[GenKey]) -> Dict[tuple, tuple]:
    """Per degree class, the componentwise max of d(nu) over the given keys."""
    targets: Dict[tuple, tuple] = {}
    for key in terms:
        d = key_degree(ambient, key)
        dn = key_degree_nu(ambient, key)
        if d in targets:
            targets[d] = tuple(max(a, b) for a, b in zip(targets[d], dn))
        else:
            targets[d] = dn
    return targets


def accumulate(terms: dict, key, c) -> None:
    """Add c to terms[key], dropping the key when the sum is zero."""
    if key in terms:
        c = terms[key] + c
    if c:
        terms[key] = c
    else:
        terms.pop(key, None)


def aligned(ambient, terms: dict) -> dict:
    """Depth-aligned canonical form of a term map with Gaussian-rational or
    int coefficients: each key CK-expanded to the alignment target of its
    degree class, the expansions summed and zero sums dropped.  Empty iff
    the combination is zero."""
    targets = alignment_targets(ambient, terms)
    out: dict = {}
    for key, c in terms.items():
        for newkey in expand_key_to(ambient, key, targets[key_degree(ambient, key)]):
            accumulate(out, newkey, c)
    return out


def expand_key_to(ambient, key: GenKey, target_nu_degree: tuple) -> List[GenKey]:
    """CK-expand one generator so d(nu) reaches the target (sink-truncated)."""
    mu, nu, v = key
    dn = key_degree_nu(ambient, key)
    extend = tuple(t - d for t, d in zip(target_nu_degree, dn))
    out = []
    for lam in _expansion_family(ambient, v, extend):
        mu2 = ambient.compose(mu, lam)
        nu2 = ambient.compose(nu, lam)
        if mu2 or nu2:
            out.append(make_key(ambient, mu2, nu2))
        else:
            out.append(((), (), v))
    return out


def _expansion_family(ambient, w: str, n: tuple) -> List[Word]:
    """Paths out of w by which to expand: degree-n ones, colours in order,
    cut short at a sink, in lexicographic order.  A sink occurs only in a
    1-graph: every vertex of a k-graph emits an edge of each colour."""

    def go(u: str, left: tuple) -> List[Word]:
        c = next((i for i, x in enumerate(left) if x), None)
        if c is None:
            return [()]
        outs = ambient.out_edges(u)
        if not outs:
            return [()]  # dead end: CK does not apply at sinks
        rem = left[:c] + (left[c] - 1,) + left[c + 1:]
        acc = []
        for eid in outs:
            if ambient.edge_color(eid) == c + 1:
                for rest in go(ambient.edge_range(eid), rem):
                    acc.append((eid,) + rest)
        return acc

    return go(w, tuple(n))


def _prefix_divide(ambient, long: Word, long_v: str, short: Word,
                   short_v: str) -> Optional[Word]:
    """Return x with long = short . x as paths, or None.

    long_v / short_v are the base vertices used when a word is empty.
    """
    if not short:
        anchor = ambient.path_source(long) if long else long_v
        return long if anchor == short_v else None
    if not long:
        return None
    return ambient.divide_prefix(long, short)


def _multiply_keys(ambient, k1: GenKey, k2: GenKey) -> Tuple[GenKey, ...]:
    """S_mu1 S_nu1* . S_mu2 S_nu2* as a tuple of generator keys, memoized
    per key pair in ``ambient._product_cache``."""
    memo = getattr(ambient, "_product_cache", None)
    if memo is None:
        memo = ambient._product_cache = {}
    hit = memo.get((k1, k2))
    if hit is None:
        hit = memo[(k1, k2)] = _multiply_keys_uncached(ambient, k1, k2)
    return hit


def _multiply_keys_uncached(ambient, k1: GenKey, k2: GenKey
                            ) -> Tuple[GenKey, ...]:
    """Emit S_{mu1 xi} S_{nu2 eta}* for each (xi, eta) in the meet of nu1, mu2."""
    mu1, nu1, v1 = k1
    mu2, nu2, v2 = k2
    out = []
    for xi, eta in _meet(ambient, nu1, v1, mu2, v2):
        mu = ambient.compose(mu1, xi) if xi else mu1
        nu = ambient.compose(nu2, eta) if eta else nu2
        if mu is not None and nu is not None:
            out.append(make_key(ambient, mu, nu) if mu or nu else ((), (), v1))
    return tuple(out)


def _meet(ambient, nu1: Word, v1: str, mu2: Word, v2: str
          ) -> List[Tuple[Word, Word]]:
    """The pairs (xi, eta) with nu1 xi = mu2 eta minimal.

    v1 = r(nu1) and v2 = r(mu2) name the base vertex of an empty word.
    When d(nu1) and d(mu2) are comparable, a minimal common extension has
    degree max(d(nu1), d(mu2)), so one word is a prefix of the other, which
    the two prefix tests decide; otherwise the meet sums over the paths xi
    of degree join(d nu1, d mu2) - d(nu1).
    """
    s_nu1 = ambient.path_source(nu1) if nu1 else v1
    s_mu2 = ambient.path_source(mu2) if mu2 else v2
    x = _prefix_divide(ambient, nu1, s_nu1, mu2, s_mu2)
    if x is not None:  # nu1 = mu2 . x
        return [((), x)]
    x = _prefix_divide(ambient, mu2, s_mu2, nu1, s_nu1)
    if x is not None:  # mu2 = nu1 . x
        return [(x, ())]
    dn, dm = ambient.degree(nu1), ambient.degree(mu2)
    if all(map(operator.le, dn, dm)) or all(map(operator.ge, dn, dm)):
        return []
    ext = tuple(max(a, b) - a for a, b in zip(dn, dm))
    out = []
    for xi in ambient.paths_with_degree(ext, v1, "out-of"):
        full = ambient.compose(nu1, xi)
        if full is None:
            continue
        eta = _prefix_divide(ambient, full, s_nu1, mu2, s_mu2)
        if eta is not None:
            out.append((xi, eta))
    return out
