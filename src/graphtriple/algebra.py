"""Exact arithmetic in the dense path subalgebra A_c = span{S_mu S_nu*}.

Elements are Gaussian-rational combinations of normal-form generator keys
(mu, nu, v) with r(mu) = r(nu) = v; vertices are paths of length zero, so
p_v is the key ((), (), v).

Products reduce by the Cuntz-Krieger relations: S_mu1 S_nu1* . S_mu2 S_nu2*
is the sum of S_{mu1 xi} S_{nu2 eta}* over the pairs (xi, eta) with
nu1 xi = mu2 eta minimal.  For comparable paths that is one prefix collapse;
for k-graph pairs of incomparable degree it sums over the minimal common
extensions (the prefix rule alone is not associative, which the small-case
tests would catch).  One table per ambient (``kernel(ambient)``) keeps the
kernel from redoing path work, with everything in it an int id:

* words are interned, an empty word once per base vertex, and a compose
  table maps a word id pair to the id of the composite, or -1 when it is
  not a path;
* the meet table maps (nu1, mu2) word ids to the (xi, eta) pairs;
* generator keys are interned, and (mu, nu) word ids map to a key id after
  ``make_key``'s normal-form, path and range checks, run once per pair;
* the product memo, also ``ambient._product_cache``, maps a key id pair to
  the tuple of the product's key ids.

By the factorisation property a word's colour-sorted normal form is
unique, so equal paths share one id.  ``_multiply_keys`` is the generator
key boundary over this table; the verification loops in ``spectral`` work
on the ids and map back to keys only to report.

Stored term maps are only unique up to the relation p_v = sum S_e S_e*, so
equality and zero tests go through a depth-aligned expansion within each
gauge degree class, where the generators are linearly independent.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import GaussianRational, I, ONE

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

    @staticmethod
    def path_isometry(ambient, mu: Sequence[str]) -> "AlgebraElement":
        """S_mu (with S_v = p_v for empty mu ruled out: mu must be nonempty)."""
        return AlgebraElement.generator(ambient, tuple(mu), ())

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
                    c = out.get(key, GaussianRational(0)) + c1 * c2
                    if c.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = c
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
        return self.component(0 if self.ambient.k == 1 else tuple([0] * self.ambient.k))

    # -- canonical comparison ---------------------------------------------------------

    def aligned_terms(self) -> Dict[GenKey, GaussianRational]:
        """Depth-aligned canonical coefficients (zero iff the element is zero)."""
        amb = self.ambient
        targets = alignment_targets(amb, self.terms)
        out: Dict[GenKey, GaussianRational] = {}
        for key, coeff in self.terms.items():
            target = targets[key_degree(amb, key)]
            for newkey in expand_key_to(amb, key, target):
                val = out.get(newkey, GaussianRational(0)) + coeff
                if val.is_zero():
                    out.pop(newkey, None)
                else:
                    out[newkey] = val
        return out

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

    def is_diagonal(self) -> bool:
        return all(mu == nu for (mu, nu, _) in self.terms)

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

    def to_json(self) -> list:
        out = []
        for key in sorted(self.terms):
            mu, nu, v = key
            c = self.terms[key]
            out.append({
                "mu": list(mu),
                "nu": list(nu),
                "vertex": v,
                "re": str(c.re),
                "im": str(c.im),
            })
        return out

    @staticmethod
    def from_json(ambient, data: list) -> "AlgebraElement":
        terms: Dict[GenKey, GaussianRational] = {}
        for rec in data:
            mu, nu = tuple(rec["mu"]), tuple(rec["nu"])
            if not mu and not nu:
                if "vertex" not in rec:
                    raise ValueError("vertex required when mu and nu are empty")
                key = ((), (), rec["vertex"])
                if rec["vertex"] not in ambient.vertices:
                    raise ValueError(f"unknown vertex {rec['vertex']!r}")
            else:
                key = make_key(ambient, mu, nu)
            c = GaussianRational(Fraction(rec["re"]), Fraction(rec["im"]))
            terms[key] = terms.get(key, GaussianRational(0)) + c
        return AlgebraElement(ambient, terms)


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
    dm, dn = ambient.degree(mu), ambient.degree(nu)
    if ambient.k == 1:
        return (dm - dn,)
    return tuple(a - b for a, b in zip(dm, dn))


def key_degree_nu(ambient, key: GenKey) -> tuple:
    d = ambient.degree(key[1])
    return (d,) if ambient.k == 1 else d


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
    """Paths out of w by which to expand: degree-n ones plus sink-truncated."""
    if ambient.k == 1:
        want = n[0]

        def go(u: str, left: int) -> List[Word]:
            if left == 0:
                return [()]
            outs = ambient.out_edges(u)
            if not outs:
                return [()]  # dead end: CK does not apply at sinks
            acc = []
            for eid in outs:
                for rest in go(ambient.edge_range(eid), left - 1):
                    acc.append((eid,) + rest)
            return acc

        return go(w, want)
    if not any(n):
        return [()]
    return ambient.paths_with_degree(n, w, "out-of", max_level=max(n))


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


class ProductKernel:
    """The interned product table of one ambient (see the module docstring).

    Ids are list positions, handed out in order of first sight, so they are
    only meaningful for the ambient that owns the table.
    """

    def __init__(self, ambient):
        self.ambient = ambient
        self.words: List[Word] = []
        self.word_range: List[str] = []
        self.word_ids: Dict[object, int] = {}
        self.composed: Dict[Tuple[int, int], int] = {}
        self.meets: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {}
        self.keys: List[GenKey] = []
        self.key_words: List[Tuple[int, int]] = []
        self.key_ids: Dict[GenKey, int] = {}
        self.pair_key: Dict[Tuple[int, int], int] = {}
        self.products: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    def word_id(self, word: Word, base: str = "") -> int:
        """Id of a word; an empty word is the vertex path at base."""
        wid = self.word_ids.get(word or base)
        if wid is None:
            wid = self.word_ids[word or base] = len(self.words)
            self.words.append(word)
            self.word_range.append(
                self.ambient.path_range(word) if word else base)
        return wid

    def key_id(self, key: GenKey) -> int:
        """Id of a generator key, interned as given."""
        kid = self.key_ids.get(key)
        if kid is None:
            mu, nu, v = key
            kid = self.key_ids[key] = len(self.keys)
            self.keys.append(key)
            pair = (self.word_id(mu, v), self.word_id(nu, v))
            self.key_words.append(pair)
            self.pair_key.setdefault(pair, kid)
        return kid

    def pair_key_id(self, mu: int, nu: int) -> int:
        """Key id of S_mu S_nu* for word ids, through make_key on first sight."""
        kid = self.pair_key.get((mu, nu))
        if kid is None:
            w1, w2 = self.words[mu], self.words[nu]
            if w1 or w2:
                kid = self.key_id(make_key(self.ambient, w1, w2))
            else:
                kid = self.key_id(((), (), self.word_range[mu]))
            self.pair_key[(mu, nu)] = kid
        return kid

    def compose(self, w1: int, w2: int) -> int:
        """Word id of w1 w2, or -1 when it is not a path."""
        wid = self.composed.get((w1, w2))
        if wid is None:
            q = self.words[w2]
            if not q:
                wid = w1
            else:
                w = self.ambient.compose(self.words[w1], q)
                wid = -1 if w is None else self.word_id(w)
            self.composed[(w1, w2)] = wid
        return wid

    def meet(self, nu1: int, mu2: int) -> Tuple[Tuple[int, int], ...]:
        """Word id pairs (xi, eta) with nu1 xi = mu2 eta minimal."""
        hit = self.meets.get((nu1, mu2))
        if hit is None:
            v1, v2 = self.word_range[nu1], self.word_range[mu2]
            hit = self.meets[(nu1, mu2)] = tuple(
                (self.word_id(xi, v1), self.word_id(eta, v2))
                for xi, eta in _meet(self.ambient, self.words[nu1], v1,
                                     self.words[mu2], v2))
        return hit

    def product(self, k1: int, k2: int) -> Tuple[int, ...]:
        """Key ids of the product of two keys, memoized per id pair."""
        hit = self.products.get((k1, k2))
        if hit is None:
            hit = self.products[(k1, k2)] = _multiply_keys_uncached(self, k1, k2)
        return hit


def kernel(ambient) -> ProductKernel:
    """The ambient's product table, created on first use."""
    kern = getattr(ambient, "_kernel", None)
    if kern is None:
        kern = ambient._kernel = ProductKernel(ambient)
        ambient._product_cache = kern.products
    return kern


def _multiply_keys(ambient, k1: GenKey, k2: GenKey) -> List[GenKey]:
    """S_mu1 S_nu1* . S_mu2 S_nu2* as a list of generator keys."""
    kern = kernel(ambient)
    keys = kern.keys
    return [keys[k] for k in kern.product(kern.key_id(k1), kern.key_id(k2))]


def _multiply_keys_uncached(kern: ProductKernel, k1: int, k2: int) -> Tuple[int, ...]:
    """Emit S_{mu1 xi} S_{nu2 eta}* for each (xi, eta) in the meet of nu1, mu2."""
    mu1, nu1 = kern.key_words[k1]
    mu2, nu2 = kern.key_words[k2]
    out = []
    for xi, eta in kern.meet(nu1, mu2):
        mu = kern.compose(mu1, xi)
        nu = kern.compose(nu2, eta)
        if mu >= 0 and nu >= 0:
            out.append(kern.pair_key_id(mu, nu))
    return tuple(out)


def _meet(ambient, nu1: Word, v1: str, mu2: Word, v2: str
          ) -> List[Tuple[Word, Word]]:
    """The pairs (xi, eta) with nu1 xi = mu2 eta minimal.

    v1 = r(nu1) and v2 = r(mu2) name the base vertex of an empty word.
    """
    s_nu1 = ambient.path_source(nu1) if nu1 else v1
    s_mu2 = ambient.path_source(mu2) if mu2 else v2
    x = _prefix_divide(ambient, nu1, s_nu1, mu2, s_mu2)
    if x is not None:  # nu1 = mu2 . x
        return [((), x)]
    x = _prefix_divide(ambient, mu2, s_mu2, nu1, s_nu1)
    if x is not None:  # mu2 = nu1 . x
        return [(x, ())]
    if ambient.k == 1:
        return []
    # minimal common extensions: nu1 xi = mu2 eta with degree join(d nu1, d mu2)
    dn, dm = ambient.degree(nu1), ambient.degree(mu2)
    ext = tuple(max(a, b) - a for a, b in zip(dn, dm))
    out = []
    for xi in ambient.paths_with_degree(ext, v1, "out-of", max_level=max(ext)):
        full = ambient.compose(nu1, xi)
        if full is None:
            continue
        eta = _prefix_divide(ambient, full, s_nu1, mu2, s_mu2)
        if eta is not None:
            out.append((xi, eta))
    return out


# -- module level operation surface ------------------------------------------------


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return a * b


def involution(a: AlgebraElement) -> AlgebraElement:
    return a.involution()


def grade(a: AlgebraElement) -> Dict[object, AlgebraElement]:
    return a.grade()


def expectation(a: AlgebraElement) -> AlgebraElement:
    return a.expectation()


def local_unit(elements: Iterable[AlgebraElement]) -> AlgebraElement:
    """A vertex-projection sum phi with phi a = a phi = a for all inputs."""
    elements = list(elements)
    if not elements:
        raise ValueError("local_unit needs at least one element")
    amb = elements[0].ambient
    verts = set()
    for a in elements:
        _check_same(elements[0], a)
        verts.update(a.support_vertices())
    out = AlgebraElement.zero(amb)
    for v in sorted(verts):
        out = out + AlgebraElement.vertex(amb, v)
    return out


def dirac_commutator(a: AlgebraElement):
    """[D, a]: degree scaling at k = 1, i*gamma^m weighted parts for k >= 2.

    For k >= 2 the result is a dict {m: element_m} representing
    sum_m gamma^m (x) element_m, with the i absorbed into element_m.
    """
    amb = a.ambient
    if amb.k == 1:
        out: Dict[GenKey, GaussianRational] = {}
        for key, c in a.terms.items():
            n = key_degree(amb, key)[0]
            if n:
                out[key] = c * n
        return AlgebraElement(amb, out)
    parts: Dict[int, Dict[GenKey, GaussianRational]] = {}
    for key, c in a.terms.items():
        n = key_degree(amb, key)
        for m in range(amb.k):
            if n[m]:
                parts.setdefault(m + 1, {})[key] = c * n[m] * I
    return {m: AlgebraElement(amb, terms) for m, terms in sorted(parts.items())}


def delta_action(a: AlgebraElement, order: int) -> dict:
    """Summary of delta^order = [|D|, .]^order applied to a.

    On the Phi_m block decomposition a homogeneous degree-n part acts with
    multiplier (|m+n| - |m|)^order, uniformly bounded by |n|^order.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    amb = a.ambient
    per_degree = {}
    worst_sq = Fraction(0)
    for label in sorted(a.grade(), key=lambda d: (str(type(d)), d)):
        n = _as_degree_tuple(amb, label)
        nsq = Fraction(sum(x * x for x in n))
        bound_sq = nsq ** order
        per_degree[label] = bound_sq
        worst_sq = max(worst_sq, bound_sq)
    if amb.k == 1:
        bound = Fraction(
            max((abs(_as_degree_tuple(amb, d)[0]) for d in per_degree), default=0)
        ) ** order
    else:
        bound = float(worst_sq) ** 0.5
    return {
        "bounded": True,
        "order": order,
        "norm_bound": bound,
        "norm_bound_sq": worst_sq,
        "per_degree_bound_sq": per_degree,
    }


def sum_of_vertex_projections(ambient, vertices: Optional[Iterable[str]] = None
                              ) -> AlgebraElement:
    out = AlgebraElement.zero(ambient)
    for v in sorted(vertices if vertices is not None else ambient.vertices):
        out = out + AlgebraElement.vertex(ambient, v)
    return out
