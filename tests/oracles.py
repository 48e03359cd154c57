"""Reference computations that only the tests run.

No subcommand reaches these: `conditions` states the verdicts they
re-derive as theorems or counts them from the presentation.  Each one
recomputes a result the long way (element arithmetic, plain loops, dense
summation) so that the tests can compare the package's closed forms and
fast routes against it, and catch a seeded fault that it would miss.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache, reduce
from operator import matmul
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

import mpmath

from graphtriple import clifford, kgraphs, spectral
from graphtriple.algebra import (AlgebraElement, GenKey, _as_degree_tuple,
                                 _check_same, _multiply_keys, accumulate,
                                 expand_key_to, key_degree, key_source_mu,
                                 make_key)
from graphtriple.clifford import Pauli, word_product
from graphtriple.graphs import (Edge, ExpandedGraph, GraphPresentation,
                                boundary_coefficients_1graph, count_classes)
from graphtriple.hochschild import FactorTuple, HochschildChain
from graphtriple.kgraphs import Degree, KGraphPresentation
from graphtriple.linalg import SparseEchelon
from graphtriple.scalars import ONE, GaussianRational, I
from graphtriple.spectral import (_BINOMIAL_TERMS, _EM_COEFFS, _K0,
                                  _SHORT_RUN, MultiplicityModel, Truncation,
                                  _d_commutator_scalar, generator_keys)
from graphtriple.traces import trace_functional


# -- elements ------------------------------------------------------------------------


def sum_of_vertex_projections(ambient, vertices: Optional[Iterable[str]] = None
                              ) -> AlgebraElement:
    """sum_v p_v over `vertices` (all of the ambient's by default), built
    as one element; ValueError for a vertex the ambient does not have."""
    known = set(ambient.vertices)
    terms: Dict[GenKey, GaussianRational] = {}
    for v in sorted(vertices if vertices is not None else known):
        if v not in known:
            raise ValueError(f"unknown vertex {v!r}")
        accumulate(terms, ((), (), v), ONE)
    return AlgebraElement(ambient, terms)


# -- presentations --------------------------------------------------------------------


def relabel(g: GraphPresentation, vmap: Dict[str, str],
            emap: Dict[str, str]) -> GraphPresentation:
    """g with its vertices renamed by vmap and its edges by emap."""
    return GraphPresentation(
        [vmap[v] for v in g.vertices],
        [
            Edge(emap[e.id], vmap[e.source], vmap[e.range], e.color)
            for e in g.edges.values()
        ],
        [vmap[v] for v in g.tails],
        [vmap[v] for v in g.source_tails],
    )


def segment(g: KGraphPresentation, word: kgraphs.Word, m: Degree,
            n: Degree) -> kgraphs.Word:
    """The unique middle factor word(m, n), in normal form."""
    d = g.degree(word)
    if not all(0 <= m[c] <= n[c] <= d[c] for c in range(g.k)):
        raise ValueError(f"need 0 <= {m} <= {n} <= {d} componentwise")
    _, rest = g.split_prefix(word, m)
    mid, _ = g.split_prefix(rest, tuple(n[c] - m[c] for c in range(g.k)))
    return mid


def normal_by_bubbles(g: KGraphPresentation,
                      word: kgraphs.Word) -> kgraphs.Word:
    """`KGraphPresentation.normal` by bubble sort: the leftmost adjacent
    pair out of colour order moves across its square, until none is."""
    w = tuple(word)
    while True:
        i = next((i for i in range(len(w) - 1)
                  if g.edge_color(w[i]) > g.edge_color(w[i + 1])), None)
        if i is None:
            return w
        w = g._swap_at(w, i)


def factorize(g: KGraphPresentation, mu: kgraphs.Word,
              sigma: Sequence[int]) -> Tuple[kgraphs.Word, ...]:
    """Split a degree-(1,..,1) path into single edges ordered by sigma, a
    permutation of 1..k (factor i has colour sigma(i)), afresh for each
    sigma: the first edge of colour sigma(i) left is carried to the front
    one square at a time, and what follows it is bubble-sorted."""
    if g.degree(mu) != (1,) * g.k:
        raise ValueError("factorize requires a path of degree (1,...,1)")
    if sorted(sigma) != list(range(1, g.k + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{g.k}")
    factors = []
    rest = tuple(mu)
    for c in sigma:
        j = next(i for i, eid in enumerate(rest) if g.edge_color(eid) == c)
        for i in range(j - 1, -1, -1):
            rest = g._swap_at(rest, i)
        factors.append(rest[:1])
        rest = normal_by_bubbles(g, rest[1:])
    return tuple(factors)


def permutation_sign(sigma: Sequence[int]) -> int:
    """(-1)^sigma by counting inversions."""
    inversions = sum(1 for i, j in itertools.combinations(range(len(sigma)), 2)
                     if sigma[i] > sigma[j])
    return -1 if inversions % 2 else 1


def orientation_cycle_oracle(g: KGraphPresentation) -> HochschildChain:
    """`hochschild.orientation_cycle_kgraph` with each mu factorised afresh
    in every colour order, in `itertools.permutations` order, and each term
    signed by its inversion count."""
    terms: Dict[FactorTuple, int] = {}
    for mu in g.unit_degree_paths():
        star = make_key(g, (), mu)
        for sigma in itertools.permutations(range(1, g.k + 1)):
            slots = tuple(make_key(g, piece, ())
                          for piece in factorize(g, mu, sigma))
            accumulate(terms, (star,) + slots, permutation_sign(sigma))
    return HochschildChain(g, g.k + 1, terms)


# -- algebra --------------------------------------------------------------------------


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
    return sum_of_vertex_projections(amb, verts)


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
    multiplier (|m+n| - |m|)^order, uniformly bounded by |n|^order, so
    "bounded" always holds (conditions reports regularity as a theorem).
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


# -- truncations ----------------------------------------------------------------------


def to_basis_coordinates(tr: Truncation, a: AlgebraElement):
    """Expand an element over the maximal basis; returns (coords, leaked)."""
    coords: Dict[int, GaussianRational] = {}
    leaked = False
    for key, c in a.terms.items():
        indices = _basis_indices(tr, key)
        if indices is None:
            leaked = True
            continue
        for i in indices:
            accumulate(coords, i, c)
    return coords, leaked


def _basis_indices(tr: Truncation, key: GenKey) -> Optional[List[int]]:
    """Basis indices of one generator's expansion; None when a path of the
    generator is longer than the level in some colour (it leaks).  The
    expansion aligns nu at degree level - max(d, 0) in each colour of the
    key's gauge degree d."""
    amb = tr.ambient
    mu, nu, _ = key
    if any(x > tr.level for x in amb.degree(mu) + amb.degree(nu)):
        return None
    index = tr.index
    target = tuple(tr.level - max(d, 0) for d in key_degree(amb, key))
    return [index[newkey] for newkey in expand_key_to(amb, key, target)]


def first_order_left_counterexample(tr: Truncation) -> Optional[dict]:
    """Witness that replacing b^op by the left action breaks first order."""
    amb = tr.ambient
    gens = generator_keys(amb, 1)
    for ka in gens:
        a = AlgebraElement(amb, {ka: GaussianRational(1)})
        da = _d_commutator_scalar(a)
        if not da.terms:
            continue
        for kb in gens:
            b = AlgebraElement(amb, {kb: GaussianRational(1)})
            for kz in tr.basis:
                z = AlgebraElement(amb, {kz: GaussianRational(1)})
                bad = da * (b * z) - b * (da * z)
                if not bad.is_zero():
                    return {"a": ka, "b": kb, "z": kz}
    return None


def _differ(amb, left, right) -> bool:
    """Whether the sums of the keys in left and in right differ as elements
    of the algebra (each key with coefficient 1)."""
    if left == right or sorted(left) == sorted(right):
        return False
    diff = {}
    for key in left:
        diff[key] = diff.get(key, GaussianRational(0)) + 1
    for key in right:
        diff[key] = diff.get(key, GaussianRational(0)) - 1
    return not AlgebraElement(amb, diff).is_zero()


def first_order_oracle(tr, generators):
    """The plain (b, z, a) triple loop that `first_order_check` replaced,
    with a and b over `generators` (a list of keys): a(zb) and (az)b formed
    for every triple, with no product index.  `ck_generators` gives the
    generators the check uses, and `generator_keys(amb, 1)` the degree-box
    keys S_mu S_nu* with d(mu), d(nu) in {0,1}^k that it used to range
    over.  Products go through the generator key boundary _multiply_keys,
    which reads the ambient's product memo, so a product seeded there
    reaches the oracle and the checked function alike."""
    amb = tr.ambient
    weights = {}
    for ka in generators:
        deg_a = key_degree(amb, ka)
        weights[ka] = deg_a[0] if amb.k == 1 else sum(deg_a)
    failures = []
    for kb in generators:
        for kz in tr.basis:
            zb = _multiply_keys(amb, kz, kb)
            for ka in generators:
                az = _multiply_keys(amb, ka, kz)
                left = [k2 for k1 in zb
                        for k2 in _multiply_keys(amb, ka, k1)]
                right = [k2 for k1 in az
                         for k2 in _multiply_keys(amb, k1, kb)]
                if not _differ(amb, left, right):
                    continue
                failures.append({"kind": "[a,b_op]", "a": ka, "b": kb, "z": kz})
                if weights[ka]:
                    failures.append(
                        {"kind": "[[D,a],b_op]", "a": ka, "b": kb, "z": kz}
                    )
    return {"pass": not failures, "failures": failures,
            "generators": len(generators)}


def reality_oracle(tr, generators):
    """The plain (z, a) loop for J a* J = a^op on a 1-graph truncation:
    (a* z*)* against z a, with a over `generators`, through the same
    product memo as `reality_check_1graph`."""
    amb = tr.ambient
    failures = []
    for kz in tr.basis:
        for ka in generators:
            left = [spectral._swap(k) for k in _multiply_keys(
                amb, spectral._swap(ka), spectral._swap(kz))]
            right = _multiply_keys(amb, kz, ka)
            if _differ(amb, left, right):
                failures.append({"kind": "Ja*J=a_op", "a": ka, "z": kz})
    return {"pass": not failures, "failures": failures}


def commutant_oracle(tr):
    """The plain loop that `commutant_probe` replaced: f g - g f formed as
    elements for every diagonal candidate f and every edge generator g =
    S_e, S_e*, with no bucketing, and the solutions counted in the basis
    frame."""
    amb = tr.ambient
    diag = sorted({((), (), v) for v in amb.vertices}
                  | {key for key in generator_keys(amb, max(tr.level - 1, 1))
                     if key[0] == key[1]})
    ech = SparseEchelon()
    for eid in amb.edge_order:
        s_e = AlgebraElement.generator(amb, (eid,), ())
        for g in (s_e, s_e.involution()):
            rows = {}
            for col, kf in enumerate(diag):
                f = AlgebraElement(amb, {kf: GaussianRational(1)})
                for ckey, c in (f * g - g * f).aligned_terms().items():
                    rows.setdefault(ckey, {})[col] = c.re
            for row in rows.values():
                ech.insert(row)
    solutions = SparseEchelon()
    for vec in ech.nullspace(len(diag)):
        f = AlgebraElement(amb, {diag[c]: GaussianRational(v)
                                 for c, v in vec.items()})
        coords, _ = to_basis_coordinates(tr, f)
        row = {i: c.re for i, c in coords.items() if c.re}
        if row:
            solutions.insert(row)
    return {"dimension_interior": solutions.rank()}


def commutant_count_every_push(ambient, level: int) -> int:
    """`conditions.commutant_dimension` with every one of the
    max(level - 1, 1) pushes a colour made, also after the receiver set
    stops changing."""
    receivers = set(ambient.vertices)
    for colour in range(1, ambient.k + 1):
        for _ in range(max(level - 1, 1)):
            receivers = {ambient.edge_range(e) for v in receivers
                         for e in ambient.out_edges(v)
                         if ambient.edge_color(e) == colour}
    missed = sum(not ambient.out_edges(v) for v in ambient.vertices
                 if v not in receivers)
    return missed + count_classes(receivers, (
        (v, ambient.edge_range(e)) for v in receivers
        for e in ambient.out_edges(v)))


# -- Theta decompositions and the semifinite trace ------------------------------------


class DecompositionError(AssertionError):
    """A Theta-decomposition failed its pointwise validation."""


class ThetaSum(NamedTuple):
    """sum_i c_i Theta_{x_i, y_i} acting by z -> x_i Phi(y_i* z)."""

    parts: List[Tuple[GaussianRational, AlgebraElement, AlgebraElement]]

    def apply(self, z: AlgebraElement) -> AlgebraElement:
        out = AlgebraElement.zero(z.ambient)
        for c, x, y in self.parts:
            inner = (y.involution() * z).expectation()
            out = out + (x * inner).scale(c)
        return out

    def tau_tilde(self, trace) -> GaussianRational:
        """tau~(Theta_{x,y}) = tau((y|x)_R) = tau(Phi(y* x)), extended linearly."""
        total = GaussianRational(0)
        for c, x, y in self.parts:
            total = total + c * trace_functional(
                trace, (y.involution() * x).expectation()
            )
        return total

    def compose(self, other: "ThetaSum") -> "ThetaSum":
        """Theta_{x,y} Theta_{w,z} = Theta_{x Phi(y* w), z}."""
        parts = []
        for c1, x, y in self.parts:
            for c2, w, z in other.parts:
                mid = (y.involution() * w).expectation()
                parts.append((c1 * c2, x * mid, z))
        return ThetaSum(parts)


def semifinite_trace(theta: ThetaSum, trace) -> GaussianRational:
    return theta.tau_tilde(trace)


def decompose_projection(v: str, degree: int | Tuple[int, ...],
                         tr: Truncation) -> ThetaSum:
    """Rank-one decomposition of p_v Phi_degree on the truncated module.

    degree is an int (1-graphs) or a tuple with one entry per colour, each
    at most the level in absolute value.  Split it as pos - neg with pos,
    neg >= 0: the sum is of Theta_{x,x} with x = S_alpha S_beta*, over the
    paths alpha of degree pos out of v, with beta the first path of degree
    neg into r(alpha) (alpha skipped when there is none).  Degree zero is
    Theta_{p_v, p_v}.  Validated pointwise on every basis vector.
    """
    amb = tr.ambient
    degree = _as_degree_tuple(amb, degree)
    if any(abs(d) > tr.level for d in degree):
        raise ValueError("|degree| exceeds the truncation level")
    pos = tuple(max(d, 0) for d in degree)
    neg = tuple(max(-d, 0) for d in degree)
    parts = []
    one = GaussianRational(1)
    if not any(degree):
        x = AlgebraElement.vertex(amb, v)
        parts.append((one, x, x))
    else:
        for alpha in amb.paths_with_degree(pos, v, "out-of"):
            anchor = amb.path_range(alpha) if alpha else v
            betas = amb.paths_with_degree(neg, anchor, "into")
            if betas:
                x = AlgebraElement.generator(amb, alpha, betas[0])
                parts.append((one, x, x))
    theta = ThetaSum(parts)
    _validate_projection_decomposition(theta, v, degree, tr)
    return theta


def _validate_projection_decomposition(theta: ThetaSum, v: str, degree: tuple,
                                       tr: Truncation) -> None:
    amb = tr.ambient
    for key in tr.basis:
        z = AlgebraElement(amb, {key: GaussianRational(1)})
        in_block = (
            key_degree(amb, key) == degree and key_source_mu(amb, key) == v
        )
        target = z if in_block else AlgebraElement.zero(amb)
        if not (theta.apply(z) - target).is_zero():
            raise DecompositionError(
                f"Theta sum for p_{v} Phi_{degree} fails on basis vector {key}"
            )


# -- profiles -------------------------------------------------------------------------


def _edge_terms_one_end(p: float, x: int) -> float:
    """The Euler-Maclaurin terms of sum_k k^-p at the end x: -x^-p / 2 -
    sum_m B_2m / (2m)! (p)_(2m-1) x^(1-p-2m), B_2m / (2m)! in _EM_COEFFS."""
    out, rising, power = -x ** -p / 2, p, x ** (-p - 1)
    for m, coeff in enumerate(_EM_COEFFS, 1):
        out -= coeff * rising * power
        rising *= (p + 2 * m - 1) * (p + 2 * m)
        power /= x * x
    return out


def level_sum_oracle(s: float, a: int, b: int) -> float:
    """sum_{a <= k < b} (1 + k^2)^-s as `spectral._level_sums` gives it
    for one end, with every lower-end term and weight recomputed: term by
    term for up to _SHORT_RUN terms and below _K0, and from m = max(a, _K0)
    on by 8 binomial terms, each power summed by Euler-Maclaurin."""
    if b - a <= _SHORT_RUN:
        return sum((1 + k * k) ** -s for k in range(a, b))
    m = max(a, _K0)
    total = sum((1 + k * k) ** -s for k in range(a, m))
    log_ratio, c, p = math.log1p((b - m) / m), 1.0, 2 * s
    for j in range(_BINOMIAL_TERMS):
        q = 1 - p
        integral = (log_ratio if q == 0
                    else m ** q * math.expm1(q * log_ratio) / q)
        total += c * (integral + _edge_terms_one_end(p, b)
                      - _edge_terms_one_end(p, m))
        c *= (-s - j) / (j + 1)
        p += 2
    return total


# levels below this are summed term by term at 40 digits
_MP_DIRECT = 1000


@lru_cache(maxsize=None)
def _mp_prefix(s: float, n: int) -> mpmath.mpf:
    """sum_{k<n} (1 + k^2)^-s at 40 digits: term by term below
    _MP_DIRECT, and from there as sum_j C(-s, j) k^(-2s-2j), j < 9, each
    power summed by Hurwitz zeta differences (digamma at s = 1/2)."""
    with mpmath.workdps(40):
        s_mp = mpmath.mpf(s)
        if n <= _MP_DIRECT:
            return mpmath.fsum((1 + mpmath.mpf(k) ** 2) ** -s_mp
                               for k in range(n))
        total, c = _mp_prefix(s, _MP_DIRECT), mpmath.mpf(1)
        for j in range(9):
            p = 2 * s_mp + 2 * j
            if p == 1:
                total += c * (mpmath.digamma(n) - mpmath.digamma(_MP_DIRECT))
            else:
                total += c * (mpmath.zeta(p, _MP_DIRECT) - mpmath.zeta(p, n))
            c *= (-s_mp - j) / (j + 1)
        return total


def mpmath_level_sum(s: float, a: int, b: int) -> mpmath.mpf:
    """sum_{a <= k < b} (1 + k^2)^-s at 40 digits."""
    with mpmath.workdps(40):
        return _mp_prefix(s, b) - _mp_prefix(s, a)


def mpmath_profile_oracle(model: MultiplicityModel, window: int,
                          levels: Sequence[int]):
    """F at each of the levels and the zeta residue of `singular_profile`,
    at 40 digits.  The level mass, mass(j) + mass(-j) at j >= 1, is read
    off the model as exact runs; t is its exact prefix."""
    head = len(model.forward_head)
    depth = model.backward_depth
    cuts = {0, 1, window + 1, *range(min(head, window + 1))}
    if depth is not None:
        cuts.add(depth + 1)
    cuts = sorted(c for c in cuts if c <= window + 1)
    runs = [(a, b, model.mass(a) + (model.mass(-a) if a else 0))
            for a, b in zip(cuts, cuts[1:])]

    def mp(x: Fraction) -> mpmath.mpf:
        return mpmath.mpf(x.numerator) / x.denominator

    def weighted(s: float, n: int) -> mpmath.mpf:
        return mpmath.fsum(mp(v) * mpmath_level_sum(s, a, min(b, n))
                           for a, b, v in runs if a < n)

    with mpmath.workdps(40):
        f_vals = []
        for n in levels:
            t = sum((v * (min(b, n + 1) - a) for a, b, v in runs if a <= n),
                    Fraction(0))
            f_vals.append(weighted(0.5, n + 1) / mpmath.log1p(mp(t)))
        s = 0.5 + 1.0 / math.log(window)
        zeta = weighted(s, window + 1) * (mpmath.mpf(s) - mpmath.mpf(0.5))
    return f_vals, zeta


def direct_summation_oracle(model: MultiplicityModel, window: int) -> float:
    """Independent F_T value at the full window by plain summation."""
    total = 0.0
    mass = 0.0
    for k in range(0, window + 1):
        fwd = float(model.mass(k))
        bwd = float(model.mass(-k)) if k > 0 else 0.0
        lam = 1.0 / math.sqrt(1.0 + k * k)
        total += lam * (fwd + bwd)
        mass += fwd + bwd
    return total / math.log1p(mass)


def lattice_profile_oracle(g: KGraphPresentation, trace, window: int):
    """The arrays the numpy body of `kgraph_lattice_profile` built: the
    spectrum (1 + |n|^2)^(-k/2) over the box [-window, window]^k, largest
    first, its cumulative mass (the trace mass per point) and its cumulative
    integral, each summed point by point."""
    import numpy as np
    k = g.k
    total_mass = float(sum(trace.values[v] for v in g.vertices))
    grids = np.meshgrid(*[np.arange(-window, window + 1)] * k, indexing="ij")
    norm_sq = sum(gx * gx for gx in grids).astype(np.float64).ravel()
    lam = -np.sort(-(1.0 + norm_sq) ** (-k / 2.0))
    return (lam, np.cumsum(np.full(lam.shape, total_mass)),
            np.cumsum(lam * total_mass))


# -- Clifford -------------------------------------------------------------------------


def degree_reversal_check(k: int, degree_vectors: Sequence[Tuple[int, ...]]) -> bool:
    """Exact check of J D Phi_n J* = (-1)^{floor((k+1)/2)(k+2)} D Phi_{-n}.

    For k >= 2, D_n = sum_m n_m i gamma^m is linear in n with real
    coefficients and J is antilinear, so the identity holds for every n in
    Z^k (the given vectors included) exactly when it holds for each i gamma^m:
    it is checked once per generator.  `clifford.reality_operator` is read
    at call time, so a test can substitute a mutated chi.
    """
    if k == 1:
        # J D J acts on the degree -n block with eigenvalue n (conjugation
        # flips the degree); the rule says this equals reversal * (-n)
        reversal = (-1) ** (((k + 1) // 2) * (k + 2))
        return all(n[0] == reversal * (-n[0]) for n in degree_vectors)
    data = clifford.reality_operator(k)
    flip = clifford._sign_phase(-data.degree_reversal_sign)
    return all(
        clifford._conjugate_by(data.chi, g.times_i(1)) == g.times_i(1 + flip)
        for g in clifford.generators(k)
    )


def word_to_matrix(word: clifford.Word, gens: Sequence[Pauli]) -> Pauli:
    return reduce(matmul, (gens[j - 1] for j in word),
                  Pauli.identity(gens[0].qubits))


# -- Hochschild -----------------------------------------------------------------------


def pi_D(chain: HochschildChain):
    """Replace tensor slots j >= 1 by Dirac commutators and multiply.

    k = 1: [D, S_mu S_nu*] = (|mu|-|nu|) S_mu S_nu*, result an AlgebraElement.
    k >= 2: slots contribute gamma^{color} weights as in the orientation
    computation; the result is {gamma word: AlgebraElement} with the
    self-adjoint commutator convention differing by the reported phase i^p.
    """
    amb = chain.ambient
    if amb.k == 1:
        out = AlgebraElement.zero(amb)
        for fac, c in chain.terms.items():
            acc = AlgebraElement(amb, {fac[0]: GaussianRational.coerce(c)})
            for key in fac[1:]:
                n = key_degree(amb, key)[0]
                acc = acc * AlgebraElement(amb, {key: GaussianRational(n)})
            out = out + acc
        return out
    words: Dict[Tuple[int, ...], AlgebraElement] = {}
    for fac, c in chain.terms.items():
        partial: List[Tuple[Tuple[int, ...], AlgebraElement]] = [
            ((), AlgebraElement(amb, {fac[0]: GaussianRational.coerce(c)}))
        ]
        for key in fac[1:]:
            n = key_degree(amb, key)
            nxt: List[Tuple[Tuple[int, ...], AlgebraElement]] = []
            for word, elt in partial:
                for m in range(amb.k):
                    if not n[m]:
                        continue
                    sign, word2 = word_product(word, (m + 1,))
                    factor = AlgebraElement(
                        amb, {key: GaussianRational(n[m]) * GaussianRational(Fraction(sign))}
                    )
                    nxt.append((word2, elt * factor))
            partial = nxt
        for word, elt in partial:
            if word in words:
                words[word] = words[word] + elt
            else:
                words[word] = elt
    words = {w: e for w, e in words.items() if not e.is_zero()}
    return {
        "words": words,
        "selfadjoint_phase": GaussianRational.i_power(chain.arity - 1),
    }


def pi_D_identity_oracle(chain: HochschildChain,
                         vertices: Optional[Iterable[str]] = None) -> bool:
    """pi_D(chain) = (omega_C (x)) identity on the given vertices, by element
    products: at k = 1 the plain sum of their projections, for k >= 2 that
    sum times k! gamma^1...gamma^k, since the chain of
    `orientation_cycle_kgraph` is k! i^-ceil((k+1)/2) c_k."""
    amb = chain.ambient
    target = sum_of_vertex_projections(amb, vertices)
    rep = pi_D(chain)
    if amb.k == 1:
        return _restrict_to_sources(rep, target.support_vertices()).equals(
            target)
    full = tuple(range(1, amb.k + 1))
    words = rep["words"]
    return set(words) == {full} and words[full].equals(
        target.scale(math.factorial(amb.k)))


def _restrict_to_sources(a: AlgebraElement, vertices: Iterable[str]) -> AlgebraElement:
    vs = set(vertices)
    return AlgebraElement(
        a.ambient,
        {k: c for k, c in a.terms.items()
         if key_source_mu(a.ambient, k) in vs},
    )


def orientation_cycle_1graph(ambient: ExpandedGraph) -> HochschildChain:
    """c = sum over edges of S_e* (x) S_e (tails contribute their expansion)."""
    terms: Dict[FactorTuple, GaussianRational] = {}
    for eid in ambient.edge_order:
        star = make_key(ambient, (), (eid,))
        forward = make_key(ambient, (eid,), ())
        terms[(star, forward)] = ONE
    return HochschildChain(ambient, 2, terms)


def truncation_ends(g: GraphPresentation, depth: int):
    """The outermost vertices of g.expand(depth): the tail ends v~t{depth}
    and the source-tail ends v~s{depth} (the marked vertices themselves at
    depth 0)."""
    def end(v, mark):
        return f"{v}~{mark}{depth}" if depth else v
    return ({end(v, "t") for v in g.tails},
            {end(v, "s") for v in g.source_tails})


def orientation_1graph_oracle(g: GraphPresentation, depth: int = 1) -> dict:
    """`hochschild.check_orientation_1graph` by element arithmetic on g with
    its tails expanded `depth` steps: b(c) summed through the key product
    and tested against the boundary residue for zero, and pi_D(c) by
    element products on the interior (the vertices that are entered and
    are not tail ends)."""
    amb = g.expand(depth)
    cycle = orientation_cycle_1graph(amb)
    coeffs = boundary_coefficients_1graph(g)
    closed_form_zero = all(v == 0 for v in coeffs.values())

    tail_ends, source_ends = truncation_ends(g, depth)
    residue = (sum_of_vertex_projections(amb, tail_ends)
               - sum_of_vertex_projections(amb, source_ends))
    bc = cycle.boundary()
    bc_elt = AlgebraElement(
        amb, {fac[0]: c for fac, c in bc.terms.items()}
    )
    interior_zero = (bc_elt - residue).is_zero()

    interior = [v for v in amb.vertices
                if amb.in_edges(v) and v not in tail_ends]
    pid = pi_D_identity_oracle(cycle, interior)
    return {
        "boundary_coefficients": coeffs,
        "closed_form_zero": closed_form_zero,
        "truncated_boundary_is_boundary_residue": interior_zero,
        "pi_D_identity_on_interior": pid,
        "orientable": closed_form_zero and interior_zero and pid,
    }
