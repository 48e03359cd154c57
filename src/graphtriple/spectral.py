"""Truncated model of the gauge spectral triple.

The Hilbert space is modeled by the depth-aligned maximal generators: pairs
S_mu S_nu* with matching range whose lengths reach the truncation level in
every color (or die at a sink).  These are pairwise orthogonal under
<x,y> = tau(x*y) with norms tau(p_{r(mu)}); shorter generators expand into
them through the Cuntz-Krieger relations.  D scales a basis vector by its
gauge degree (tensored with i sum gamma^m n_m for k-graphs).

The semifinite trace is evaluated exclusively through Theta-decompositions
validated pointwise on the basis: tau~(Theta_{x,y}) = tau((y|x)_R), never as
a Hilbert-space matrix trace.  Dixmier functionals are modeled by F_T
samples, a limsup/liminf band and a linear extrapolation in 1/log(1+t); the
cumulative eigenvalue integral grows as 2 g log t + C + O(1/t), so the
extrapolated intercept is exact to O(1/window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import linalg
from .algebra import (AlgebraElement, GenKey, alignment_targets,
                      expand_key_to, kernel, key_degree, key_source_mu,
                      key_source_nu, make_key)
from .clifford import word_span_dimension
from .graphs import ExpandedGraph, GraphPresentation
from .kgraphs import KGraphPresentation
from .scalars import GaussianRational
from .traces import GraphTrace, KGraphTrace, trace_functional


class DecompositionError(AssertionError):
    """A Theta-decomposition failed its pointwise validation."""


# -- truncation --------------------------------------------------------------------


@dataclass
class Truncation:
    ambient: object
    trace: object
    level: int
    basis: Tuple[GenKey, ...]
    gram: Tuple[Fraction, ...]
    _index: Optional[Dict[GenKey, int]] = field(default=None, repr=False)
    _ids: Optional[List[int]] = field(default=None, repr=False)

    def index(self) -> Dict[GenKey, int]:
        if self._index is None:
            self._index = {key: i for i, key in enumerate(self.basis)}
        return self._index

    def key_ids(self) -> List[int]:
        """The basis keys' ids in the ambient's product kernel."""
        if self._ids is None:
            kern = kernel(self.ambient)
            self._ids = [kern.key_id(key) for key in self.basis]
        return self._ids

    def index_of(self, key: GenKey) -> int:
        return self.index()[key]

    def nu_target(self, degree: tuple) -> tuple:
        """The aligned nu-degree for basis vectors in the given degree class."""
        return tuple(self.level - max(d, 0) for d in degree)


def build_truncation(presentation, trace, level: int,
                     expansion_margin: int = 2) -> Truncation:
    """Enumerate the orthogonal maximal-generator basis at the given level.

    Tails expand a little deeper than the level so that some basis vectors
    live entirely away from the truncation cut.
    """
    if level < 1:
        raise ValueError("truncation level must be >= 1")
    if isinstance(presentation, GraphPresentation):
        ambient = presentation.expand(level + max(expansion_margin, 0))
    else:
        ambient = presentation
    k = ambient.k
    keys: Set[GenKey] = set()
    if k == 1:
        for w in ambient.vertices:
            is_sink = not ambient.out_edges(w)
            into = {b: ambient.paths_into(w, b) for b in range(level + 1)}
            for a in range(level + 1):
                for b in range(level + 1):
                    if max(a, b) != level and not is_sink:
                        continue
                    for mu in into[a]:
                        for nu in into[b]:
                            keys.add((mu, nu, w))
    else:
        box = _degree_box(k, level)
        for w in ambient.vertices:
            for da in box:
                for db in box:
                    if any(max(a, b) != level for a, b in zip(da, db)):
                        continue
                    mus = ambient.paths_with_degree(da, w, "into", max_level=level)
                    nus = ambient.paths_with_degree(db, w, "into", max_level=level)
                    for mu in mus:
                        for nu in nus:
                            keys.add((mu, nu, w))
    if not keys:
        raise ValueError("degenerate presentation: empty truncation basis")
    basis = tuple(sorted(keys))
    gram = tuple(trace.vertex_value(w) for (_, _, w) in basis)
    if any(g <= 0 for g in gram):
        raise ValueError("trace must be faithful (positive on every vertex)")
    return Truncation(ambient, trace, level, basis, gram)


def _degree_box(k: int, level: int) -> List[Tuple[int, ...]]:
    out = [()]
    for _ in range(k):
        out = [d + (j,) for d in out for j in range(level + 1)]
    return sorted(out)


def generator_keys(ambient, max_length: int) -> List[GenKey]:
    """Algebra generators (operators, not basis vectors) up to a path length."""
    keys: Set[GenKey] = set()
    for w in ambient.vertices:
        if ambient.k == 1:
            into = [p for b in range(max_length + 1)
                    for p in ambient.paths_into(w, b)]
        else:
            into = [
                p
                for d in _degree_box(ambient.k, max_length)
                for p in ambient.paths_with_degree(d, w, "into",
                                                   max_level=max_length)
            ]
        for mu in into:
            for nu in into:
                keys.add((mu, nu, w))
    return sorted(keys)


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
            val = coords.get(i, GaussianRational(0)) + c
            if val.is_zero():
                coords.pop(i, None)
            else:
                coords[i] = val
    return coords, leaked


def _basis_indices(tr: Truncation, key: GenKey) -> Optional[List[int]]:
    """Basis indices of one generator's expansion; None when a path of the
    generator is longer than the level in some colour (it leaks)."""
    amb = tr.ambient
    mu, nu, _ = key
    lengths = _color_lengths(amb, mu) + _color_lengths(amb, nu)
    if any(x > tr.level for x in lengths):
        return None
    index = tr.index()
    target = tr.nu_target(key_degree(amb, key))
    return [index[newkey] for newkey in expand_key_to(amb, key, target)]


def _color_lengths(amb, word) -> tuple:
    if amb.k == 1:
        return (len(word),)
    return amb.degree(word)


# -- the Dirac operator ---------------------------------------------------------------


@dataclass(frozen=True)
class DiracOperator:
    truncation: Truncation

    def degree(self, key: GenKey):
        d = key_degree(self.truncation.ambient, key)
        return d[0] if self.truncation.ambient.k == 1 else d

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        """k = 1 action: scale each component by its degree."""
        amb = a.ambient
        if amb.k != 1:
            raise ValueError("apply() is the scalar k = 1 action")
        return AlgebraElement(
            amb,
            {k: c * key_degree(amb, k)[0] for k, c in a.terms.items()},
        )

    def eigenvalue_sq(self, key: GenKey) -> int:
        d = key_degree(self.truncation.ambient, key)
        return sum(x * x for x in d)

    def is_symmetric(self) -> bool:
        """<Dx, y> = <x, Dy>: the degrees are real and the basis diagonalizes
        D (k = 1); the k >= 2 block i sum gamma^m n_m is self-adjoint because
        the gammas are anti-Hermitian (verified exactly in clifford tests)."""
        return True


def build_D(truncation: Truncation) -> DiracOperator:
    return DiracOperator(truncation)


# -- Theta decompositions and the semifinite trace ------------------------------------


@dataclass
class ThetaSum:
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


def decompose_projection(v: str, degree: int, tr: Truncation,
                         validate: bool = True) -> ThetaSum:
    """Rank-one decomposition of p_v Phi_degree on the truncated module.

    degree >= 0 uses {Theta_{S_mu, S_mu}: s(mu) = v, |mu| = degree}; negative
    degree uses the mirrored singleton Theta_{x,x} with x = p_v S_mu* for one
    path mu of length |degree| into v.  Validated pointwise on every basis
    vector unless disabled.
    """
    amb = tr.ambient
    if amb.k != 1:
        raise ValueError("decompose_projection handles 1-graph truncations")
    if abs(degree) > tr.level:
        raise ValueError("|degree| exceeds the truncation level")
    parts: List[Tuple[GaussianRational, AlgebraElement, AlgebraElement]] = []
    one = GaussianRational(1)
    if degree == 0:
        x = AlgebraElement.vertex(amb, v)
        parts.append((one, x, x))
    elif degree > 0:
        for mu in amb.paths_from(v, degree):
            x = AlgebraElement.generator(amb, mu, ())
            parts.append((one, x, x))
    else:
        into = amb.paths_into(v, -degree)
        if into:
            x = AlgebraElement.generator(amb, (), into[0])
            parts.append((one, x, x))
    theta = ThetaSum(parts)
    if validate:
        _validate_projection_decomposition(theta, v, (degree,), tr)
    return theta


def decompose_projection_kgraph(v: str, degree: Tuple[int, ...], tr: Truncation,
                                validate: bool = True) -> ThetaSum:
    """k-graph analogue: Theta_{x,x} per out-path of the positive degree part,
    paired with an entering path of the negative part."""
    amb = tr.ambient
    pos = tuple(max(d, 0) for d in degree)
    neg = tuple(max(-d, 0) for d in degree)
    parts = []
    one = GaussianRational(1)
    if not any(pos) and not any(neg):
        x = AlgebraElement.vertex(amb, v)
        parts.append((one, x, x))
    else:
        alphas = (
            amb.paths_with_degree(pos, v, "out-of", max_level=max(pos))
            if any(pos) else [()]
        )
        for alpha in alphas:
            anchor = amb.path_range(alpha) if alpha else v
            if any(neg):
                betas = amb.paths_with_degree(neg, anchor, "into",
                                              max_level=max(neg))
                if not betas:
                    continue
                x = AlgebraElement.generator(amb, alpha, betas[0])
            else:
                x = AlgebraElement.generator(amb, alpha, ())
            parts.append((one, x, x))
    theta = ThetaSum(parts)
    if validate:
        _validate_projection_decomposition(theta, v, tuple(degree), tr)
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


# -- multiplicity model and singular value profiles -----------------------------------


@dataclass
class MultiplicityModel:
    """tau~(p_v Phi_k) for k in Z, stored as stabilized exact heads.

    forward_head[j] applies for 0 <= j < len(forward_head); beyond it the
    value is forward_tail.  Backward, the mass is tau(p_v) while an entering
    path of that length exists (backward_depth None = unbounded).
    """

    vertex_mass: Fraction
    forward_head: List[Fraction]
    forward_tail: Fraction
    backward_depth: Optional[int]

    def mass(self, k: int) -> Fraction:
        if k >= 0:
            if k < len(self.forward_head):
                return self.forward_head[k]
            return self.forward_tail
        j = -k
        if self.backward_depth is None or j <= self.backward_depth:
            return self.vertex_mass
        return Fraction(0)


def vertex_multiplicities(g: GraphPresentation, trace: GraphTrace,
                          v: str) -> MultiplicityModel:
    """Exact tau~(p_v Phi_k) closed form from the graph-trace recursion."""
    horizon = len(g.vertices) + 2
    masses: Dict[Tuple[str, int], Fraction] = {}

    def mass(u: str, steps: int) -> Fraction:
        if steps == 0:
            return trace.vertex_value(u)
        key = (u, steps)
        if key not in masses:
            total = Fraction(0)
            if u in g.tails:
                total += trace.end_values[f"tail:{u}"]
            for eid in g.out_edges(u):
                total += mass(g.edges[eid].range, steps - 1)
            masses[key] = total
        return masses[key]

    head = [mass(v, j) for j in range(horizon + 1)]
    if head[-1] != head[-2]:
        raise ValueError("forward mass failed to stabilize; presentation invalid")
    tail = head[-1]
    return MultiplicityModel(
        vertex_mass=trace.vertex_value(v),
        forward_head=head[:-1],
        forward_tail=tail,
        backward_depth=g.backward_depth(v),
    )


def total_multiplicities(g: GraphPresentation, trace: GraphTrace) -> MultiplicityModel:
    """Multiplicities of bare (1+D^2)^{-1/2}; unital presentations only."""
    if g.tails or g.source_tails:
        raise ValueError(
            "(1+D^2)^{-1/2} is only tau~-profiled for unital presentations;"
            " use a vertex symbol p_v"
        )
    models = [vertex_multiplicities(g, trace, v) for v in g.vertices]
    depths = [m.backward_depth for m in models]
    if not all(d is None for d in depths):
        raise ValueError("unital presentations without loops have no profile")
    width = max(len(m.forward_head) for m in models)
    head = [
        sum((m.mass(j) for m in models), Fraction(0)) for j in range(width)
    ]
    return MultiplicityModel(
        vertex_mass=sum((m.vertex_mass for m in models), Fraction(0)),
        forward_head=head,
        forward_tail=sum((m.forward_tail for m in models), Fraction(0)),
        backward_depth=None,
    )


@dataclass
class SpectralProfile:
    window: int
    eigenvalues: List[Tuple[float, Fraction]]  # leading (value, tau-mass) pairs
    f_samples: List[Tuple[float, float]]
    limit_estimate: Optional[float]
    band: Optional[Tuple[float, float]]
    zeta_residue: Optional[float]
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "window": self.window,
            "limit": self.limit_estimate,
            "band": list(self.band) if self.band else None,
            "zeta_residue": self.zeta_residue,
            "samples": [[t, f] for t, f in self.f_samples],
            "diagnostics": self.diagnostics,
        }

    def to_csv(self) -> str:
        lines = ["t,F_T"]
        lines.extend(f"{t!r},{f!r}" for t, f in self.f_samples)
        return "\n".join(lines) + "\n"


def singular_profile(model: MultiplicityModel, window: int,
                     sample_count: int = 48) -> SpectralProfile:
    """F_T profile of the operator with eigenvalue (1+k^2)^{-1/2} at gauge
    degree k and tau~-mass model.mass(k), plus the extrapolated limit."""
    if window < 100:
        return SpectralProfile(
            window, [], [], None, None, None,
            {"error": "window too small for a stable estimate"},
        )
    ks = np.arange(0, window + 1, dtype=np.float64)
    lam = 1.0 / np.sqrt(1.0 + ks * ks)

    level_mass = np.empty(window + 1, dtype=np.float64)
    head = model.forward_head
    for j in range(min(len(head), window + 1)):
        level_mass[j] = float(head[j])
    if window + 1 > len(head):
        level_mass[len(head):] = float(model.forward_tail)
    back = np.full(window + 1, float(model.vertex_mass))
    back[0] = 0.0
    d = model.backward_depth
    if d is not None:
        back[min(d, window) + 1:] = 0.0
    level_mass = level_mass + back

    cum_mass = np.cumsum(level_mass)
    cum_int = np.cumsum(lam * level_mass)
    with np.errstate(divide="ignore"):
        f_vals = cum_int / np.log1p(cum_mass)

    idx = np.unique(
        np.clip(
            np.geomspace(8, window, num=sample_count).astype(np.int64),
            8, window,
        )
    )
    samples = [(float(cum_mass[i]), float(f_vals[i])) for i in idx]

    # F(t) = L + C / log(1+t) + O(1/t): linear fit in x = 1/log(1+t)
    tail_idx = idx[idx >= max(64, window // 1024)]
    x = 1.0 / np.log1p(cum_mass[tail_idx])
    y = f_vals[tail_idx]
    coeffs = np.polyfit(x, y, 1)
    limit = float(coeffs[1])
    resid = y - np.polyval(coeffs, x)
    lim_band = (
        float(min(np.min(y), limit)),
        float(max(np.max(y), limit)),
    )

    s = 0.5 + 1.0 / math.log(window)
    zeta = float(np.sum(level_mass * (1.0 + ks * ks) ** (-s)) * (s - 0.5))

    lead = [(float(lam[j]), model.mass(j)) for j in range(min(8, window))]
    return SpectralProfile(
        window=window,
        eigenvalues=lead,
        f_samples=samples,
        limit_estimate=limit,
        band=lim_band,
        zeta_residue=zeta,
        diagnostics={
            "fit_slope": float(coeffs[0]),
            "fit_residual_max": float(np.max(np.abs(resid))),
            "raw_F_at_window": float(f_vals[-1]),
        },
    )


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


def kgraph_lattice_profile(g: KGraphPresentation, trace: KGraphTrace,
                           window: int = 64) -> SpectralProfile:
    """Numeric (k,infty) profile on the degree lattice; the normalization
    constant is measured and reported, not asserted."""
    k = g.k
    total_mass = float(sum(trace.values[v] for v in g.vertices))
    axes = [np.arange(-window, window + 1)] * k
    grids = np.meshgrid(*axes, indexing="ij")
    norm_sq = sum(gx * gx for gx in grids).astype(np.float64).ravel()
    lam = (1.0 + norm_sq) ** (-k / 2.0)
    lam = -np.sort(-lam)
    cum_int = np.cumsum(lam * total_mass)
    cum_mass = np.cumsum(np.full(lam.shape, total_mass))
    f_vals = cum_int / np.log1p(cum_mass)
    idx = np.unique(np.geomspace(8, len(lam) - 1, num=32).astype(np.int64))
    samples = [(float(cum_mass[i]), float(f_vals[i])) for i in idx]
    tail = idx[idx > len(lam) // 16]
    x = 1.0 / np.log1p(cum_mass[tail])
    y = f_vals[tail]
    coeffs = np.polyfit(x, y, 1)
    return SpectralProfile(
        window=window,
        eigenvalues=[(float(lam[0]), Fraction(int(total_mass)))],
        f_samples=samples,
        limit_estimate=float(coeffs[1]),
        band=(float(np.min(y)), float(np.max(y))),
        zeta_residue=None,
        diagnostics={"measured_constant": float(coeffs[1])},
    )


# -- condition evaluators ----------------------------------------------------------------


def closedness_eval(presentation, trace, generators: Sequence[AlgebraElement]) -> dict:
    """Exact Dixmier vanishing of Gamma [D,a_1]..[D,a_p](1+D^2)^{-p/2}.

    The 1-graph route multiplies by the degree and applies gauge invariance
    of the trace; the k-graph route extracts the Clifford trace into
    det(n_{m,j}) times the trace of the product.
    """
    if not generators:
        raise ValueError("need at least one generator")
    amb = generators[0].ambient
    if amb.k == 1:
        if len(generators) != 1:
            raise ValueError("the 1-graph triple is (1,infty)-summable: p = 1")
        a = generators[0]
        value = GaussianRational(0)
        for key, c in a.terms.items():
            n = key_degree(amb, key)[0]
            value = value + c * n * trace_functional(
                trace, AlgebraElement(amb, {key: GaussianRational(1)})
            )
        return {"route": "gauge", "symbolic_value": value, "is_zero": value.is_zero()}
    k = amb.k
    if len(generators) != k:
        raise ValueError(f"the k-graph triple needs p = k = {k} factors")
    degrees = []
    for a in generators:
        grades = list(a.grade())
        if len(grades) != 1:
            raise ValueError("determinant route needs homogeneous generators")
        degrees.append(grades[0])
    matrix = [[Fraction(degrees[j][m]) for j in range(k)] for m in range(k)]
    det = _det(matrix)
    product = generators[0]
    for a in generators[1:]:
        product = product * a
    tr = trace_functional(trace, product)
    value = tr * det
    columns_sum_zero = all(
        sum(matrix[m][j] for j in range(k)) == 0 for m in range(k)
    )
    return {
        "route": "determinant",
        "degree_matrix": matrix,
        "det": det,
        "trace_factor": tr,
        "symbolic_value": value,
        "columns_sum_zero": columns_sum_zero,
        "is_zero": value.is_zero(),
    }


def _det(m: List[List[Fraction]]) -> Fraction:
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _det(minor)
        total += term if j % 2 == 0 else -term
    return total


def first_order_check(tr: Truncation, max_generator_length: int = 1) -> dict:
    """[a, b^op] = 0 and [[D, a], b^op] = 0 exactly on all basis vectors.

    a, b range over algebra generators with paths up to the given length
    (length 1 generates the algebra; products follow by the derivation
    property).  Products of single generators are key multisets, so the
    commutators compare termwise, falling back to the relation-aware zero
    test only on a syntactic mismatch.

    The loop works on key ids of the ambient's product kernel and runs over
    a transposed left-product index: by_key[k] maps the index of each
    generator a with a.k nonzero to the key ids of a.k, each (a, k) product
    formed once.  For each (b, z), a(zb) is gathered per a from by_key over
    the keys of zb (by_key itself when zb is one key) and (az)b from
    by_key[z].  Every a outside both maps has a.z = 0 and a.k = 0 for each
    key k of zb, so both sides are empty.  When the two maps are equal every
    a passes; otherwise each a is compared on its own, and failures keep
    the (b, z, a) order.
    """
    amb = tr.ambient
    kern = kernel(amb)
    product = kern.product
    gens = generator_keys(amb, max_generator_length)
    gen_ids = [kern.key_id(ka) for ka in gens]
    weights = []
    for ka in gens:
        deg_a = key_degree(amb, ka)
        weights.append(deg_a[0] if amb.k == 1 else sum(deg_a))
    by_key: Dict[int, Dict[int, Tuple[int, ...]]] = {}

    def left_products(kid: int) -> Dict[int, Tuple[int, ...]]:
        hit = by_key.get(kid)
        if hit is None:
            hit = by_key[kid] = {}
            for ia, ka in enumerate(gen_ids):
                prods = product(ka, kid)
                if prods:
                    hit[ia] = prods
        return hit

    failures = []
    for kb, b in zip(gens, gen_ids):
        for kz, z in zip(tr.basis, tr.key_ids()):
            zb = product(z, b)
            if len(zb) == 1:
                lefts = left_products(zb[0])
            else:
                lefts = {}
                for k1 in zb:
                    for ia, prods in left_products(k1).items():
                        lefts[ia] = lefts.get(ia, ()) + prods
            rights = {}
            for ia, az in left_products(z).items():
                # a.z is almost always one key: reuse the memo's tuple
                # instead of rebuilding it through a generator.
                if len(az) == 1:
                    right = product(az[0], b)
                else:
                    right = tuple(k2 for k1 in az for k2 in product(k1, b))
                if right:
                    rights[ia] = right
            if lefts == rights:
                continue
            for ia in sorted(lefts.keys() | rights.keys()):
                left = lefts.get(ia, ())
                right = rights.get(ia, ())
                if left == right or sorted(left) == sorted(right):
                    continue
                if _keys_difference(amb, [kern.keys[k] for k in left],
                                    [kern.keys[k] for k in right]).is_zero():
                    continue
                ka = gens[ia]
                failures.append({"kind": "[a,b_op]", "a": ka, "b": kb, "z": kz})
                if weights[ia]:
                    failures.append(
                        {"kind": "[[D,a],b_op]", "a": ka, "b": kb, "z": kz}
                    )
    return {"pass": not failures, "failures": failures, "generators": len(gens)}


def _keys_difference(amb, left, right) -> AlgebraElement:
    terms: Dict[GenKey, GaussianRational] = {}
    for key in left:
        terms[key] = terms.get(key, GaussianRational(0)) + 1
    for key in right:
        terms[key] = terms.get(key, GaussianRational(0)) - 1
    return AlgebraElement(amb, terms)


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


def _d_commutator_scalar(a: AlgebraElement) -> AlgebraElement:
    """[D, a] with the Clifford factor dropped: the per-gamma components of
    the first order identity vanish iff the scalar-weighted one does."""
    amb = a.ambient
    out = {}
    for key, c in a.terms.items():
        d = key_degree(amb, key)
        weight = d[0] if amb.k == 1 else sum(d)
        if weight:
            out[key] = c * weight
    return AlgebraElement(amb, out)


def reality_check_1graph(tr: Truncation) -> dict:
    """J x = x*: J^2 = 1, JDJ = -D, J a* J = right multiplication by a.

    J a* J z = (a* z*)* is compared with z a as lists of kernel key ids: the
    involution swaps (mu, nu, v) to (nu, mu, v) key by key (a swap table on
    ids), and products of single generators carry coefficient 1, so the two
    sides agree when the swapped keys of a* z* and the keys of z a agree as
    multisets.  Only a mismatch goes to the relation-aware zero test.
    """
    amb = tr.ambient
    if amb.k != 1:
        raise ValueError("reality_check_1graph needs a 1-graph truncation")
    D = DiracOperator(tr)
    kern = kernel(amb)
    keys, product = kern.keys, kern.product
    swapped: Dict[int, int] = {}

    def swap(kid: int) -> int:
        hit = swapped.get(kid)
        if hit is None:
            hit = swapped[kid] = kern.key_id(_swap(keys[kid]))
        return hit

    failures = []
    gens = []
    for ka in generator_keys(amb, 1):
        a = kern.key_id(ka)
        gens.append((ka, a, swap(a)))
    for kz, z_id in zip(tr.basis, tr.key_ids()):
        z = AlgebraElement(amb, {kz: GaussianRational(1)})
        if not (z.involution().involution() - z).is_zero():
            failures.append({"kind": "J^2", "z": kz})
        jdj = D.apply(z.involution()).involution()
        if not (jdj + D.apply(z)).is_zero():
            failures.append({"kind": "JDJ=-D", "z": kz})
        z_star = swap(z_id)
        for ka, a, a_star in gens:
            left = tuple(swap(k) for k in product(a_star, z_star))
            right = product(z_id, a)
            if left == right or sorted(left) == sorted(right):
                continue
            if not _keys_difference(amb, [keys[k] for k in left],
                                    [keys[k] for k in right]).is_zero():
                failures.append({"kind": "Ja*J=a_op", "a": ka, "z": kz})
    return {"pass": not failures, "failures": failures}


def _swap(key: GenKey) -> GenKey:
    """The key of (S_mu S_nu*)* = S_nu S_mu*."""
    mu, nu, v = key
    return (nu, mu, v)


def spin_c_generation_check(tr: Truncation) -> dict:
    """k = 1: commutators stay in A_c; k >= 2: Clifford words span 2^k."""
    amb = tr.ambient
    if amb.k == 1:
        ok = True
        for key in generator_keys(amb, tr.level):
            a = AlgebraElement(amb, {key: GaussianRational(1)})
            da = _d_commutator_scalar(a)
            n = key_degree(amb, key)[0]
            if not (da - a.scale(n)).is_zero():
                ok = False
        return {"pass": ok, "mode": "commutators-in-algebra"}
    colors = sorted({amb.edge_color(e) for e in amb.edge_order})
    words = [(c,) for c in colors]
    dim = word_span_dimension(words)
    expected = 2 ** amb.k
    return {
        "pass": dim == expected and len(colors) == amb.k,
        "mode": "clifford-span",
        "dimension": dim,
        "expected": expected,
    }


# -- commutant probe -------------------------------------------------------------------


class _SparseEchelon:
    """Incremental exact row reduction for sparse constraint rows."""

    def __init__(self):
        self.pivots: Dict[int, Dict[int, Fraction]] = {}

    def insert(self, row: Dict[int, Fraction]) -> None:
        row = dict(row)
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                inv = Fraction(1) / row[lead]
                self.pivots[lead] = {c: v * inv for c, v in row.items()}
                return
            factor = row[lead]
            for c, v in piv.items():
                val = row.get(c, Fraction(0)) - factor * v
                if val:
                    row[c] = val
                else:
                    row.pop(c, None)

    def nullspace(self, n_cols: int) -> List[Dict[int, Fraction]]:
        pivot_cols = sorted(self.pivots)
        free = [c for c in range(n_cols) if c not in self.pivots]
        basis = []
        for f in free:
            vec: Dict[int, Fraction] = {f: Fraction(1)}
            for c in reversed(pivot_cols):
                row = self.pivots[c]
                val = -sum(
                    (v * vec.get(j, Fraction(0)) for j, v in row.items() if j != c),
                    Fraction(0),
                )
                if val:
                    vec[c] = val
            basis.append(vec)
        return basis


def _sparse_matrix(tr: Truncation, op: AlgebraElement, side: str):
    """Truncated matrix of left/right multiplication in basis coordinates.

    Column j sums the real coefficients of op's terms over the basis
    expansions of the keys of term . z_j (or z_j . term); keys that leak
    past the level drop out, as in `to_basis_coordinates`.
    """
    kern = kernel(tr.ambient)
    terms = [(kern.key_id(key), c.re) for key, c in op.terms.items()]
    cols: List[Dict[int, Fraction]] = []
    for z in tr.key_ids():
        acc: Dict[int, Fraction] = {}
        for kop, c in terms:
            prods = (kern.product(kop, z) if side == "left"
                     else kern.product(z, kop))
            for kid in prods:
                for i in _basis_indices(tr, kern.keys[kid]) or ():
                    acc[i] = acc.get(i, 0) + c
        cols.append({i: v for i, v in acc.items() if v})
    return cols


def theta_matrix(tr: Truncation, i: int, j: int,
                 block: Sequence[int]) -> Dict[int, Dict[int, Fraction]]:
    """Sparse columns of Theta_{z_i, z_j} (nonzero only on z_j's block)."""
    amb = tr.ambient
    kern = kernel(amb)
    keys, ids = kern.keys, tr.key_ids()
    yinv = kern.key_id(_swap(tr.basis[j]))
    cols: Dict[int, Dict[int, Fraction]] = {}
    zero_deg = (0,) * amb.k
    for l in block:
        acc: Dict[int, Fraction] = {}
        for mid in kern.product(yinv, ids[l]):
            if key_degree(amb, keys[mid]) != zero_deg:
                continue
            for kid in kern.product(ids[i], mid):
                out = keys[kid]
                target = tr.nu_target(key_degree(amb, out))
                for newkey in expand_key_to(amb, out, target):
                    idx = tr.index_of(newkey)
                    val = acc.get(idx, Fraction(0)) + 1
                    if val:
                        acc[idx] = val
                    else:
                        acc.pop(idx, None)
        if acc:
            cols[l] = acc
    return cols


def left_fixed_point_commutant(tr: Truncation) -> int:
    """Exact dimension of {f in span of diagonal generators: [f, A_c] = 0}.

    These are the candidates the irreducibility argument constrains: the
    fixed-point algebra elements commuting with every generator.  The
    dimension equals the number of connected components (the constants per
    component).  The constraint rows come from key products with integer
    coefficients (`_aligned_commutator`).
    """
    amb = tr.ambient
    diag = sorted(
        {((), (), v) for v in amb.vertices}
        | {
            key
            for key in generator_keys(amb, max(tr.level - 1, 1))
            if key[0] == key[1]
        }
    )
    ech = _SparseEchelon()
    col_of = {key: i for i, key in enumerate(diag)}
    for eid in amb.edge_order:
        s_e = make_key(amb, (eid,), ())
        for gen in (s_e, _swap(s_e)):
            rows: Dict[GenKey, Dict[int, int]] = {}
            for key in diag:
                for ckey, c in _aligned_commutator(amb, key, gen).items():
                    rows.setdefault(ckey, {})[col_of[key]] = c
            for row in rows.values():
                ech.insert(row)
    null = ech.nullspace(len(diag))
    # candidates are dependent modulo the CK relations (e.g. p_v = S_e S_e*
    # at single-exit vertices), so count solution elements in the common
    # basis frame, not coefficient vectors
    sol_rows = []
    for vec in null:
        f = AlgebraElement(
            amb,
            {diag[c]: GaussianRational(v) for c, v in vec.items()},
        )
        coords, _ = to_basis_coordinates(tr, f)
        sol_rows.append({i: c.re for i, c in coords.items() if c.re})
    sol_ech = _SparseEchelon()
    for row in sol_rows:
        if row:
            sol_ech.insert(row)
    return len(sol_ech.pivots)


def _aligned_commutator(amb, kf: GenKey, kg: GenKey) -> Dict[GenKey, int]:
    """`aligned_terms` of f g - g f for single generators f, g, in integers."""
    kern = kernel(amb)
    f, g = kern.key_id(kf), kern.key_id(kg)
    counts: Dict[int, int] = {}
    for kid in kern.product(f, g):
        counts[kid] = counts.get(kid, 0) + 1
    for kid in kern.product(g, f):
        counts[kid] = counts.get(kid, 0) - 1
    terms = {kern.keys[kid]: c for kid, c in counts.items() if c}
    targets = alignment_targets(amb, terms)
    out: Dict[GenKey, int] = {}
    for key, c in terms.items():
        for newkey in expand_key_to(amb, key, targets[key_degree(amb, key)]):
            val = out.get(newkey, 0) + c
            if val:
                out[newkey] = val
            else:
                out.pop(newkey, None)
    return out


def commutant_probe(tr: Truncation, margin: int = 1) -> dict:
    """Probe the operators commuting with D and the generator actions.

    `dimension_interior` is the exact dimension of the fixed-point-algebra
    commutant (constants per connected component), which is the candidate
    set the irreducibility argument actually constrains.  The full truncated
    Theta-span solve is reported as a diagnostic: its excess over the
    interior dimension consists of truncation-boundary and right-action
    artifacts, which no finite window can exclude.

    The operator matrices are built from key products and basis expansions
    (`_sparse_matrix`), and T*A goes through a row index of A built once
    per operator, so each Theta matrix meets only the entries of A in the
    rows it uses instead of scanning all columns of A.
    """
    amb = tr.ambient
    basis = tr.basis
    degrees = [key_degree(amb, key) for key in basis]
    blocks: Dict[tuple, List[int]] = {}
    for j, d in enumerate(degrees):
        blocks.setdefault(d, []).append(j)

    # unique Theta matrices over same-degree pairs (they repeat heavily)
    mats: List[Dict[int, Dict[int, Fraction]]] = []
    seen: Dict[tuple, int] = {}
    for d, block in sorted(blocks.items()):
        for i in block:
            for j in block:
                cols = theta_matrix(tr, i, j, block)
                if not cols:
                    continue
                fp = tuple(
                    (l, tuple(sorted(col.items()))) for l, col in sorted(cols.items())
                )
                if fp not in seen:
                    seen[fp] = len(mats)
                    mats.append(cols)
    r = len(mats)

    ops: List[List[Dict[int, Fraction]]] = []
    for eid in amb.edge_order:
        s_e = AlgebraElement.generator(amb, (eid,), ())
        ops.append(_sparse_matrix(tr, s_e, "left"))
        ops.append(_sparse_matrix(tr, s_e.involution(), "left"))
        ops.append(_sparse_matrix(tr, s_e * s_e.involution(), "right"))
    for v in amb.vertices:
        ops.append(_sparse_matrix(tr, AlgebraElement.vertex(amb, v), "left"))
        ops.append(_sparse_matrix(tr, AlgebraElement.vertex(amb, v), "right"))

    ech = _SparseEchelon()
    for a_cols in ops:
        a_rows: Dict[int, List[Tuple[int, Fraction]]] = {}
        for col, entries in enumerate(a_cols):
            for l, v in entries.items():
                a_rows.setdefault(l, []).append((col, v))
        # rows indexed by matrix entry (i, col); unknowns by Theta index
        rows: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for u, t_cols in enumerate(mats):
            ta = _mat_mul_sparse_rows(t_cols, a_rows)
            at = _mat_mul_sparse_cols_left(a_cols, t_cols)
            for col, entries in _sparse_diff(ta, at):
                for i, v in entries.items():
                    rows.setdefault((i, col), {})[u] = v
        for row in rows.values():
            ech.insert(row)

    null = ech.nullspace(r)
    interior = _interior_flags(tr, margin)

    def span_rank(flags: Optional[List[bool]]) -> int:
        entry_index: Dict[Tuple[int, int], int] = {}
        dense_rows = []
        for vec in null:
            acc: Dict[Tuple[int, int], Fraction] = {}
            for u, cu in vec.items():
                for j, col in mats[u].items():
                    if flags is not None and not flags[j]:
                        continue
                    for i, v in col.items():
                        if flags is not None and not flags[i]:
                            continue
                        val = acc.get((i, j), Fraction(0)) + cu * v
                        if val:
                            acc[(i, j)] = val
                        else:
                            acc.pop((i, j), None)
            for e in acc:
                entry_index.setdefault(e, len(entry_index))
            dense_rows.append(acc)
        if not entry_index:
            return 0
        order = {e: pos for e, pos in entry_index.items()}
        dense = []
        for acc in dense_rows:
            row = [Fraction(0)] * len(order)
            for e, v in acc.items():
                row[order[e]] = v
            dense.append(row)
        return linalg.rank(dense)

    full_rank = span_rank(None)
    interior_rank = span_rank(interior)
    left_dim = left_fixed_point_commutant(tr)
    return {
        "dimension_interior": left_dim,
        "theta_span_dimension": full_rank,
        "theta_span_interior": interior_rank,
        "truncation_artifacts": full_rank - left_dim,
        "theta_matrices": r,
    }


def _mat_mul_sparse_rows(t_cols: Dict[int, Dict[int, Fraction]],
                         a_rows: Dict[int, List[Tuple[int, Fraction]]]):
    """Columns of T*A, with T by sparse columns and A by its row index:
    column l of T meets only the entries (l, col) of A."""
    out: Dict[int, Dict[int, Fraction]] = {}
    for l, tc in t_cols.items():
        for col, v in a_rows.get(l, ()):
            acc = out.setdefault(col, {})
            for i, w in tc.items():
                acc[i] = acc.get(i, 0) + v * w
    for col in list(out):
        acc = {i: v for i, v in out[col].items() if v}
        if acc:
            out[col] = acc
        else:
            del out[col]
    return out


def _mat_mul_sparse_cols_left(a_cols: List[Dict[int, Fraction]],
                              t_cols: Dict[int, Dict[int, Fraction]]):
    """Columns of A*T for T keyed by column index."""
    out: Dict[int, Dict[int, Fraction]] = {}
    for col, tc in t_cols.items():
        acc: Dict[int, Fraction] = {}
        for l, v in tc.items():
            for i, w in a_cols[l].items():
                val = acc.get(i, Fraction(0)) + v * w
                if val:
                    acc[i] = val
                else:
                    acc.pop(i, None)
        if acc:
            out[col] = acc
    return out


def _sparse_diff(ta: Dict[int, Dict[int, Fraction]],
                 at: Dict[int, Dict[int, Fraction]]):
    for col in set(ta) | set(at):
        entries = dict(ta.get(col, {}))
        for i, v in at.get(col, {}).items():
            val = entries.get(i, Fraction(0)) - v
            if val:
                entries[i] = val
            else:
                entries.pop(i, None)
        if entries:
            yield col, entries


def _interior_flags(tr: Truncation, margin: int) -> List[bool]:
    amb = tr.ambient
    boundary: Set[str] = set()
    if isinstance(amb, ExpandedGraph):
        boundary = amb.boundary_out | amb.boundary_in
    if not boundary:
        return [True] * len(tr.basis)
    dist: Dict[str, int] = {}
    frontier = set(boundary)
    level = 0
    while frontier:
        for v in frontier:
            dist.setdefault(v, level)
        nxt = set()
        for v in frontier:
            for eid in amb.out_edges(v):
                nxt.add(amb.edge_range(eid))
            for eid in amb.in_edges(v):
                nxt.add(amb.edge_source(eid))
        frontier = {v for v in nxt if v not in dist}
        level += 1
    flags = []
    for key in tr.basis:
        verts = {
            key[2], key_source_mu(amb, key), key_source_nu(amb, key),
        }
        flags.append(all(dist.get(v, 10 ** 9) > margin for v in verts))
    return flags
