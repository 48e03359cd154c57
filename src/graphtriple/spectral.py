"""Truncated model of the gauge spectral triple.

The Hilbert space is modeled by the depth-aligned maximal generators: pairs
S_mu S_nu* with matching range whose lengths reach the truncation level in
every color (or die at a sink).  These are pairwise orthogonal under
<x,y> = tau(x*y) with norms tau(p_{r(mu)}); shorter generators expand into
them through the Cuntz-Krieger relations.  D scales a basis vector by its
gauge degree (tensored with i sum gamma^m n_m for k-graphs).

The semifinite trace is evaluated exclusively through Theta-decompositions
validated pointwise on the basis: tau~(Theta_{x,y}) = tau((y|x)_R), never as
a Hilbert-space matrix trace.  `MultiplicityModel.dixmier_limit` is the
exact Dixmier limit; the F_T profiles of `graphtriple spectral` fit it
linearly in 1/log(1+t), as F_T = 2 g + C / log t + O(1/t), so the
extrapolated intercept is exact to O(1/window).  `conditions` reads the
limit from the trace equation instead (`conditions.THEOREMS`), and the
tests check it against `vertex_multiplicities`.

First order and 1-graph reality are identities of A_c (`conditions`
reports them as theorems); `first_order_check` and `reality_check_1graph`
are their test oracles, and `commutant_probe` is the oracle of the
irreducibility count `conditions.commutant_dimension`.  `conditions` uses
nothing of this module; `Truncation.basis` is built on first read.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .algebra import (AlgebraElement, GenKey, _as_degree_tuple, accumulate,
                      _multiply_keys, aligned, expand_key_to, key_degree,
                      key_source_mu, key_source_nu, make_key)
from .clifford import word_span_dimension
from .graphs import TAIL_MARGIN, GraphPresentation, WorkBudgetError
from .kgraphs import KGraphPresentation
from .linalg import SparseEchelon
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

    @cached_property
    def basis(self) -> Tuple[GenKey, ...]:
        """The orthogonal maximal generators, sorted.  A pair (mu, nu) into
        w needs max(d(mu), d(nu)) = level in every colour, unless w is a
        sink (only 1-graphs have sinks), where every pair up to the level
        counts."""
        amb, level = self.ambient, self.level
        box = _degree_box(amb.k, level)
        keys: Set[GenKey] = set()
        for w in amb.vertices:
            is_sink = not amb.out_edges(w)
            into = {d: amb.paths_with_degree(d, w, "into") for d in box}
            for da in box:
                for db in box:
                    if not is_sink and any(
                            max(a, b) != level for a, b in zip(da, db)):
                        continue
                    for mu in into[da]:
                        for nu in into[db]:
                            keys.add((mu, nu, w))
        return tuple(sorted(keys))

    @cached_property
    def gram(self) -> Tuple[Fraction, ...]:
        return tuple(self.trace.vertex_value(w) for (_, _, w) in self.basis)

    @cached_property
    def index(self) -> Dict[GenKey, int]:
        return {key: i for i, key in enumerate(self.basis)}

    @cached_property
    def diagonal_candidates(self) -> List[GenKey]:
        """The diagonal candidates f = S_mu S_mu* of `commutant_probe`, the
        keys (mu, mu, w) with d(mu) in the degree box of side
        max(level - 1, 1), sorted.  Forms no product."""
        amb = self.ambient
        side = max(self.level - 1, 1)
        return sorted((mu, mu, w) for w in amb.vertices
                      for d in _degree_box(amb.k, side)
                      for mu in amb.paths_with_degree(d, w, "into"))


def build_truncation(presentation, trace, level: int) -> Truncation:
    """The truncation at the given level; its basis is built on first read.

    Tails expand TAIL_MARGIN steps deeper than the level.  The basis is
    empty only on an empty ambient: a sink carries p_w, and where every
    vertex emits, some vertex receives a path of degree (level, ..., level).
    """
    if level < 1:
        raise ValueError("truncation level must be >= 1")
    if isinstance(presentation, GraphPresentation):
        ambient = presentation.expand(level + TAIL_MARGIN)
    else:
        ambient = presentation
    if not ambient.vertices:
        raise ValueError("degenerate presentation: empty truncation basis")
    if any(trace.vertex_value(w) <= 0 for w in ambient.vertices):
        raise ValueError("trace must be faithful (positive on every vertex)")
    return Truncation(ambient, trace, level)


def _degree_box(k: int, level: int) -> List[Tuple[int, ...]]:
    out = [()]
    for _ in range(k):
        out = [d + (j,) for d in out for j in range(level + 1)]
    return sorted(out)


def generator_keys(ambient, max_length: int) -> List[GenKey]:
    """Algebra generators (operators, not basis vectors) up to a path length."""
    box = _degree_box(ambient.k, max_length)
    keys: Set[GenKey] = set()
    for w in ambient.vertices:
        into = [p for d in box
                for p in ambient.paths_with_degree(d, w, "into")]
        for mu in into:
            for nu in into:
                keys.add((mu, nu, w))
    return sorted(keys)


def ck_generators(ambient) -> List[GenKey]:
    """The Cuntz-Krieger generators p_v, S_e and S_e* (the keys with
    |mu| + |nu| <= 1), |V| + 2|E| of them, in `generator_keys` order."""
    keys = {((), (), v) for v in ambient.vertices}
    for eid in ambient.edge_order:
        w = ambient.path_range((eid,))
        keys.add(((eid,), (), w))
        keys.add(((), (eid,), w))
    return sorted(keys)


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

    def dixmier_limit(self) -> Fraction:
        """The Dixmier limit of the p_v profile, exactly: c+ + c-.

        c+ = forward_tail, and c- = vertex_mass if backward_depth is None,
        else 0.  But for finitely many levels, mass(n) is c+ for n > 0 and
        c- for n < 0, so sum_{|n| <= N} mass(n) (1 + n^2)^{-1/2} =
        (c+ + c-) log N + O(1), while the cumulative mass is (c+ + c-) N +
        O(1), with log N + O(1) as its log when c+ + c- > 0.  When c+ = c- = 0
        the operator has finite rank, and the limit is 0.
        """
        backward = self.vertex_mass if self.backward_depth is None else 0
        return self.forward_tail + backward


def vertex_multiplicities(g: GraphPresentation, trace: GraphTrace,
                          v: str) -> MultiplicityModel:
    """Exact tau~(p_v Phi_k) closed form from the graph-trace recursion.

    The mass at level j unrolls mass(u, j) = tail(u) + sum over edges e out
    of u of mass(r(e), j - 1), with mass(u, 0) = tau(p_u), into a sweep over
    path counts by length: with n_i(u) the number of paths of length i from
    v to u, mass(v, j) = sum_{i<j} sum_u n_i(u) tail(u) + sum_u n_j(u)
    tau(p_u).  The sweep keeps one frontier of counts, so its depth does not
    grow with the horizon."""
    horizon = len(g.vertices) + 2
    counts: Dict[str, int] = {v: 1}
    tails = Fraction(0)
    head = []
    for _ in range(horizon + 1):
        head.append(tails + sum((n * trace.vertex_value(u)
                                 for u, n in counts.items()), Fraction(0)))
        nxt: Dict[str, int] = {}
        for u, n in counts.items():
            if u in g.tail_set:
                tails += n * trace.end_values[f"tail:{u}"]
            for eid in g.out_edges(u):
                w = g.edges[eid].range
                nxt[w] = nxt.get(w, 0) + n
        counts = nxt
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


# The profile walks its window in blocks of at most PROFILE_BLOCK levels, the
# zeta side on a worker thread.  On a 2-CPU sandbox (integer masses), blocks
# of 2^14, 2^15, 2^16 and 2^17 took a median 11.5, 8.7, 8.2 and 8.4 ms at
# window 10^6, and 1.12, 0.87, 0.68 and 0.63 s at PROFILE_BUDGET levels.
PROFILE_BLOCK = 1 << 16
PROFILE_BUDGET = 10 ** 8


def _mass_runs(model: MultiplicityModel, window: int, a: int,
               b: int) -> List[Tuple[int, int, float]]:
    """Level mass at gauge levels a..b-1 of 0..window as constant runs
    (start, stop, value), counted from a: forward mass plus tau(p_v) on
    1..backward_depth.  The exact head gives one run per level, then the
    tail gives at most three runs, cut at 1 and after the backward mass."""
    vertex = float(model.vertex_mass)
    d = model.backward_depth
    back_stop = window + 1 if d is None else min(d, window) + 1

    def back(j: int) -> float:
        return vertex if 1 <= j < back_stop else 0.0

    head = model.forward_head[a:b]
    runs = [(j, j + 1, float(h) + back(a + j)) for j, h in enumerate(head)]
    tail = float(model.forward_tail)
    cuts = sorted({a + len(head), b}
                  | {c for c in (1, back_stop) if a + len(head) < c < b})
    runs.extend((x - a, y - a, tail + back(x)) for x, y in zip(cuts, cuts[1:]))
    return runs


def _pairwise_sum(start: int, n: int, leaf):
    """np.sum of n float64 terms from `start`, given leaf(a, b) = np.sum of
    terms a..b-1: numpy halves n at a multiple of 8 down to 128 terms, so
    this adds leaves of at most PROFILE_BLOCK terms, in order, up its tree."""
    if n <= PROFILE_BLOCK:
        return leaf(start, start + n)
    half = n // 16 * 8  # n // 2 rounded down to a multiple of 8
    return (_pairwise_sum(start, half, leaf)
            + _pairwise_sum(start + half, n - half, leaf))


def _level_prefix(model: MultiplicityModel, window: int, idx) -> List[float]:
    """The cumulative level mass sum_{j<=i} mass(j) at each level i of idx,
    rounded once to a float: over the lcm of the denominators every prefix
    is an integer k, and k / lcm rounds correctly (to inf past the largest
    float)."""
    head = model.forward_head[:window + 1]
    n = len(head)
    d = model.backward_depth
    back_stop = window + 1 if d is None else min(d, window) + 1
    tail = model.forward_tail if n <= window else Fraction(0)
    vertex = model.vertex_mass if back_stop > 1 else Fraction(0)
    scale = math.lcm(*(m.denominator for m in head + [tail, vertex]))
    head_sums = list(itertools.accumulate(int(h * scale) for h in head))
    tail_k, vertex_k = int(tail * scale), int(vertex * scale)

    def prefix(i: int) -> float:
        k = ((head_sums[min(i, n - 1)] if n else 0)
             + tail_k * max(0, i + 1 - n)
             + vertex_k * max(0, min(i, back_stop - 1)))
        try:
            return k / scale
        except OverflowError:
            return math.inf if k > 0 else -math.inf

    return [prefix(int(i)) for i in idx]


def singular_profile(model: MultiplicityModel, window: int) -> SpectralProfile:
    """F_T profile of the operator with eigenvalue (1+k^2)^{-1/2} at gauge
    degree k and tau~-mass model.mass(k), sampled at 48 geometrically spaced
    levels, plus the extrapolated limit.

    When the mass sits on finitely many levels (no forward tail and a
    bounded backward depth) the operator has finite rank, F_T tends to 0
    and the limit is reported as 0.0 with no fit.

    The window is walked in blocks of at most PROFILE_BLOCK levels (the
    leaves of `_pairwise_sum`), so memory does not grow with the window and
    time is linear in it; a window above PROFILE_BUDGET raises
    WorkBudgetError before any work.  A thread in a copy of the caller's
    context (np.errstate included) sums each block's zeta terms while the
    caller runs the eigenvalue * mass cumsum, slot 0 of `grid` carrying the
    sum so far so that it adds in whole-window order.  `_pairwise_sum` adds
    the zeta sums up numpy's tree: those floats are the ones the whole-array
    form gives.  The sampled cumulative level mass t is the exact prefix of
    the model's masses, rounded once (`_level_prefix`)."""
    if window > PROFILE_BUDGET:
        raise WorkBudgetError(
            f"a profile window of {window} levels exceeds the budget of"
            f" {PROFILE_BUDGET}")
    if window < 100:
        return SpectralProfile(
            window, [], [], None, None, None,
            {"error": "window too small for a stable estimate"},
        )
    import numpy as np  # only the profiles need it; keep it off cold starts

    s = 0.5 + 1.0 / math.log(window)
    idx = np.geomspace(8, window, num=48).astype(np.int64)
    idx = np.unique(np.clip(idx, 8, window))
    t_vals = np.array(_level_prefix(model, window, idx))
    int_vals = np.empty(len(idx))
    spans = []  # (a, b, mass runs) per block
    _pairwise_sum(0, window + 1, lambda a, b: spans.append(
        (a, b, _mass_runs(model, window, a, b))) or 0.0)
    offsets = np.arange(PROFILE_BLOCK, dtype=np.float64)  # k = offsets + a

    def weighted(buf, f):
        """Each span (a, b) with buf[:b - a] = f(1 + k^2) * mass(k)."""
        for a, b, runs in spans:
            x = np.add(offsets[:b - a], a, out=buf[:b - a])
            f(np.add(np.square(x, out=x), 1.0, out=x))
            for lo, hi, value in runs:
                x[lo:hi] *= value
            yield a, b, x

    leaf_sums, failed = {}, []

    def zeta_side():
        try:
            for a, _, x in weighted(np.empty(PROFILE_BLOCK),
                                    lambda x: np.power(x, -s, out=x)):
                leaf_sums[a] = np.sum(x)
        except BaseException as exc:
            failed.append(exc)

    worker = threading.Thread(target=contextvars.copy_context().run,
                              args=(zeta_side,))
    worker.start()
    try:
        grid = np.zeros(PROFILE_BLOCK + 1)  # grid[0] carries the sum so far
        for a, b, _ in weighted(grid[1:], lambda x: np.divide(
                1.0, np.sqrt(x, out=x), out=x)):
            np.cumsum(grid[:b - a + 1], out=grid[:b - a + 1])
            i, j = np.searchsorted(idx, [a, b])
            int_vals[i:j] = grid[idx[i:j] - (a - 1)]
            grid[0] = grid[b - a]
    finally:
        worker.join()
    if failed:
        raise failed[0]
    zeta = float(_pairwise_sum(0, window + 1, lambda a, b: leaf_sums[a])
                 * (s - 0.5))
    lead = [(1.0 / math.sqrt(1.0 + j * j), model.mass(j)) for j in range(8)]
    with np.errstate(divide="ignore"):
        f_vals = int_vals / np.log1p(t_vals)
    samples = [(float(t), float(f)) for t, f in zip(t_vals, f_vals)]
    raw_f = float(f_vals[-1])  # idx ends at the window
    if model.forward_tail == 0 and model.backward_depth is not None:
        return SpectralProfile(
            window, lead, samples, 0.0, (0.0, 0.0), zeta,
            {"finite_rank": True, "raw_F_at_window": raw_f},
        )

    # F(t) = L + C / log(1+t) + O(1/t): linear fit in x = 1/log(1+t)
    tail = idx >= max(64, window // 1024)
    x = 1.0 / np.log1p(t_vals[tail])
    y = f_vals[tail]
    coeffs = np.polyfit(x, y, 1)
    limit = float(coeffs[1])
    resid = y - np.polyval(coeffs, x)
    lim_band = (
        float(min(np.min(y), limit)),
        float(max(np.max(y), limit)),
    )

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
            "raw_F_at_window": raw_f,
        },
    )


def kgraph_lattice_profile(g: KGraphPresentation, trace: KGraphTrace,
                           window: int = 64) -> SpectralProfile:
    """Numeric (k,infty) profile on the degree lattice.  `conditions` uses
    the closed form instead: trace mass times pi^(k/2)/Gamma(k/2+1)."""
    import numpy as np

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
    det(n_{m,j}) times the trace of the product.  Always zero: conditions
    reports closedness as a theorem, and the tests run this as its oracle.
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


def first_order_check(tr: Truncation) -> dict:
    """[a, b^op] = 0 and [[D, a], b^op] = 0 exactly on all basis vectors z.

    Both hold in A_c by associativity (`conditions.THEOREMS["first_order"]`):
    a and [D, a] act by left multiplication, b^op by right multiplication,
    so `conditions` reports first order as a theorem and the tests run this
    loop as its oracle; only a corrupted product can make it fail.

    a and b range over the Cuntz-Krieger generators p_v, S_e, S_e*
    (`ck_generators`) and z over the basis.  Products of single generators
    are key multisets, so a(zb) and (az)b compare termwise, falling back to
    the relation-aware zero test only on a syntactic mismatch.  Failures
    come in (b, z, a) order.  Only triples in one vertex bucket are formed:
    writing S_mu S_nu* with ls = s(mu) and rs = s(nu), x.y = 0 unless
    rs(x) = ls(y), as nu1 xi = mu2 eta forces s(nu1) = s(mu2), and x.y keeps
    ls(x), rs(y).  So only the (b, z) with rs(z) = ls(b) and the a with
    rs(a) = ls(z) are visited; a corrupted product across buckets is out of
    scope by design.
    """
    amb = tr.ambient
    gens = ck_generators(amb)
    gens_at = _by_source(amb, gens, key_source_nu)
    basis_at = _by_source(amb, tr.basis, key_source_nu)
    failures = []
    for kb in gens:
        for kz in basis_at.get(key_source_mu(amb, kb), ()):
            zb = _multiply_keys(amb, kz, kb)
            for ka in gens_at.get(key_source_mu(amb, kz), ()):
                left = [k2 for k1 in zb for k2 in _multiply_keys(amb, ka, k1)]
                right = [k2 for k1 in _multiply_keys(amb, ka, kz)
                         for k2 in _multiply_keys(amb, k1, kb)]
                if not _differ(amb, left, right):
                    continue
                failures.append({"kind": "[a,b_op]", "a": ka, "b": kb, "z": kz})
                if sum(key_degree(amb, ka)):
                    failures.append(
                        {"kind": "[[D,a],b_op]", "a": ka, "b": kb, "z": kz}
                    )
    return {"pass": not failures, "failures": failures, "generators": len(gens)}


def _by_source(amb, keys: Sequence[GenKey], source) -> Dict[str, List[GenKey]]:
    """The keys grouped by source(amb, key), each group in the given order."""
    out: Dict[str, List[GenKey]] = {}
    for key in keys:
        out.setdefault(source(amb, key), []).append(key)
    return out


def _differ(amb, left, right) -> bool:
    """Whether the sums of the keys in left and in right differ."""
    return (sorted(left) != sorted(right)
            and bool(_aligned_difference(amb, left, right)))


def _aligned_difference(amb, left, right) -> Dict[GenKey, int]:
    """`aligned` of the sum of the keys in left minus the sum of those in
    right, in integers: empty iff the two sums are equal."""
    counts: Dict[GenKey, int] = {}
    for key in left:
        accumulate(counts, key, 1)
    for key in right:
        accumulate(counts, key, -1)
    return aligned(amb, counts)


def _d_commutator_scalar(a: AlgebraElement) -> AlgebraElement:
    """[D, a] with the Clifford factor dropped: the per-gamma components of
    the first order identity vanish iff the scalar-weighted one does."""
    amb = a.ambient
    out = {}
    for key, c in a.terms.items():
        weight = sum(key_degree(amb, key))
        if weight:
            out[key] = c * weight
    return AlgebraElement(amb, out)


def reality_check_1graph(tr: Truncation) -> dict:
    """J x = x*: J a* J = right multiplication by a.

    This holds in A_c because the involution reverses products,
    J a* J z = (a* z*)* = z a (`conditions.THEOREMS["reality_1graph"]`), so
    `conditions` reports 1-graph reality as a theorem and the tests run
    this loop as its oracle.  J is the key swap (mu, nu, v) -> (nu, mu, v):
    it is its own inverse, so J^2 = 1, and the swapped key has minus the
    degree, so JDJ = -D, on every basis key by construction.

    a ranges over the Cuntz-Krieger generators p_v, S_e, S_e*
    (`ck_generators`) and z over the basis, and (a* z*)* is compared with
    z a as key lists, termwise first, then by the relation-aware zero
    test.  Only the a with ls(a) = rs(z) are visited (see
    `first_order_check`): rs(a*) = ls(a) and ls(z*) = rs(z).
    """
    amb = tr.ambient
    if amb.k != 1:
        raise ValueError("reality_check_1graph needs a 1-graph truncation")
    gens_at = _by_source(amb, ck_generators(amb), key_source_mu)
    failures = []
    for kz in tr.basis:
        z_star = _swap(kz)
        for ka in gens_at.get(key_source_nu(amb, kz), ()):
            left = [_swap(k) for k in _multiply_keys(amb, _swap(ka), z_star)]
            right = _multiply_keys(amb, kz, ka)
            if _differ(amb, left, right):
                failures.append({"kind": "Ja*J=a_op", "a": ka, "z": kz})
    return {"pass": not failures, "failures": failures}


def _swap(key: GenKey) -> GenKey:
    """The key of (S_mu S_nu*)* = S_nu S_mu*."""
    mu, nu, v = key
    return (nu, mu, v)


def spin_c_generation_check(tr: Truncation) -> dict:
    """k = 1: commutators stay in A_c; k >= 2: Clifford words span 2^k.
    Always passes: conditions reports spin_c as a theorem this backs."""
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


def commutant_probe(tr: Truncation) -> dict:
    """Exact dimension of {f in span of diagonal generators: [f, A_c] = 0},
    by products: the test oracle of `conditions.commutant_dimension`, which
    counts the same number from the presentation.

    These are the candidates the irreducibility argument constrains: the
    fixed-point algebra elements commuting with every generator.  The
    constraint rows come from key products with integer coefficients
    (`_aligned_commutator`): [f, S_e] and [f, S_e*] for each edge e and
    each f of `Truncation.diagonal_candidates`.  The solutions are counted
    on basis keys without building the basis.
    """
    amb = tr.ambient
    diag = tr.diagonal_candidates
    ech = SparseEchelon()
    for eid in amb.edge_order:
        s_e = make_key(amb, (eid,), ())
        for gen in (s_e, _swap(s_e)):
            rows: Dict[GenKey, Dict[int, int]] = {}
            for col, f in enumerate(diag):
                for ckey, c in _aligned_commutator(amb, f, gen).items():
                    rows.setdefault(ckey, {})[col] = c
            for row in rows.values():
                ech.insert(row)
    # candidates are dependent modulo the CK relations (e.g. p_v = S_e S_e*
    # at single-exit vertices), so count solution elements, not coefficient
    # vectors: expanded to nu-degree (level, ..., level), each is a sum of
    # basis keys, and the keys serve as columns in the basis order
    full = (tr.level,) * amb.k
    sol_ech = SparseEchelon()
    for vec in ech.nullspace(len(diag)):
        sol: Dict[GenKey, Fraction] = {}
        for c, v in vec.items():
            for key in expand_key_to(amb, diag[c], full):
                accumulate(sol, key, v)
        if sol:
            sol_ech.insert(sol)
    return {"dimension_interior": sol_ech.rank()}


def _aligned_commutator(amb, kf: GenKey, kg: GenKey) -> Dict[GenKey, int]:
    """`aligned_terms` of f g - g f for single generators f, g, in integers."""
    return _aligned_difference(amb, _multiply_keys(amb, kf, kg),
                               _multiply_keys(amb, kg, kf))
