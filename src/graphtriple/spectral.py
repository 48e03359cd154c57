"""Truncated model of the gauge spectral triple.

The Hilbert space is modeled by the depth-aligned maximal generators: pairs
S_mu S_nu* with matching range whose lengths reach the truncation level in
every color (or die at a sink).  These are pairwise orthogonal under
<x,y> = tau(x*y) with norms tau(p_{r(mu)}); shorter generators expand into
them through the Cuntz-Krieger relations.  D scales a basis vector by its
gauge degree (tensored with i sum gamma^m n_m for k-graphs).

The semifinite trace's level masses tau~(p_v Phi_k) are read off the
graph trace (`vertex_multiplicities`); the tests check them against
pointwise-validated Theta-decompositions.  `MultiplicityModel.dixmier_limit`
is the exact Dixmier limit; the F_T profiles of `graphtriple spectral`,
summed run by run in closed form, fit it linearly in 1/log(1+t), as
F_T = 2 g + C / log t + O(1/t), so the intercept is exact to O(1/window);
the k-graph lattice profile walks its shells |n|^2 = j as runs on the same
grid and fit.  `conditions` reads both limits from closed forms instead
(`conditions.THEOREMS`), checked against the profiles in the tests.

First order and 1-graph reality are identities of A_c (`conditions`
reports them as theorems); `first_order_check` and `reality_check_1graph`
are their test oracles, and `commutant_probe` is the oracle of the
irreducibility count `conditions.commutant_dimension`.  `conditions` uses
nothing of this module; `Truncation.basis` is built on first read.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, partial
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .algebra import (AlgebraElement, GenKey, _multiply_keys, accumulate,
                      aligned, expand_key_to, key_degree, key_source_mu,
                      key_source_nu, make_key)
from .graphs import (TAIL_MARGIN, GraphPresentation, GraphValidationError,
                     WorkBudgetError)
from .kgraphs import KGraphPresentation
from .linalg import SparseEchelon
from .scalars import GaussianRational
from .traces import GraphTrace, KGraphTrace, trace_functional


# -- truncation --------------------------------------------------------------------


class Truncation:
    def __init__(self, ambient, trace, level: int):
        self.ambient, self.trace, self.level = ambient, trace, level

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


# -- multiplicity model and singular value profiles -----------------------------------


class MultiplicityModel(NamedTuple):
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
    if any(m.backward_depth is not None for m in models):
        raise ValueError("unital presentations without loops have no profile")
    width = max(len(m.forward_head) for m in models)
    head = [sum((m.mass(j) for m in models), Fraction(0))
            for j in range(width)]
    return MultiplicityModel(
        vertex_mass=sum((m.vertex_mass for m in models), Fraction(0)),
        forward_head=head,
        forward_tail=sum((m.forward_tail for m in models), Fraction(0)),
        backward_depth=None,
    )


class SpectralProfile(NamedTuple):
    window: int
    f_samples: List[Tuple[float, float]]
    limit_estimate: Optional[float]
    band: Optional[Tuple[float, float]]
    zeta_residue: Optional[float]
    diagnostics: dict

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


PROFILE_BUDGET = 10 ** 18  # the largest window checked against mpmath
_K0, _SHORT_RUN, _BINOMIAL_TERMS = 16, 64, 8
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000)


def _mass_runs(model: MultiplicityModel, window: int
               ) -> List[Tuple[int, int, Fraction, Fraction]]:
    """Level mass at gauge levels 0..window as exact constant runs (start,
    stop, forward, backward): forward mass, and tau(p_v) backward on
    1..backward_depth.  The exact head gives one run per level, then the
    tail gives at most three runs, cut at 1 and after the backward mass."""
    d = model.backward_depth
    back_stop = window + 1 if d is None else min(d, window) + 1

    def back(j: int) -> Fraction:
        return model.vertex_mass if 1 <= j < back_stop else Fraction(0)

    head = model.forward_head[:window + 1]
    runs = [(j, j + 1, h, back(j)) for j, h in enumerate(head)]
    cuts = sorted({len(head), window + 1}
                  | {c for c in (1, back_stop) if len(head) < c < window + 1})
    runs.extend((x, y, model.forward_tail, back(x))
                for x, y in zip(cuts, cuts[1:]))
    return runs


def _em_weights(p: float) -> List[float]:
    """B_2m / (2m)! (p)_(2m-1) for m = 1..6, B_2m / (2m)! in _EM_COEFFS."""
    out, rising = [], p
    for m, coeff in enumerate(_EM_COEFFS, 1):
        out.append(coeff * rising)
        rising *= (p + 2 * m - 1) * (p + 2 * m)
    return out


def _edge_terms(p: float, weights: Sequence[float], x: int) -> float:
    """The Euler-Maclaurin terms of sum_k k^-p at the end x: -x^-p / 2 -
    sum_m w_m x^(1-p-2m), w_m the `_em_weights` of p."""
    out, power = -x ** -p / 2, x ** (-p - 1)
    for w in weights:
        out -= w * power
        power /= x * x
    return out


def _level_sums(s: float, a: int, ends: Sequence[int]) -> List[float]:
    """sum_{a <= k < b} (1 + k^2)^-s at each b of ends, term by term for up
    to _SHORT_RUN terms and below _K0.  From m = max(a, _K0) on, (1 +
    k^2)^-s = sum_j C(-s, j) k^(-2s-2j), j < _BINOMIAL_TERMS, and each power
    k^-p is summed by Euler-Maclaurin, its integral from m to b taken as
    m^q expm1(q log(b/m)) / q, q = 1 - p, so that b near m loses nothing.
    The lower end m (its sum below _K0, m^q and edge terms) and the
    Euler-Maclaurin weights are taken once for all the ends."""
    long = [b for b in ends if b - a > _SHORT_RUN]
    m, c, p = max(a, _K0), 1.0, 2 * s
    logs = [math.log1p((b - m) / m) for b in long]
    below = sum((1 + k * k) ** -s for k in range(a, m)) if long else 0
    totals = [below] * len(long)
    for j in range(_BINOMIAL_TERMS if long else 0):
        q, weights = 1 - p, _em_weights(p)
        m_q, lower = m ** q, _edge_terms(p, weights, m)
        for i, (b, log_ratio) in enumerate(zip(long, logs)):
            integral = (log_ratio if q == 0
                        else m_q * math.expm1(q * log_ratio) / q)
            totals[i] += c * (integral + _edge_terms(p, weights, b) - lower)
        c *= (-s - j) / (j + 1)
        p += 2
    by_end = iter(totals)
    return [next(by_end) if b - a > _SHORT_RUN
            else sum((1 + k * k) ** -s for k in range(a, b)) for b in ends]


def _run_sums(runs, stops: Sequence[int], sums) -> list:
    """sum_{k < n} value * term(k) at each n of the ascending stops, the
    runs (start, stop, value) constant, and sums(a, ends) the sums of
    term(k) from a to each of the ends; integer values and sums stay
    exact.  A stop equal to its run's end is passed once, as that end."""
    out, total, i = [], 0, 0
    for a, b, value in runs:
        j = i
        while j < len(stops) and stops[j] <= b:
            j += 1
        closed = j > i and stops[j - 1] == b
        at = sums(a, stops[i:j] if closed else [*stops[i:j], b])
        out.extend(total + value * x for x in at[:j - i])
        total += value * at[-1]
        i = j
    return out


def _lengths(a: int, ends: Sequence[int]) -> List[int]:
    """The levels from a to each end: with it, `_run_sums` adds the values."""
    return [b - a for b in ends]


def _sample_levels(window: int) -> List[int]:
    """The profiles' one grid: 48 levels 10^(lo + i step) truncated, each
    once, lo = log10(8), step = (log10(window) - lo) / 47, with the ends 8
    and the window exact."""
    lo = math.log10(8)
    step = (math.log10(window) - lo) / 47
    return sorted({8, window,
                   *(int(10.0 ** (lo + i * step)) for i in range(1, 47))})


def _over_log1p(x: float, t: float) -> float:
    """x / log(1 + t) as IEEE floats give it: x * inf (+-inf, or nan at x = 0)
    where the log is 0, log(0) = -inf, nan where t < -1 has no log."""
    log = math.log1p(t) if t > -1 else -math.inf if t == -1 else math.nan
    return x / log if log else x * math.inf


def _fit_line(xs, ys) -> Tuple[float, float]:
    """Least-squares slope (nan if the xs are all equal) and intercept."""
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - x_mean) * (x - x_mean) for x in xs)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx else math.nan
    return slope, y_mean - slope * x_mean


def singular_profile(model: MultiplicityModel, window: int) -> SpectralProfile:
    """F_T profile of the operator with eigenvalue (1+k^2)^{-1/2} at gauge
    degree k and tau~-mass model.mass(k), sampled at 48 geometrically spaced
    levels (`_sample_levels`), plus the limit extrapolated by least squares
    in 1/log(1+t).  When the level mass ends at c+ + c- = 0
    (`MultiplicityModel.dixmier_limit`), the operator has finite rank and
    the limit is reported as 0.0 with no fit.

    The level mass is laid out once, as the exact runs of `_mass_runs`,
    and `_run_sums` walks them three times: for the cumulative mass t,
    each run's integer mass over the lcm of the denominators, so that t is
    the exact prefix divided once; then, with float(forward) +
    float(backward) per run, for the F sums and the zeta residue, one
    `_level_sums` call per run for its stops and its end, so each run's
    lower end is taken once.  Time is O(runs + samples) and memory
    constant.  A window above PROFILE_BUDGET raises WorkBudgetError, and a
    level mass, or the cumulative mass at the window, past the largest
    float GraphValidationError, before any float sum."""
    if window > PROFILE_BUDGET:
        raise WorkBudgetError(
            f"a profile window of {window} levels exceeds the budget of"
            f" {PROFILE_BUDGET}")
    if window < 100:
        return SpectralProfile(window, [], None, None, None, {
            "error": "window too small for a stable estimate"})
    try:
        list(map(float, (model.vertex_mass, model.forward_tail,
                         *model.forward_head[:window + 1])))
    except OverflowError:
        raise GraphValidationError(
            "a level mass exceeds the largest float") from None

    levels = _sample_levels(window)
    stops = [n + 1 for n in levels]
    exact = _mass_runs(model, window)
    scale = math.lcm(*((f + g).denominator for _, _, f, g in exact))
    counts = _run_sums([(a, b, int((f + g) * scale)) for a, b, f, g in exact],
                       stops, _lengths)
    try:
        t_vals = [k / scale for k in counts]
    except OverflowError:
        raise GraphValidationError("the cumulative level mass exceeds"
                                   " the largest float") from None
    runs = [(a, b, float(f) + float(g)) for a, b, f, g in exact]
    int_vals = _run_sums(runs, stops, partial(_level_sums, 0.5))
    s = 0.5 + 1.0 / math.log(window)
    zeta = _run_sums(runs, [window + 1], partial(_level_sums, s))[0]
    zeta *= s - 0.5
    f_vals = [_over_log1p(x, t) for x, t in zip(int_vals, t_vals)]
    samples = list(zip(t_vals, f_vals))
    raw_f = f_vals[-1]  # levels end at the window
    if model.dixmier_limit() == 0:
        return SpectralProfile(window, samples, 0.0, (0.0, 0.0), zeta, {
            "finite_rank": True, "raw_F_at_window": raw_f})

    # F(t) = L + C / log(1+t) + O(1/t): linear fit in x = 1/log(1+t)
    cut = max(64, window // 1024)
    xs = [_over_log1p(1.0, t) for n, t in zip(levels, t_vals) if n >= cut]
    ys = [f for n, f in zip(levels, f_vals) if n >= cut]
    slope, limit = _fit_line(xs, ys)
    resid = max(abs(y - (slope * x + limit)) for x, y in zip(xs, ys))
    return SpectralProfile(
        window, samples, limit, (min(*ys, limit), max(*ys, limit)), zeta,
        {"fit_slope": slope, "fit_residual_max": resid,
         "raw_F_at_window": raw_f})


def kgraph_lattice_profile(g: KGraphPresentation, trace: KGraphTrace,
                           window: int = 64) -> SpectralProfile:
    """Numeric (k,infty) profile: eigenvalue (1 + |n|^2)^(-k/2), with the
    trace mass, at each n of [-window, window]^k, sampled and fitted as in
    `singular_profile` (the fit past N/16 of the N points; ValueError if
    N < 9), each shell |n|^2 = j, counted by k convolutions, one run.
    `conditions` uses the closed form: mass times pi^(k/2)/Gamma(k/2+1)."""
    k = g.k
    mass = float(sum(trace.values[v] for v in g.vertices))
    shells = [1]  # shells[j]: the points of the box so far with |n|^2 = j
    for _ in range(k):
        size, nxt = len(shells), [0] * (len(shells) + window * window)
        for x in range(window + 1):
            at, times = x * x, 2 if x else 1
            nxt[at:at + size] = [a + times * b for a, b in
                                 zip(nxt[at:at + size], shells)]
        shells = nxt
    ends = list(itertools.accumulate(shells))
    runs = [(b - n, b, (1.0 + j) ** (-k / 2) * mass)
            for j, (n, b) in enumerate(zip(shells, ends))]
    levels = _sample_levels(ends[-1] - 1)
    sums = _run_sums(runs, [n + 1 for n in levels], _lengths)
    t_vals = [(n + 1) * mass for n in levels]
    f_vals = [_over_log1p(x, t) for x, t in zip(sums, t_vals, strict=True)]
    cut = ends[-1] // 16
    xs = [_over_log1p(1.0, t) for n, t in zip(levels, t_vals) if n > cut]
    ys = [f for n, f in zip(levels, f_vals) if n > cut]
    _, limit = _fit_line(xs, ys)
    return SpectralProfile(window, list(zip(t_vals, f_vals)), limit,
                           (min(ys), max(ys)), None, {"measured_constant": limit})


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
    from .clifford import word_span_dimension
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
