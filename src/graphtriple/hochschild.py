"""Hochschild chains over the path algebra, the boundary operator, the
orientation cycles, pi_D of those cycles, and the cancellation diagnostics.

Chains are exact linear combinations of tensors of single generators.  Zero
tests canonicalize every tensor slot by the same depth-aligned Cuntz-Krieger
expansion the algebra uses, since slot entries are only well defined modulo
the relation p_v = sum S_e S_e*.

pi_D is read from each term's path and sign, one way on both ranks and
with no algebra product (`pi_D_identity_check`): a term
c S_mu* (x) S_p1 (x) ... (x) S_pn whose slots compose to mu multiplies out
to p_r(mu), so it adds c times its slots' degree weights and a Clifford
sign to the coefficient of p_r(mu) at each gamma word, and vertex
projections are independent.

For a 1-graph, b(c) = sum_v (|v|_1 - [v emits]) p_v on the conceptual
graph (`boundary_coefficients_1graph`), so c is a cycle exactly when every
coefficient vanishes, and that closed form is what `conditions` reports.
On a truncation the boundary b(c) is that sum plus the boundary residue
and pi_D(c) = sum_e p_{r(e)}; `check_orientation_1graph` computes both, under
EXPANSION_BUDGET, and backs `graphtriple hochschild`.  For a k-graph,
`verify_cancellation_steps` builds c_k once, under CYCLE_BUDGET, and
reports b(c_k) = 0, the three cancellation steps and
pi_D(c_k) = omega_C (x) 1 from it.  pi_D(c_k) = sum_w n(w) p_w (x) omega_C,
with n(w) the number of degree-(1,...,1) paths with range w, so both hold
exactly under the single exit condition, which is what `conditions`
reports; here they are computed, as the tests' oracle.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .algebra import (AlgebraElement, GenKey, _multiply_keys, accumulate,
                      alignment_targets, expand_key_to, key_degree,
                      make_key, sum_of_vertex_projections)
from .clifford import volume_phase, word_product
from .graphs import ExpandedGraph, GraphPresentation, WorkBudgetError
from .kgraphs import KGraphPresentation, Word
from .scalars import GaussianRational, ONE

FactorTuple = Tuple[GenKey, ...]

# verify_cancellation_steps builds c_k, k! |Lambda^(1,..,1)| terms.  On
# one-vertex k-graphs (one term per permutation, 2-CPU sandbox) it takes
# 0.13 s at k = 5, 0.98 s at k = 6 and 8.1 s at k = 7; k = 8 took about
# 130 s, so the budget admits the 7-graph and refuses the 8-graph.
CYCLE_BUDGET = 5_040

# check_orientation_1graph expands the 1-graph `depth` deep and works in
# about linear time on the ambient's vertices: whole `hochschild` runs on
# tree_with_ends(4) took 0.56, 0.89, 1.03 and 1.82 s at L = 200, 400, 800
# and 1,600 (2-CPU sandbox, Python 3.11.7).  The budget admits it up to
# L = 1,998 (1.7 s); at the budget a 10,000-vertex cycle took 2.4 s and a
# 32-tail star at L = 300 (9,933 vertices) 1.7 s.
EXPANSION_BUDGET = 10_000


class HochschildChain:
    """Exact tensor chain; arity is the number of tensor factors."""

    __slots__ = ("ambient", "arity", "terms")

    def __init__(self, ambient, arity: int,
                 terms: Optional[Dict[FactorTuple, GaussianRational]] = None):
        self.ambient = ambient
        self.arity = arity
        self.terms: Dict[FactorTuple, GaussianRational] = {}
        if terms:
            for fac, c in terms.items():
                if len(fac) != arity:
                    raise ValueError("factor tuple arity mismatch")
                if not c.is_zero():
                    self.terms[fac] = c

    def boundary(self) -> "HochschildChain":
        """b(a_0 x ... x a_n) = sum (-1)^j ... a_j a_{j+1} ... + (-1)^n a_n a_0 x ..."""
        if self.arity < 2:
            raise ValueError("boundary needs arity >= 2")
        amb = self.ambient
        n = self.arity - 1
        out: Dict[FactorTuple, GaussianRational] = {}
        for fac, c in self.terms.items():
            for j in range(n):
                sign = GaussianRational((-1) ** j)
                for key in _multiply_keys(amb, fac[j], fac[j + 1]):
                    accumulate(out, fac[:j] + (key,) + fac[j + 2:], c * sign)
            sign = GaussianRational((-1) ** n)
            for key in _multiply_keys(amb, fac[n], fac[0]):
                accumulate(out, (key,) + fac[1:n], c * sign)
        return HochschildChain(amb, n, out)

    def canonical_terms(self) -> Dict[FactorTuple, GaussianRational]:
        """Slotwise depth-aligned coefficients; empty iff the chain is zero."""
        amb = self.ambient
        slot_maps: List[Dict[GenKey, List[GenKey]]] = []
        for i in range(self.arity):
            keys = {fac[i] for fac in self.terms}
            targets = alignment_targets(amb, keys)
            slot_maps.append({
                key: expand_key_to(amb, key, targets[key_degree(amb, key)])
                for key in keys
            })
        out: Dict[FactorTuple, GaussianRational] = {}
        for fac, c in self.terms.items():
            for combo in itertools.product(*(slot_maps[i][fac[i]]
                                             for i in range(self.arity))):
                accumulate(out, combo, c)
        return out

    def is_zero(self) -> bool:
        if not self.terms:
            return True
        return not self.canonical_terms()


# -- orientation cycles ------------------------------------------------------------


def orientation_cycle_1graph(ambient: ExpandedGraph) -> HochschildChain:
    """c = sum over edges of S_e* (x) S_e (tails contribute their expansion)."""
    terms: Dict[FactorTuple, GaussianRational] = {}
    for eid in ambient.edge_order:
        star = make_key(ambient, (), (eid,))
        forward = make_key(ambient, (eid,), ())
        terms[(star, forward)] = ONE
    return HochschildChain(ambient, 2, terms)


def boundary_coefficients_1graph(g: GraphPresentation) -> Dict[str, int]:
    """Closed form of b(c) on the conceptual graph: (|v|_1 - 1) p_v at
    non-sinks and |v|_1 p_v at sinks (tail interiors all vanish)."""
    out = {}
    for v in g.vertices:
        entries = g.conceptual_in_degree(v)
        out[v] = entries if g.is_sink(v) else entries - 1
    return out


def orientation_cycle_kgraph(g: KGraphPresentation) -> HochschildChain:
    """c_k = i^ceil((k+1)/2) sum_mu (1/k!) sum_sigma (-1)^sigma
    S_mu* (x) S_{mu^sigma_1} (x) ... (x) S_{mu^sigma_k}."""
    k = g.k
    scalar = GaussianRational.i_power(volume_phase(k))
    inv_fact = GaussianRational(Fraction(1, math.factorial(k)))
    terms: Dict[FactorTuple, GaussianRational] = {}
    for mu in g.unit_degree_paths():
        star = make_key(g, (), mu)
        for sigma in itertools.permutations(range(1, k + 1)):
            sign = permutation_sign(sigma)
            factors = tuple(
                make_key(g, piece, ()) for piece in g.factorize(mu, sigma)
            )
            accumulate(terms, (star,) + factors, scalar * inv_fact * sign)
    return HochschildChain(g, k + 1, terms)


def permutation_sign(sigma: Sequence[int]) -> int:
    inversions = sum(
        1
        for i in range(len(sigma))
        for j in range(i + 1, len(sigma))
        if sigma[i] > sigma[j]
    )
    return -1 if inversions % 2 else 1


# -- pi_D of an orientation cycle --------------------------------------------------


def pi_D_identity_check(chain: HochschildChain,
                        vertices: Optional[Iterable[str]] = None,
                        scalar: Optional[GaussianRational] = None) -> dict:
    """Check pi_D(chain) = scalar gamma^1...gamma^k (x) 1 on the given
    vertices (all of them by default), from each term's path and sign.

    pi_D replaces slot j >= 1 by [D, S_pj] = sum_m d(pj)_m gamma^m S_pj and
    multiplies.  A term c S_mu* (x) S_p1 (x) ... (x) S_pn whose slots
    compose to mu has the product S_mu* S_p1 ... S_pn = p_r(mu), so it adds
    c times the slot weights and the Clifford sign of each word
    gamma^m1...gamma^mn to the coefficient of p_r(mu) at that word; any
    other term raises ValueError.  Vertex projections are independent, so
    the check is exact: on each given vertex the word gamma^1...gamma^k
    has coefficient `scalar` and every other word 0.  `scalar` defaults to
    omega_C's i^ceil((k+1)/2), the normalisation of c_k; the 1-graph cycle
    c omits it (D = N there, and the one word gamma^1 stands for N).
    """
    amb = chain.ambient
    if scalar is None:
        scalar = GaussianRational.i_power(volume_phase(amb.k))
    coeffs: Dict[Tuple[str, Tuple[int, ...]], GaussianRational] = {}
    for fac, c in chain.terms.items():
        (head, mu, w), slots = fac[0], fac[1:]
        path: Optional[Word] = ()
        for p, nu, _ in slots:
            path = None if nu or path is None else amb.compose(path, p)
        if head or path != mu:
            raise ValueError(f"{fac} is not S_mu* (x) S_p1 (x) ... (x) S_pn"
                             " with p1 ... pn = mu")
        choices = [[(m + 1, n) for m, n in enumerate(amb.degree(p)) if n]
                   for p, _, _ in slots]
        for pick in itertools.product(*choices):
            sign, word = word_product((), tuple(m for m, _ in pick))
            weight = sign * math.prod(n for _, n in pick)
            accumulate(coeffs, (w, word), c * GaussianRational(weight))
    targets = set(amb.vertices if vertices is None else vertices)
    full = tuple(range(1, amb.k + 1))
    got = {key: c for key, c in coeffs.items() if key[0] in targets}
    return {"pass": got == {(v, full): scalar for v in targets}}


def check_orientation_1graph(g: GraphPresentation, depth: int = 3) -> dict:
    """Full 1-graph orientation report: conceptual b(c) coefficients, the
    truncated boundary against its expected boundary residue, and pi_D(c)
    acting as the identity away from the truncation boundary.  Above
    EXPANSION_BUDGET ambient vertices this raises WorkBudgetError before
    expanding."""
    size = g.expanded_size(depth)
    if size > EXPANSION_BUDGET:
        raise WorkBudgetError(
            f"depth {depth} would expand to {size} vertices, over the"
            f" budget of {EXPANSION_BUDGET}")
    amb = g.expand(depth)
    cycle = orientation_cycle_1graph(amb)
    coeffs = boundary_coefficients_1graph(g)
    closed_form_zero = all(v == 0 for v in coeffs.values())

    residue = (sum_of_vertex_projections(amb, amb.boundary_out)
               - sum_of_vertex_projections(amb, amb.boundary_in))
    bc = cycle.boundary()
    bc_elt = AlgebraElement(
        amb, {fac[0]: c for fac, c in bc.terms.items()}
    )
    interior_zero = (bc_elt - residue).is_zero()

    interior = [
        v for v in amb.vertices
        if amb.in_edges(v) and v not in amb.boundary_out
    ]
    pid = pi_D_identity_check(cycle, interior, scalar=ONE)
    return {
        "boundary_coefficients": coeffs,
        "closed_form_zero": closed_form_zero,
        "truncated_boundary_is_boundary_residue": interior_zero,
        "pi_D_identity_on_interior": pid["pass"],
        "orientable": closed_form_zero and interior_zero and pid["pass"],
    }


# -- cancellation diagnostics -----------------------------------------------------------


def verify_cancellation_steps(g: KGraphPresentation) -> dict:
    """Independently verify the three steps behind b(c_k) = 0.

    (i) middle boundary terms vanish pairwise under the transpositions
    t_j = (j, j+1) via the A_j / B_j partition; (ii) the paired elementary
    tensors agree termwise; (iii) every head term is cancelled by the
    Cuntz-Krieger sum over entering edges (single exit makes the matching
    one-to-one).  Reports the failing step and a witness otherwise (the
    last failure found wins).  Steps (i) and (ii) hold on every k-graph
    by the factorisation property: for sigma and sigma t_j the merged slot
    S_{mu^sigma_j} S_{mu^sigma_j+1} is the same segment of mu, of degree
    e_sigma(j) + e_sigma(j+1) after the first j - 1 factors, and the other
    slots agree too.

    c_k is built once, and both b(c_k) = 0 (`b_ck_zero`) and
    pi_D(c_k) = omega_C (x) 1 (`pi_D_is_volume_form`, from
    `pi_D_identity_check`) are read off it.  `pass` is the three steps and
    b(c_k) = 0; it does not include pi_D.  c_k has k! |Lambda^(1,..,1)|
    terms; above CYCLE_BUDGET of them this raises WorkBudgetError before
    building anything.
    """
    k = g.k
    mus = g.unit_degree_paths()
    terms = math.factorial(k) * len(mus)
    if terms > CYCLE_BUDGET:
        raise WorkBudgetError(
            f"c_k has {k}! x {len(mus)} = {terms} terms, over the budget"
            f" of {CYCLE_BUDGET}")
    perms = list(itertools.permutations(range(1, k + 1)))

    step1_ok, step1_witness = True, None
    step2_ok, step2_witness = True, None
    head_counts: Dict[tuple, int] = {}
    for mu in mus:
        star = make_key(g, (), mu)
        pieces = {sigma: g.factorize(mu, sigma) for sigma in perms}
        for sigma, factors in pieces.items():
            lam = ()
            for piece in factors[1:]:
                lam = g.compose(lam, piece)
            head_counts[(lam, sigma)] = head_counts.get((lam, sigma), 0) + 1
        for j in range(1, k):
            merged = {sigma: _merged_tensor(g, star, factors, j)
                      for sigma, factors in pieces.items()}
            total: Dict[FactorTuple, GaussianRational] = {}
            for sigma, tensor in merged.items():
                accumulate(total, tensor, permutation_sign(sigma))
                if sigma[j - 1] > sigma[j]:
                    continue  # sigma in B_j; its pair in A_j compares it
                tau = sigma[:j - 1] + (sigma[j], sigma[j - 1]) + sigma[j + 1:]
                if tensor != merged[tau]:
                    step2_ok, step2_witness = False, {
                        "mu": mu, "sigma": sigma, "j": j,
                    }
            if total:
                step1_ok, step1_witness = False, {"mu": mu, "j": j}

    step3_ok, step3_witness = True, None
    for (lam, sigma), count in sorted(head_counts.items()):
        if count != 1:
            step3_ok = False
            step3_witness = {
                "vertex": g.path_source(lam) if lam else None,
                "lambda": lam,
                "sigma": sigma,
                "head_multiplicity": count,
            }
            continue
        color = sigma[0]
        w = g.path_range(lam)
        ck = AlgebraElement.zero(g)
        for eid in g.out_edges(w):
            if g.edge_color(eid) == color:
                e = AlgebraElement.generator(g, (eid,), ())
                ck = ck + e * e.involution()
        if not ck.equals(AlgebraElement.vertex(g, w)):
            step3_ok = False
            step3_witness = {"vertex": w, "color": color, "ck_sum_defect": True}

    cycle = orientation_cycle_kgraph(g)
    b_zero = cycle.boundary().is_zero()
    return {
        "step1_middle_terms_vanish": step1_ok,
        "step1_witness": step1_witness,
        "step2_elementary_tensors_equal": step2_ok,
        "step2_witness": step2_witness,
        "step3_ck_cancellation": step3_ok,
        "step3_witness": step3_witness,
        "b_ck_zero": b_zero,
        "pi_D_is_volume_form": pi_D_identity_check(cycle)["pass"],
        "pass": step1_ok and step2_ok and step3_ok and b_zero,
    }


def _merged_tensor(g: KGraphPresentation, star: GenKey,
                   pieces: Tuple[Word, ...], j: int) -> FactorTuple:
    """S_mu* (x) ... (x) S_{mu^s_j} S_{mu^s_{j+1}} (x) ... with slots merged at j."""
    merged = make_key(g, g.compose(pieces[j - 1], pieces[j]), ())
    return ((star,) + tuple(make_key(g, p, ()) for p in pieces[:j - 1])
            + (merged,) + tuple(make_key(g, p, ()) for p in pieces[j + 1:]))
