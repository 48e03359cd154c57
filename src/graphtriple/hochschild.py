"""Hochschild chains over the path algebra, the boundary operator, the
orientation cycles, pi_D of those cycles, and the cancellation diagnostics.

Chains are exact linear combinations of tensors of single generators.  Zero
tests canonicalize every tensor slot by the same depth-aligned Cuntz-Krieger
expansion the algebra uses, since slot entries are only well defined modulo
the relation p_v = sum S_e S_e*.  `faces` lists the terms of the boundary of
one tensor; `HochschildChain.boundary` sums them and
`verify_cancellation_steps` reads its three steps off them.

pi_D is read from each term's path and sign, one way on both ranks and
with no algebra product (`pi_D_identity_check`): a term
c S_mu* (x) S_p1 (x) ... (x) S_pn whose slots compose to mu multiplies out
to p_r(mu), so it adds c times its slots' degree weights and a Clifford
sign to the coefficient of p_r(mu) at each gamma word, and vertex
projections are independent.

For a 1-graph, b(c) = sum_v (|v|_1 - [v emits]) p_v on the conceptual
graph (`boundary_coefficients_1graph`, read off the presentation in
`graphs` and imported here), so c is a cycle exactly when every
coefficient vanishes, and that closed form is what `conditions` reports.
On a truncation the boundary b(c) is that sum plus the boundary residue
and pi_D(c) = sum_e p_{r(e)}; `check_orientation_1graph` computes both on
the graph with its tails expanded one step, and backs
`graphtriple hochschild`.  Both are local to each vertex's entering and
leaving edges, so a deeper expansion gives the same verdicts.  For a
k-graph, `verify_cancellation_steps` builds c_k once, under CYCLE_BUDGET,
and walks the faces of its terms once: they give b(c_k), the three
cancellation steps, and with pi_D(c_k) = omega_C (x) 1 the whole report.
pi_D(c_k) = sum_w n(w) p_w (x) omega_C, with n(w) the number of
degree-(1,...,1) paths with range w, so both hold exactly under the single
exit condition, which is what `conditions` reports; here they are
computed, as the tests' oracle.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .algebra import (AlgebraElement, GenKey, _multiply_keys, accumulate,
                      alignment_targets, expand_key_to, key_degree,
                      make_key, sum_of_vertex_projections)
from .clifford import volume_phase, word_product
from .graphs import (ExpandedGraph, GraphPresentation, WorkBudgetError,
                     boundary_coefficients_1graph)
from .kgraphs import KGraphPresentation, Word
from .scalars import GaussianRational, ONE

FactorTuple = Tuple[GenKey, ...]

# verify_cancellation_steps builds c_k, k! |Lambda^(1,..,1)| terms.  On
# one-vertex k-graphs (one term per permutation, 2-CPU sandbox) it takes
# 0.13 s at k = 5, 0.98 s at k = 6 and 8.1 s at k = 7; k = 8 took about
# 130 s, so the budget admits the 7-graph and refuses the 8-graph.
CYCLE_BUDGET = 5_040


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
        out: Dict[FactorTuple, GaussianRational] = {}
        for fac, c in self.terms.items():
            for _, sign, face in faces(self.ambient, fac):
                accumulate(out, face, c if sign > 0 else -c)
        return HochschildChain(self.ambient, self.arity - 1, out)

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


def faces(ambient, fac: FactorTuple
          ) -> Iterator[Tuple[int, int, FactorTuple]]:
    """The terms of b(a_0 (x) ... (x) a_n), as (j, (-1)^j, tensor): one for
    each key of a_j a_{j+1} at j < n, and of a_n a_0, moved to the front,
    at j = n."""
    n = len(fac) - 1
    for j in range(n):
        for key in _multiply_keys(ambient, fac[j], fac[j + 1]):
            yield j, (-1) ** j, fac[:j] + (key,) + fac[j + 2:]
    for key in _multiply_keys(ambient, fac[n], fac[0]):
        yield n, (-1) ** n, (key,) + fac[1:n]


# -- orientation cycles ------------------------------------------------------------


def orientation_cycle_1graph(ambient: ExpandedGraph) -> HochschildChain:
    """c = sum over edges of S_e* (x) S_e (tails contribute their expansion)."""
    terms: Dict[FactorTuple, GaussianRational] = {}
    for eid in ambient.edge_order:
        star = make_key(ambient, (), (eid,))
        forward = make_key(ambient, (eid,), ())
        terms[(star, forward)] = ONE
    return HochschildChain(ambient, 2, terms)


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
            accumulate(coeffs, (w, word), c * weight)
    targets = set(amb.vertices if vertices is None else vertices)
    full = tuple(range(1, amb.k + 1))
    got = {key: c for key, c in coeffs.items() if key[0] in targets}
    return {"pass": got == {(v, full): scalar for v in targets}}


def check_orientation_1graph(g: GraphPresentation) -> dict:
    """Full 1-graph orientation report: conceptual b(c) coefficients, the
    truncated boundary against its expected boundary residue, and pi_D(c)
    acting as the identity away from the truncation boundary.  The ambient
    is g with its tails expanded one step, the smallest that holds each
    tail's first edge: |V| + |tails| + |source tails| vertices."""
    amb = g.expand(1)
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
    """Verify the three steps behind b(c_k) = 0 on the faces of c_k.

    c_k is built once, and each term c S_mu* (x) S_f1 (x) ... (x) S_fk,
    its slots the edges of mu in the colour order sigma, has its faces
    walked once.  (i) The middle faces j = 1..k-1 cancel for each mu and
    j: sigma and sigma t_j, t_j = (j, j+1), pair A_j with B_j.  (ii) Each
    pair gives the same tensor: S_fj S_fj+1 is the same segment of mu.
    (iii) Face 0 is S_lambda* (x) S_f2 (x) ... with mu = f1 lambda; it is
    cancelled through the Cuntz-Krieger sum over the edges of colour
    sigma(1) that enter s(lambda), so each (lambda, sigma) must head one
    term (single exit makes the matching one-to-one).  Steps (i) and (ii)
    hold on every k-graph by the factorisation property.  A failing step
    reports a witness (the last failure found wins).

    All the faces summed give b(c_k) (`b_ck_zero`), and
    pi_D(c_k) = omega_C (x) 1 (`pi_D_is_volume_form`) is read off c_k by
    `pi_D_identity_check`.  `pass` is the three steps and b(c_k) = 0; it
    does not include pi_D.  c_k has k! |Lambda^(1,..,1)| terms; above
    CYCLE_BUDGET of them this raises WorkBudgetError before building
    anything.
    """
    k = g.k
    paths = len(g.unit_degree_paths())
    terms = math.factorial(k) * paths
    if terms > CYCLE_BUDGET:
        raise WorkBudgetError(
            f"c_k has {k}! x {paths} = {terms} terms, over the budget"
            f" of {CYCLE_BUDGET}")
    cycle = orientation_cycle_kgraph(g)

    boundary: Dict[FactorTuple, GaussianRational] = {}
    middle: Dict[tuple, Dict[tuple, Tuple[FactorTuple, GaussianRational]]] = {}
    head_counts: Dict[tuple, int] = {}
    for fac, c in cycle.terms.items():
        mu = fac[0][1]
        sigma = tuple(g.edge_color(p[0]) for p, _, _ in fac[1:])
        for j, sign, face in faces(g, fac):
            coeff = c if sign > 0 else -c
            accumulate(boundary, face, coeff)
            if j == 0:
                head = (face[0][1], sigma)
                head_counts[head] = head_counts.get(head, 0) + 1
            elif j < k:
                middle.setdefault((mu, j), {})[sigma] = (face, coeff)

    step1_ok, step1_witness = True, None
    step2_ok, step2_witness = True, None
    for (mu, j), by_sigma in middle.items():
        total: Dict[FactorTuple, GaussianRational] = {}
        for sigma, (face, coeff) in by_sigma.items():
            accumulate(total, face, coeff)
            tau = sigma[:j - 1] + (sigma[j], sigma[j - 1]) + sigma[j + 1:]
            if sigma[j - 1] < sigma[j] and face != by_sigma[tau][0]:
                step2_ok, step2_witness = False, {
                    "mu": mu, "sigma": sigma, "j": j,
                }
        if total:
            step1_ok, step1_witness = False, {"mu": mu, "j": j}

    step3_ok, step3_witness = True, None
    for (lam, sigma), count in sorted(head_counts.items()):
        if count != 1:
            step3_ok, step3_witness = False, {
                "vertex": g.path_source(lam) if lam else None,
                "lambda": lam,
                "sigma": sigma,
                "head_multiplicity": count,
            }

    b_zero = HochschildChain(g, k, boundary).is_zero()
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
