"""Hochschild chains over the path algebra, the boundary operator, the
k-graph orientation cycle c_k, pi_D of it, the cancellation diagnostics,
and the 1-graph orientation report.

Chains are exact linear combinations of tensors of single generators.  Zero
tests canonicalize every tensor slot by the same depth-aligned Cuntz-Krieger
expansion the algebra uses, since slot entries are only well defined modulo
the relation p_v = sum S_e S_e*.  `faces` lists the terms of the boundary of
one tensor; `HochschildChain.boundary` sums them and
`verify_cancellation_steps` reads its three steps off them.

pi_D(c_k) is read from each term's path and sign, with no algebra
product (`pi_D_identity_check`): a term
c S_mu* (x) S_p1 (x) ... (x) S_pn whose slots compose to mu multiplies out
to p_r(mu), so it adds c times its slots' degree weights and a Clifford
sign to the coefficient of p_r(mu) at each gamma word, and vertex
projections are independent.

For a 1-graph, b(c) = sum_v (|v|_1 - [v emits]) p_v on the conceptual
graph (`boundary_coefficients_1graph`, read off the presentation in
`graphs` and imported here), so c is a cycle exactly when every
coefficient vanishes, and that closed form is what `conditions` reports.
`check_orientation_1graph` reads the rest of the 1-graph report of
`graphtriple hochschild`, the truncated b(c) against its boundary residue
and pi_D(c) on the interior, off the presentation too, with no chain and
no product.  For a k-graph, `verify_cancellation_steps` builds c_k
once, under CYCLE_BUDGET, and walks the faces of its terms once: they
give b(c_k), the three cancellation steps, and with
pi_D(c_k) = omega_C (x) 1 the whole report.
pi_D(c_k) = sum_w n(w) p_w (x) omega_C, with n(w) the number of
degree-(1,...,1) paths with range w, so both hold exactly under the single
exit condition, which is what `conditions` reports; here they are
computed, as the tests' oracle.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .algebra import (GenKey, _multiply_keys, accumulate, alignment_targets,
                      expand_key_to, key_degree, make_key)
from .clifford import volume_phase, word_product
from .graphs import (GraphPresentation, WorkBudgetError,
                     boundary_coefficients_1graph)
from .kgraphs import KGraphPresentation, Word
from .scalars import GaussianRational

FactorTuple = Tuple[GenKey, ...]

# verify_cancellation_steps builds c_k, k! |Lambda^(1,..,1)| terms.  On
# one-vertex k-graphs (one term per permutation, 2-CPU sandbox) it takes
# 0.02 s at k = 5, 0.13 s at k = 6 and 1.1-1.3 s at k = 7; k = 8 took
# 11.6 s and 158 MB, so the budget admits the 7-graph and refuses the 8-graph.
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


def pi_D_identity_check(chain: HochschildChain) -> dict:
    """Check pi_D(chain) = i^ceil((k+1)/2) gamma^1...gamma^k (x) 1, the
    normalisation of c_k, from each term's path and sign.

    pi_D replaces slot j >= 1 by [D, S_pj] = sum_m d(pj)_m gamma^m S_pj and
    multiplies.  A term c S_mu* (x) S_p1 (x) ... (x) S_pn whose slots
    compose to mu has the product S_mu* S_p1 ... S_pn = p_r(mu), so it adds
    c times the slot weights and the Clifford sign of each word
    gamma^m1...gamma^mn to the coefficient of p_r(mu) at that word; any
    other term raises ValueError.  Vertex projections are independent, so
    the check is exact: on each vertex the word gamma^1...gamma^k has
    coefficient omega_C's i^ceil((k+1)/2) and every other word 0.
    """
    amb = chain.ambient
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
    full = tuple(range(1, amb.k + 1))
    return {"pass": coeffs == {(v, full): scalar for v in amb.vertices}}


def check_orientation_1graph(g: GraphPresentation) -> dict:
    """Full 1-graph orientation report for c = sum_e S_e* (x) S_e, read off
    the presentation: the conceptual b(c) coefficients, the truncated
    boundary against its boundary residue, and pi_D(c) acting as the
    identity away from the truncation boundary.

    The truncation is g with each tail and source tail expanded one step:
    tail ends v~t1, source-tail ends v~s1.  There b(c) = sum_e (S_e* S_e -
    S_e S_e*) is sum_w |w|_in p_w - sum_{w emits} p_w, and the boundary
    residue is sum p_{v~t1} - sum p_{v~s1}.  Each v~t1 is entered once and
    emits nothing, each v~s1 emits once and is entered by nothing, and each
    core vertex is entered |v|_1 times, counting its source tail, and emits
    when it is not a sink.  So their difference is
    sum_v `boundary_coefficients_1graph(g)`[v] p_v over the core, and since
    vertex projections are independent, the truncated boundary is the
    residue exactly when the closed form vanishes.

    pi_D(c) = sum_e S_e* [N, S_e] = sum_e p_r(e) puts |w|_in on p_w.  The
    interior is the vertices that are entered and are not tail ends: no
    v~s1, no v~t1, and the core vertices with |v|_1 >= 1.  pi_D(c) is the
    identity there exactly when every core vertex has |v|_1 <= 1.  Both
    arguments are local to a vertex's entering and leaving edges, so a
    deeper expansion gives the same verdicts.
    """
    coeffs = boundary_coefficients_1graph(g)
    closed_form_zero = all(v == 0 for v in coeffs.values())
    identity = all(g.conceptual_in_degree(v) <= 1 for v in g.vertices)
    return {
        "boundary_coefficients": coeffs,
        "closed_form_zero": closed_form_zero,
        "truncated_boundary_is_boundary_residue": closed_form_zero,
        "pi_D_identity_on_interior": identity,
        "orientable": closed_form_zero and identity,
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
