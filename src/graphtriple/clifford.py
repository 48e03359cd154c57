"""Exact complex Clifford algebra on k anti-Hermitian generators.

Conventions: (gamma^j)* = -gamma^j and gamma^j gamma^l + gamma^l gamma^j =
-2 delta_{jl} Id.  Generators are built from a Jordan-Wigner tensor family
with entries in {0, +-1, +-i}, labeled so that entrywise conjugation obeys
j gamma^j j = (-1)^{s(k)} gamma^j for odd j and (-1)^{s(k)+1} gamma^j for
even j, where s(k) = floor(k/2)(k+1) - k.  (For k = 4n the roles of odd and
even indices swap, which the labeling handles by swapping the tensor pair.)

Every gamma matrix, every product of them, chi and omega lie in the Pauli
group: each is i**q times a tensor product of sigma_1 = X, sigma_3 = Z,
sigma_2 = iXZ and the identity.  Such an operator is stored as a `Pauli`
(x, z, phase, qubits), meaning i**phase X^x Z^z on floor(k/2) tensor
factors, with bit j of x and of z for the factor j places from the last, so
X^x Z^z e_r = (-1)^popcount(z & r) e_(r ^ x).  Products, adjoints, entrywise
conjugation, scaling by i**q and Kronecker products are then a few integer
operations on the bit strings, whatever the dimension 2^floor(k/2): a
product is two XORs and a popcount (the phase form of Aaronson-Gottesman,
PRA 70, 052328, 2004).  The strings X^x Z^z are linearly independent and the
phase is kept mod 4, so every identity below is checked exactly by tuple
equality.  The sign table is tabulated for k = 1..16, two Bott periods.

The module also carries the abstract gamma-word algebra used to represent
Clifford-valued operators exactly, independent of the matrix dimension.
"""

from __future__ import annotations

from functools import reduce
from operator import matmul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .graphs import KMAX

Word = Tuple[int, ...]


class Pauli(NamedTuple):
    """i**phase X^x Z^z on `qubits` tensor factors of C^2."""

    x: int
    z: int
    phase: int
    qubits: int

    @staticmethod
    def identity(qubits: int) -> "Pauli":
        return Pauli(0, 0, 0, qubits)

    def __matmul__(self, other: "Pauli") -> "Pauli":
        # Z^z1 X^x2 = (-1)^popcount(z1 & x2) X^x2 Z^z1
        x1, z1, q1, n = self
        x2, z2, q2, _ = other
        return Pauli(x1 ^ x2, z1 ^ z2, (q1 + q2 + 2 * (z1 & x2).bit_count()) % 4, n)

    def __neg__(self) -> "Pauli":
        return self.times_i(2)

    def times_i(self, q: int) -> "Pauli":
        """i**q times this operator."""
        x, z, p, n = self
        return Pauli(x, z, (p + q) % 4, n)

    def conj(self) -> "Pauli":
        """Entrywise complex conjugate (X and Z are real)."""
        return Pauli(self.x, self.z, -self.phase % 4, self.qubits)

    def adjoint(self) -> "Pauli":
        # (X^x Z^z)^dagger = Z^z X^x = (-1)^popcount(x & z) X^x Z^z
        x, z, q, n = self
        return Pauli(x, z, (2 * (x & z).bit_count() - q) % 4, n)

    def kron(self, other: "Pauli") -> "Pauli":
        x, z, q, n = other
        return Pauli(self.x << n | x, self.z << n | z, (self.phase + q) % 4,
                     self.qubits + n)

    def is_real(self) -> bool:
        return self.phase % 2 == 0

    def scalar(self) -> Optional[int]:
        """Return the phase q with self = i**q Id, or None."""
        return None if self.x or self.z else self.phase


_I1 = Pauli.identity(0)
_I2 = Pauli.identity(1)
_SIGMA1 = Pauli(1, 0, 0, 1)
_SIGMA2 = Pauli(1, 1, 1, 1)  # i X Z = [[0, -i], [i, 0]]
_SIGMA3 = Pauli(0, 1, 0, 1)


def _sign_phase(sign: int) -> int:
    """The q with i**q = sign, for sign = +-1."""
    return 0 if sign == 1 else 2


# -- generators --------------------------------------------------------------------


def s_of_k(k: int) -> int:
    return (k // 2) * (k + 1) - k


def _jordan_wigner(m: int) -> Tuple[List[Pauli], List[Pauli], Pauli]:
    """Pairwise anticommuting X_j, Y_j (j=1..m) and Z on m tensor factors."""

    def string(factors):
        return reduce(Pauli.kron, factors, _I1)

    xs = [string([_SIGMA3] * j + [_SIGMA1] + [_I2] * (m - j - 1)) for j in range(m)]
    ys = [string([_SIGMA3] * j + [_SIGMA2] + [_I2] * (m - j - 1)) for j in range(m)]
    return xs, ys, string([_SIGMA3] * m)


def generators(k: int) -> List[Pauli]:
    """The k anti-Hermitian generators with the required conjugation pattern."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        gens = [_I1.times_i(1)]
    else:
        m = k // 2
        xs, ys, z = _jordan_wigner(m)
        ixs = [x.times_i(1) for x in xs]  # imaginary symmetric
        iys = [y.times_i(1) for y in ys]  # real antisymmetric
        # dimensions 4n reverse the odd/even pattern
        pairs = zip(iys, ixs) if k % 4 == 0 else zip(ixs, iys)
        gens = [g for pair in pairs for g in pair]
        if k % 2 == 1:
            gens.append(z.times_i(1))
    _check_generators(k, gens)
    return gens


def _check_generators(k: int, gens: Sequence[Pauli]) -> None:
    minus_one = -Pauli.identity(gens[0].qubits)
    sk = s_of_k(k)
    for j, gj in enumerate(gens, start=1):
        sign = (-1) ** sk if j % 2 == 1 else (-1) ** (sk + 1)
        if gj.conj() != gj.times_i(_sign_phase(sign)):
            raise AssertionError(f"gamma^{j} violates the conjugation pattern")
        if gj.adjoint() != -gj:
            raise AssertionError(f"gamma^{j} is not anti-Hermitian")
        if gj @ gj != minus_one:
            raise AssertionError(f"gamma^{j} does not square to -1")
        for l, gl in enumerate(gens[: j - 1], start=1):
            if gj @ gl != -(gl @ gj):
                raise AssertionError(f"gamma^{j}, gamma^{l} anticommutator wrong")


def volume_phase(k: int) -> int:
    """The q with i**q = i^ceil((k+1)/2), the phase of omega_C."""
    return -((k + 1) // -2)


def volume_form(k: int, gens: Sequence[Pauli] = None) -> dict:
    """omega_C = i^ceil((k+1)/2) gamma^1 ... gamma^k, with the int
    omega_C^2 = +-1 reported (a Pauli string squares to an even phase).

    With this scalar, omega_C^2 = -Id for every even k; the normalized
    grading i*omega_C (even k) squares to +Id and is what the sign table uses.
    """
    gens = list(gens) if gens is not None else generators(k)
    omega = reduce(matmul, gens).times_i(volume_phase(k))
    q = (omega @ omega).scalar()
    if q not in (0, 2):
        raise AssertionError("omega_C^2 is not +-Id")
    out = {"k": k, "omega": omega, "omega_sq_scalar": 1 - q}
    if k % 2 == 0:
        out["grading"] = omega.times_i(1)
    return out


class RealityData(NamedTuple):
    k: int
    s_k: int
    chi: Pauli
    eps: int
    eps_prime: int
    eps_dprime: int  # 0 for odd k (no grading)
    degree_reversal_sign: int
    chi_star_sign: int
    omega_sq: int  # omega_C^2 = +-1 of `volume_form`


def _extract_sign(actual: Pauli, reference: Pauli, what: str) -> int:
    if actual == reference:
        return 1
    if actual == -reference:
        return -1
    raise AssertionError(f"{what} is not +-1 times the reference")


def _conjugate_by(chi: Pauli, op: Pauli) -> Pauli:
    """J op J* = chi conj(op) chi^dagger."""
    return chi @ op.conj() @ chi.adjoint()


def reality_operator(k: int) -> RealityData:
    """Build J = chi o j and compute its signs by exact matrix identities."""
    gens = generators(k)
    n = gens[0].qubits
    chi = reduce(matmul, gens[1::2], Pauli.identity(n))  # gamma^2 gamma^4 ...
    if not chi.is_real():
        raise AssertionError("chi must have real entries")
    m = k // 2
    chi_star_sign = (-1) ** (m * (m + 1) // 2)
    if chi.adjoint() != chi.times_i(_sign_phase(chi_star_sign)):
        raise AssertionError("chi adjoint sign mismatch")
    # J antiunitary: J*J = chi^dagger chi = Id
    if chi.adjoint() @ chi != Pauli.identity(n):
        raise AssertionError("J is not antiunitary")
    # J^2 = chi conj(chi) = chi^2 since chi is real
    eps = _extract_sign(chi @ chi, Pauli.identity(n), "J^2")

    # JD = eps' DJ through the degree-reversal identity
    # J D_n J* = chi conj(D_n) chi^dagger must equal sign * D_{-n}
    reversal = (-1) ** (((k + 1) // 2) * (k + 2))
    if k == 1:
        # the 1-graph Dirac is the scalar degree, so J D J = -D outright
        eps_prime = -1
        if reversal != -1:
            raise AssertionError("degree reversal sign mismatch at k = 1")
    else:
        signs = set()
        for g in gens:
            d_n = g.times_i(1)  # D on a degree block e_m
            signs.add(_extract_sign(_conjugate_by(chi, d_n), -d_n, "J D J*"))
        if len(signs) != 1:
            raise AssertionError("inconsistent JD signs across degree directions")
        eps_prime = signs.pop()
        if eps_prime != reversal:
            raise AssertionError("degree reversal sign mismatch")

    volume = volume_form(k, gens)
    if k % 2 == 0:
        gamma = volume["grading"]
        eps_dprime = _extract_sign(_conjugate_by(chi, gamma), gamma, "J Gamma J*")
    else:
        eps_dprime = 0
    return RealityData(
        k=k,
        s_k=s_of_k(k),
        chi=chi,
        eps=eps,
        eps_prime=eps_prime,
        eps_dprime=eps_dprime,
        degree_reversal_sign=reversal,
        chi_star_sign=chi_star_sign,
        omega_sq=volume["omega_sq_scalar"],
    )


# the table of signs depending only on the dimension mod 8
SIGN_TABLE = {
    0: (1, 1, 1),
    2: (-1, 1, -1),
    4: (-1, 1, 1),
    6: (1, 1, -1),
    1: (1, -1, 0),
    3: (-1, 1, 0),
    5: (-1, -1, 0),
    7: (1, 1, 0),
}


def sign_table_check(kmax: int = 8) -> dict:
    """Compare computed (eps, eps', eps'') to the mod-8 table for k = 1..kmax,
    with omega_C^2 for each k from the same gammas."""
    if not 1 <= kmax <= KMAX:
        raise ValueError(f"tabulated range is 1 <= kmax <= {KMAX}")
    names = ("eps", "eps_prime", "eps_dprime")
    entries, omega_squares = {}, {}
    for k in range(1, kmax + 1):
        data = reality_operator(k)
        got = (data.eps, data.eps_prime, data.eps_dprime)
        entries[k] = {"computed": dict(zip(names, got)),
                      "expected": dict(zip(names, SIGN_TABLE[k % 8])),
                      "pass": got == SIGN_TABLE[k % 8]}
        omega_squares[k] = data.omega_sq
    return {"kmax": kmax, "entries": entries, "omega_squares": omega_squares,
            "pass": all(e["pass"] for e in entries.values())}


# -- abstract gamma-word algebra ------------------------------------------------------


def word_times_generator(word: Word, j: int) -> Tuple[int, Word]:
    """Multiply a reduced word on the right by gamma^j, with (gamma^j)^2 = -1."""
    if j in word:
        pos = word.index(j)
        # move gamma^j leftward past len(word)-1-pos letters to meet its twin,
        # then (gamma^j)^2 = -1
        return -((-1) ** (len(word) - 1 - pos)), word[:pos] + word[pos + 1:]
    # insert keeping the word sorted
    pos = sum(1 for x in word if x < j)
    return (-1) ** (len(word) - pos), word[:pos] + (j,) + word[pos:]


def word_product(w1: Word, w2: Word) -> Tuple[int, Word]:
    sign = 1
    word = w1
    for j in w2:
        s, word = word_times_generator(word, j)
        sign *= s
    return sign, word


def word_span_dimension(generating_words: Sequence[Word]) -> int:
    """Dimension of the unital word algebra generated by the given words."""
    span = {(): None}
    frontier = [()]
    while frontier:
        new = []
        for w in frontier:
            for g in generating_words:
                _, prod = word_product(w, g)
                if prod not in span:
                    span[prod] = None
                    new.append(prod)
        frontier = new
    return len(span)
