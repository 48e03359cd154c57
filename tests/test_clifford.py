import itertools
import json
from dataclasses import replace
from fractions import Fraction
from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtriple import clifford
from graphtriple.clifford import (KMAX, SIGN_TABLE, Pauli, _check_generators,
                                  generators, reality_operator, s_of_k,
                                  sign_table_check, volume_form, word_product,
                                  word_span_dimension)
from graphtriple.cli import run
from graphtriple.conditions import evaluate_all
from graphtriple.scalars import ONE, GaussianRational

from corpus import torus_2graph
from oracles import degree_reversal_check, word_to_matrix


# -- dense oracle -------------------------------------------------------------------
#
# The exact dense GaussianRational matrices and the construction the Pauli
# form replaced.  They are slow (every product is Fraction arithmetic on
# 2^floor(k/2)-square matrices), so the comparison below stops at k = 6.

Matrix = Tuple[Tuple[GaussianRational, ...], ...]

_G0 = GaussianRational(0)
_G1 = GaussianRational(1)
_GI = GaussianRational(0, 1)

_SIGMA1 = ((_G0, _G1), (_G1, _G0))
_SIGMA2 = ((_G0, -_GI), (_GI, _G0))
_SIGMA3 = ((_G1, _G0), (_G0, -_G1))


def identity(n: int) -> Matrix:
    return tuple(
        tuple(_G1 if i == j else _G0 for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, p = len(a), len(b), len(b[0])
    return tuple(
        tuple(
            sum((a[i][l] * b[l][j] for l in range(m)), _G0) for j in range(p)
        )
        for i in range(n)
    )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_scale(c: GaussianRational, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_neg(a: Matrix) -> Matrix:
    return mat_scale(GaussianRational(-1), a)


def mat_conj(a: Matrix) -> Matrix:
    return tuple(tuple(x.conjugate() for x in row) for row in a)


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_adjoint(a: Matrix) -> Matrix:
    return mat_conj(mat_transpose(a))


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_is_real(a: Matrix) -> bool:
    return all(x.im == 0 for row in a for x in row)


def kron(a: Matrix, b: Matrix) -> Matrix:
    out = []
    for ra in a:
        for rb in b:
            out.append(tuple(x * y for x in ra for y in rb))
    return tuple(out)


def scalar_multiple_of_identity(a: Matrix):
    """Return c with a = c*Id, or None."""
    n = len(a)
    c = a[0][0]
    if mat_eq(a, mat_scale(c, identity(n))):
        return c
    return None


def matrix_to_json(a: Matrix) -> list:
    """Row-major entries as "re,im" rational strings."""
    return [[f"{x.re},{x.im}" for x in row] for row in a]


def matrix_from_json(rows: list) -> Matrix:
    out = []
    for row in rows:
        entries = []
        for cell in row:
            re, im = cell.split(",")
            entries.append(GaussianRational(Fraction(re), Fraction(im)))
        out.append(tuple(entries))
    return tuple(out)


# the 2x2 factor X^a Z^b for the bits (a, b); X Z = -i sigma_2
_FACTORS = {(0, 0): identity(2), (1, 0): _SIGMA1, (0, 1): _SIGMA3,
            (1, 1): mat_mul(_SIGMA1, _SIGMA3)}


def to_dense(op: Pauli) -> Matrix:
    """The dense matrix of i**phase X^x Z^z: the Kronecker product of the 2x2
    factors picked by the bits, the first factor from the highest bit, times
    i**phase.  It never uses `Pauli`'s own product rule."""
    assert op.x >> op.qubits == op.z >> op.qubits == 0
    out = identity(1)
    for j in reversed(range(op.qubits)):
        out = kron(out, _FACTORS[op.x >> j & 1, op.z >> j & 1])
    return mat_scale(GaussianRational.i_power(op.phase), out)


def paulis(qubits: int):
    """Pauli strings on the given number of tensor factors."""
    bits = st.integers(0, 2 ** qubits - 1)
    return st.builds(Pauli, bits, bits, st.integers(0, 3), st.just(qubits))


def dense_generators(k: int):
    if k == 1:
        return [((_GI,),)]
    m = k // 2
    xs, ys = [], []
    for j in range(1, m + 1):
        x = y = identity(1)
        for pos in range(1, m + 1):
            if pos < j:
                x, y = kron(x, _SIGMA3), kron(y, _SIGMA3)
            elif pos == j:
                x, y = kron(x, _SIGMA1), kron(y, _SIGMA2)
            else:
                x, y = kron(x, identity(2)), kron(y, identity(2))
        xs.append(mat_scale(_GI, x))
        ys.append(mat_scale(_GI, y))
    gens = []
    for j in range(m):
        gens.extend([ys[j], xs[j]] if k % 4 == 0 else [xs[j], ys[j]])
    if k % 2 == 1:
        z = identity(1)
        for _ in range(m):
            z = kron(z, _SIGMA3)
        gens.append(mat_scale(_GI, z))
    # the dense generator checks: adjoints, conjugation, anticommutators
    n = len(gens[0])
    sk = s_of_k(k)
    for j, gj in enumerate(gens, start=1):
        assert mat_eq(mat_adjoint(gj), mat_neg(gj))
        sign = (-1) ** sk if j % 2 == 1 else (-1) ** (sk + 1)
        assert mat_eq(mat_conj(gj), gj if sign == 1 else mat_neg(gj))
        for l, gl in enumerate(gens, start=1):
            anti = mat_add(mat_mul(gj, gl), mat_mul(gl, gj))
            want = mat_scale(GaussianRational(-2 if j == l else 0), identity(n))
            assert mat_eq(anti, want)
    return gens


def dense_volume_form(k: int, gens):
    prod = identity(len(gens[0]))
    for g in gens:
        prod = mat_mul(prod, g)
    omega = mat_scale(GaussianRational.i_power(-((k + 1) // -2)), prod)
    out = {"omega": omega,
           "omega_sq_scalar": scalar_multiple_of_identity(mat_mul(omega, omega))}
    if k % 2 == 0:
        out["grading"] = mat_scale(_GI, omega)
    return out


def _dense_sign(actual: Matrix, reference: Matrix) -> int:
    if mat_eq(actual, reference):
        return 1
    assert mat_eq(actual, mat_neg(reference))
    return -1


def dense_reality(k: int, gens) -> dict:
    """chi and the signs (eps, eps', eps'') by dense matrix identities."""
    n = len(gens[0])
    chi = identity(n)
    for j in range(2, k + 1, 2):
        chi = mat_mul(chi, gens[j - 1])
    assert mat_is_real(chi)
    m = k // 2
    chi_star_sign = (-1) ** (m * (m + 1) // 2)
    assert mat_eq(mat_adjoint(chi), mat_scale(GaussianRational(chi_star_sign), chi))
    assert mat_eq(mat_mul(mat_adjoint(chi), chi), identity(n))

    def conjugate_by_j(op):
        return mat_mul(mat_mul(chi, mat_conj(op)), mat_adjoint(chi))

    eps = _dense_sign(mat_mul(chi, chi), identity(n))
    if k == 1:
        eps_prime = -1
    else:
        signs = {_dense_sign(conjugate_by_j(mat_scale(_GI, g)),
                             mat_neg(mat_scale(_GI, g))) for g in gens}
        assert len(signs) == 1
        eps_prime = signs.pop()
    if k % 2 == 0:
        grading = dense_volume_form(k, gens)["grading"]
        eps_dprime = _dense_sign(conjugate_by_j(grading), grading)
    else:
        eps_dprime = 0
    return {"chi": chi, "chi_star_sign": chi_star_sign,
            "signs": (eps, eps_prime, eps_dprime)}


class TestDenseOracle:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_dense_construction(self, k):
        gens = generators(k)
        dense = dense_generators(k)
        assert len(gens) == len(dense) == k
        for g, d in zip(gens, dense):
            assert to_dense(g) == d
            assert mat_eq(to_dense(g), d)
        vf, dvf = volume_form(k), dense_volume_form(k, dense)
        assert mat_eq(to_dense(vf["omega"]), dvf["omega"])
        assert vf["omega_sq_scalar"] == dvf["omega_sq_scalar"]
        assert str(vf["omega_sq_scalar"]) == str(dvf["omega_sq_scalar"])
        assert ("grading" in vf) == ("grading" in dvf) == (k % 2 == 0)
        if k % 2 == 0:
            assert mat_eq(to_dense(vf["grading"]), dvf["grading"])
        data, ddata = reality_operator(k), dense_reality(k, dense)
        assert mat_eq(to_dense(data.chi), ddata["chi"])
        assert data.chi_star_sign == ddata["chi_star_sign"]
        assert (data.eps, data.eps_prime, data.eps_dprime) == ddata["signs"]

    @pytest.mark.parametrize("qubits", range(4))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_operations_match_dense(self, qubits, data):
        # a and b on `qubits` factors, c on 0-3 factors
        a, b = data.draw(paulis(qubits)), data.draw(paulis(qubits))
        c = data.draw(st.integers(0, 3).flatmap(paulis))
        da, db, dc = to_dense(a), to_dense(b), to_dense(c)
        assert mat_eq(to_dense(a @ b), mat_mul(da, db))
        assert mat_eq(to_dense(a.adjoint()), mat_adjoint(da))
        assert mat_eq(to_dense(a.conj()), mat_conj(da))
        assert mat_eq(to_dense(-a), mat_neg(da))
        for q in range(-1, 6):
            assert mat_eq(to_dense(a.times_i(q)),
                          mat_scale(GaussianRational.i_power(q), da))
        assert mat_eq(to_dense(a.kron(c)), kron(da, dc))
        assert mat_eq(to_dense(c.kron(a)), kron(dc, da))
        for op, dense in ((a, da), (c, dc)):
            assert op.is_real() == mat_is_real(dense)
            assert op.scalar() == scalar_multiple_of_identity(dense)

    def test_pauli_constants_are_the_sigmas(self):
        assert to_dense(clifford._SIGMA1) == _SIGMA1
        assert to_dense(clifford._SIGMA2) == _SIGMA2
        assert to_dense(clifford._SIGMA3) == _SIGMA3
        assert Pauli.identity(2).times_i(3).scalar() == GaussianRational(0, -1)
        assert Pauli.identity(0).times_i(1).scalar() == GaussianRational(0, 1)


class TestGenerators:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_invariants(self, k):
        gens = generators(k)
        assert len(gens) == k
        assert len(to_dense(gens[0])) == 2 ** (k // 2)
        # anticommutation, adjoints and the conjugation pattern are asserted
        # inside generators(); reaching here means they all hold exactly

    @pytest.mark.parametrize("k", range(9, KMAX + 1))
    def test_invariants_beyond_eight(self, k):
        gens = generators(k)
        assert len(gens) == k
        assert all(g.qubits == k // 2 for g in gens)

    def test_k1_is_forced(self):
        gens = [to_dense(g) for g in generators(1)]
        assert gens[0] == ((GaussianRational(0, 1),),)
        sq = mat_mul(gens[0], gens[0])
        assert mat_eq(sq, mat_neg(identity(1)))

    def test_k2_pair(self):
        g1, g2 = (to_dense(g) for g in generators(2))
        anti = mat_mul(g1, g2)
        assert mat_eq(anti, mat_neg(mat_mul(g2, g1)))
        for g in (g1, g2):
            assert mat_eq(mat_mul(g, g), mat_neg(identity(2)))

    def test_k3_volume_product_is_scalar(self):
        g1, g2, g3 = (to_dense(g) for g in generators(3))
        prod = mat_mul(mat_mul(g1, g2), g3)
        scalar = scalar_multiple_of_identity(prod)
        assert scalar is not None
        assert scalar.abs_sq() == 1

    def test_s_of_k_parity(self):
        # s(k) is even only in dimensions 4n
        for k in range(1, 9):
            assert (s_of_k(k) % 2 == 0) == (k % 4 == 0)


class TestGeneratorCheckMutants:
    """One generator changed: each generator check, run in order, must raise
    its own message, so the checks before it still pass on the mutant."""

    def test_real_entry_breaks_conjugation_pattern(self):
        # gamma^1 at k = 2 is i sigma_1; times i it is the real -sigma_1
        gens = generators(2)
        gens[0] = gens[0].times_i(1)
        with pytest.raises(AssertionError,
                           match=r"^gamma\^1 violates the conjugation pattern$"):
            _check_generators(2, gens)

    def test_sign_flip_breaks_anti_hermitian(self):
        # gamma^2 at k = 4 is i X (x) I; a Z under its X negates one
        # off-diagonal entry without its mirror entry: i X Z (x) I keeps the
        # conjugation pattern but is Hermitian
        gens = generators(4)
        x, z, q, n = gens[1]
        assert (x, z) == (0b10, 0)
        gens[1] = Pauli(x, z ^ x, q, n)
        with pytest.raises(AssertionError,
                           match=r"^gamma\^2 is not anti-Hermitian$"):
            _check_generators(4, gens)

    def test_extra_factor_breaks_the_square(self):
        # an anti-Hermitian Pauli string squares to -1 on its own factors, so
        # only a generator on the wrong number of factors reaches this check:
        # gamma^2 at k = 4 on three factors squares to -1 (x) I (x) I (x) I
        gens = generators(4)
        gens[1] = gens[1].kron(Pauli.identity(1))
        with pytest.raises(AssertionError,
                           match=r"^gamma\^2 does not square to -1$"):
            _check_generators(4, gens)

    @pytest.mark.parametrize("k", [3, 5])
    def test_diagonal_sign_flip_breaks_anticommutation(self, k):
        # gamma^k = i Z (x) ... (x) Z is diagonal: dropping its last Z factor
        # flips diagonal signs and keeps it anti-Hermitian with the same
        # conjugation pattern and square, but it no longer anticommutes
        gens = generators(k)
        x, z, q, n = gens[k - 1]
        assert (x, z, n) == (0, 2 ** n - 1, k // 2)
        gens[k - 1] = Pauli(x, z & ~1, q, n)
        with pytest.raises(AssertionError,
                           match=rf"^gamma\^{k}, gamma\^\d+ anticommutator wrong$"):
            _check_generators(k, gens)


class TestVolumeForm:
    def test_k1_value(self):
        vf = volume_form(1)
        assert to_dense(vf["omega"]) == ((GaussianRational(-1),),)
        assert vf["omega_sq_scalar"] == GaussianRational(1)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_omega_square_diagnostic(self, k):
        # with the i^ceil((k+1)/2) scalar the square is -1 for even k and +1
        # for odd k; reported, not silently renormalized
        vf = volume_form(k)
        expected = GaussianRational(1 if k % 2 else -1)
        assert vf["omega_sq_scalar"] == expected
        if k % 2 == 0:
            grading = to_dense(vf["grading"])
            assert mat_eq(mat_mul(grading, grading), identity(len(grading)))
            assert mat_is_real(grading)

    def test_commutation_with_generators_even_k(self):
        for k in (2, 4):
            gens = generators(k)
            omega = to_dense(volume_form(k, gens)["omega"])
            for g in map(to_dense, gens):
                assert mat_eq(mat_mul(omega, g), mat_neg(mat_mul(g, omega)))

    def test_non_scalar_square_is_none(self):
        gens = generators(4)
        assert (gens[0] @ gens[1]).scalar() is None
        assert scalar_multiple_of_identity(to_dense(gens[0] @ gens[1])) is None


class TestReality:
    def test_k1_signs(self):
        data = reality_operator(1)
        assert (data.eps, data.eps_prime) == (1, -1)

    def test_k2_signs(self):
        data = reality_operator(2)
        assert (data.eps, data.eps_prime, data.eps_dprime) == (-1, 1, -1)

    def test_k7_signs(self):
        data = reality_operator(7)
        assert (data.eps, data.eps_prime) == (1, 1)

    def test_k4_grading_sign(self):
        assert reality_operator(4).eps_dprime == 1

    def test_chi_real_and_antiunitary(self):
        for k in range(1, 9):
            chi = to_dense(reality_operator(k).chi)
            assert mat_is_real(chi)
            n = len(chi)
            assert mat_eq(mat_mul(mat_adjoint(chi), chi), identity(n))

    def test_full_table(self):
        report = sign_table_check(8)
        assert report["pass"]
        for k in range(1, 9):
            assert report["entries"][k]["pass"], report["entries"][k]

    def test_table_to_kmax(self):
        report = sign_table_check(KMAX)
        assert report["pass"]
        assert sorted(report["entries"]) == list(range(1, KMAX + 1))
        for k in range(1, KMAX + 1):
            assert report["entries"][k]["pass"], report["entries"][k]

    def test_gammas_are_built_once_per_k(self, monkeypatch, tmp_path):
        # the clifford command and the k-graph reality entry read omega_C^2
        # from the reality pass, so each k builds and checks its gammas once
        built = []

        def counted(k, gens):
            built.append(k)
            return _check_generators(k, gens)
        monkeypatch.setattr(clifford, "_check_generators", counted)
        assert run(["clifford", "--kmax", "5",
                    "--out", str(tmp_path / "c.json")]) == 0
        assert built == [1, 2, 3, 4, 5]
        del built[:]
        report = evaluate_all(torus_2graph(), level=1)
        assert report.entries["reality"].witness["omega_sq"] == "-1"
        assert built == [2]
        assert sign_table_check(3)["omega_squares"] == {
            k: volume_form(k)["omega_sq_scalar"] for k in (1, 2, 3)}

    @pytest.mark.parametrize("kmax", [0, -2, KMAX + 1])
    def test_kmax_out_of_range(self, kmax):
        with pytest.raises(ValueError):
            sign_table_check(kmax)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_bott_periodicity(self, k):
        # the KO-dimension signs and omega_C^2 depend on k mod 8 only
        low, high = reality_operator(k), reality_operator(k + 8)
        assert ((low.eps, low.eps_prime, low.eps_dprime)
                == (high.eps, high.eps_prime, high.eps_dprime)
                == SIGN_TABLE[k % 8])
        assert low.degree_reversal_sign == high.degree_reversal_sign
        low_sq = volume_form(k)["omega_sq_scalar"]
        assert low_sq is not None
        assert low_sq == volume_form(k + 8)["omega_sq_scalar"]
        assert (low_sq == ONE) == (k % 2 == 1)

    def test_mutated_chi_flips_a_sign(self):
        # dropping a factor from chi must break the degree-reversal identity
        # in at least one direction
        k = 4
        gens = [to_dense(g) for g in generators(k)]
        mutated_chi = gens[1]  # gamma^2 alone instead of gamma^2 gamma^4
        reversal = (-1) ** (((k + 1) // 2) * (k + 2))
        i = GaussianRational(0, 1)
        broken = False
        for g in gens:
            d_n = mat_scale(i, g)
            lhs = mat_mul(
                mat_mul(mutated_chi, mat_conj(d_n)), mat_adjoint(mutated_chi)
            )
            rhs = mat_scale(GaussianRational(reversal), mat_neg(d_n))
            if not mat_eq(lhs, rhs):
                broken = True
        assert broken

    @pytest.mark.parametrize("k", [2, 4, 5, 6, 8, 12])
    def test_degree_reversal_check_fails_without_a_chi_factor(self, k, monkeypatch):
        # chi = gamma^2 gamma^4 ... with its last factor dropped
        gens = generators(k)
        real = reality_operator
        mutated = Pauli.identity(gens[0].qubits)
        for g in gens[1::2][:-1]:
            mutated = mutated @ g
        monkeypatch.setattr(clifford, "reality_operator",
                            lambda kk: replace(real(kk), chi=mutated))
        vectors = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
        assert not degree_reversal_check(k, vectors)
        monkeypatch.undo()
        assert degree_reversal_check(k, vectors)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_degree_reversal_exhaustive_window(self, k):
        vectors = list(itertools.product(range(-3, 4), repeat=k))
        assert degree_reversal_check(k, vectors)

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
    def test_degree_reversal_sampled(self, k):
        base = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
        sample = [
            tuple((3 * j + i) % 7 - 3 for i in range(k)) for j in range(12)
        ]
        assert degree_reversal_check(k, base + sample)

    @pytest.mark.parametrize("k", range(9, KMAX + 1))
    def test_degree_reversal_beyond_eight(self, k):
        assert degree_reversal_check(k, [(1,) * k])


class TestWork:
    """The Clifford work is polynomial in k: every operator is a Pauli string
    on floor(k/2) factors, never a 2^floor(k/2)-row array."""

    @pytest.mark.parametrize("k", range(1, KMAX + 1))
    def test_every_operator_is_a_string_on_k_over_2_factors(self, k):
        gens = generators(k)
        data, vf = reality_operator(k), volume_form(k, gens)
        ops = gens + [data.chi, vf["omega"]]
        if k % 2 == 0:
            ops.append(vf["grading"])
        for op in ops:
            assert type(op) is Pauli
            assert op.qubits == k // 2
            assert 0 <= op.x < 2 ** (k // 2) and 0 <= op.z < 2 ** (k // 2)
            assert 0 <= op.phase < 4

    def test_sign_table_is_the_cli_report(self, capsys):
        # the report that `test_cli` reads for two Bott periods
        assert run(["clifford", "--kmax", str(KMAX), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        report = sign_table_check(KMAX)
        assert doc == {
            "pass": report["pass"],
            "table": {str(k): e for k, e in report["entries"].items()},
            "omega_squares": {str(k): str(sq)
                              for k, sq in report["omega_squares"].items()},
        }
        assert report["pass"]
        assert sorted(report["entries"]) == list(range(1, KMAX + 1))


class TestSerialization:
    def test_matrix_roundtrip(self):
        for k in (1, 2, 4):
            for g in map(to_dense, generators(k)):
                doc = matrix_to_json(g)
                assert mat_eq(matrix_from_json(doc), g)
                assert all(isinstance(cell, str) for row in doc for cell in row)


class TestWordAlgebra:
    def test_square_is_minus_one(self):
        assert word_product((1,), (1,)) == (Fraction(-1), ())

    def test_anticommutation_sign(self):
        s1, w1 = word_product((2,), (1,))
        assert w1 == (1, 2) and s1 == -1
        s2, w2 = word_product((1,), (2,))
        assert w2 == (1, 2) and s2 == 1

    def test_matches_matrices(self):
        gens = generators(3)
        for w1 in [(1,), (2,), (1, 3), (1, 2, 3)]:
            for w2 in [(2,), (3,), (2, 3)]:
                sign, word = word_product(w1, w2)
                lhs = mat_mul(to_dense(word_to_matrix(w1, gens)),
                              to_dense(word_to_matrix(w2, gens)))
                rhs = mat_scale(GaussianRational(sign),
                                to_dense(word_to_matrix(word, gens)))
                assert mat_eq(lhs, rhs)

    @pytest.mark.parametrize("k,expected", [(1, 2), (2, 4), (3, 8), (4, 16)])
    def test_span_dimension(self, k, expected):
        words = [(j,) for j in range(1, k + 1)]
        assert word_span_dimension(words) == expected
