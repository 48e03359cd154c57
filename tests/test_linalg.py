"""The sparse eliminator against a dense Gauss-Jordan oracle."""

from fractions import Fraction
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from graphtriple.linalg import SparseEchelon


def row_echelon(rows: List[List[Fraction]]) -> List[int]:
    """Dense reduced row echelon form in place; returns the pivot columns."""
    if not rows:
        return []
    n_cols = len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def dense_nullspace(rows: List[List[Fraction]], n_cols: int) -> List[List[Fraction]]:
    work = [list(map(Fraction, row)) for row in rows]
    pivots = row_echelon(work)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -work[r][f]
        basis.append(vec)
    return basis


def dense_rank(rows: List[List[Fraction]]) -> int:
    return len(row_echelon([list(map(Fraction, row)) for row in rows]))


def sparse(rows, key=lambda j: j):
    ech = SparseEchelon()
    for row in rows:
        ech.insert({key(j): x for j, x in enumerate(row) if x})
    return ech


entries = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


@st.composite
def matrices(draw):
    n_cols = draw(st.integers(1, 6))
    n_rows = draw(st.integers(0, 7))
    return n_cols, [draw(st.lists(entries, min_size=n_cols, max_size=n_cols))
                    for _ in range(n_rows)]


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_nullspace_and_rank_match_dense_oracle(matrix):
    n_cols, rows = matrix
    ech = sparse(rows)
    got = [[vec.get(j, Fraction(0)) for j in range(n_cols)]
           for vec in ech.nullspace(n_cols)]
    assert got == dense_nullspace(rows, n_cols)
    assert ech.rank() == dense_rank(rows)


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rank_with_tuple_columns(matrix):
    # matrix entries (i, j) as columns, as the commutant probe's span rank
    n_cols, rows = matrix
    ech = sparse(rows, key=lambda j: (j % 2, j))
    assert ech.rank() == dense_rank(rows)


def test_zero_rows_and_empty_matrix():
    ech = sparse([[Fraction(0)] * 3])
    assert ech.rank() == 0
    assert ech.nullspace(3) == [{0: 1}, {1: 1}, {2: 1}]
    assert SparseEchelon().nullspace(0) == []
