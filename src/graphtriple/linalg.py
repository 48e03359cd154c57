"""Exact rational elimination on sparse rows: rank and nullspace bases."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List


class SparseEchelon:
    """Incremental exact row reduction for sparse rows {column: value}.

    Columns are any mutually comparable keys; a row's leading column is its
    least one.  Rows must carry
    nonzero values only.
    """

    def __init__(self):
        self.pivots: Dict[Hashable, Dict[Hashable, Fraction]] = {}

    def insert(self, row: Dict[Hashable, Fraction]) -> None:
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

    def rank(self) -> int:
        return len(self.pivots)

    def nullspace(self, n_cols: int) -> List[Dict[int, Fraction]]:
        """Basis of the right nullspace over int columns 0..n_cols-1: one
        vector per free column f, with 1 at f and 0 at the other free
        columns, in increasing order of f."""
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
