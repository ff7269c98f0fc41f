"""Symbol matrices for Brauer classes ramified along coordinate divisors.

A class of torsion r presented by tame symbols (x_i, x_j) is stored as an
alternating matrix M over Z/r: M[i][j] holds the exponent with which the
symbol pairs slot i against slot j, and M[j][i] = -M[i][j]. The order of
a residue, the degree of the cyclic cover it induces, is read here
(``residue_order``): along slot s the residue is the class of
prod_{j != s} x_j^{M[s][j]}, of order r/gcd(r, M[s]) since M[s][s] = 0.
Blown-up charts keep the root's matrix: the residue along a divisor with
root valuation v is x^(v M), of order r/gcd(r, v M).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Tuple


@dataclass(frozen=True)
class SymbolMatrix:
    """Alternating matrix over Z/r presenting a symbol class.

    Entries are normalized into [0, r); alternation therefore reads
    M[i][j] + M[j][i] == 0 (mod r) with a zero diagonal.
    """

    r: int
    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.r < 2:
            raise ValueError("torsion must be at least 2")
        n = len(self.entries)
        rows = tuple(tuple(int(v) % self.r for v in row) for row in self.entries)
        if any(len(row) != n for row in rows):
            raise ValueError("symbol matrix must be square")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_symbols(cls, r: int, dim: int,
                     symbols: Iterable[Tuple[int, int, int]]) -> "SymbolMatrix":
        """Accumulate (i, j, m) terms: m symbols pairing slot i with slot j."""
        rows = [[0] * dim for _ in range(dim)]
        for i, j, m in symbols:
            if i == j:
                raise ValueError("a symbol needs two distinct slots")
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError("symbol slot out of range")
            rows[i][j] = (rows[i][j] + m) % r
            rows[j][i] = (rows[j][i] - m) % r
        return cls(r, tuple(tuple(row) for row in rows))

    @property
    def dim(self) -> int:
        return len(self.entries)


def residue_order(r: int, exponents: Iterable[int]) -> int:
    """Order in k*/(k*)^r of the class of a monomial with these exponents."""
    return r // gcd(r, *exponents)


def check_complex(matrix: SymbolMatrix) -> Tuple[Tuple[int, ...], ...]:
    """Audit that the matrix is alternating: the strata where it is not.

    A slot i is violated by a nonzero diagonal entry and a codimension-2
    stratum {i, j} by M[i][j] + M[j][i] != 0 (mod r); diagonal slots come
    first, then pairs i < j. Violations are returned, not raised, so callers
    can surface exactly which strata break the residue bookkeeping; the
    matrix is alternating when there are none.
    """
    rows, r, n = matrix.entries, matrix.r, matrix.dim
    return (tuple((i,) for i in range(n) if rows[i][i])
            + tuple((i, j) for i in range(n) for j in range(i + 1, n)
                    if (rows[i][j] + rows[j][i]) % r))
