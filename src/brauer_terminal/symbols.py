"""Symbol matrices for Brauer classes ramified along coordinate divisors.

A class of torsion r presented by tame symbols (x_i, x_j) is stored as an
alternating matrix M over Z/r: M[i][j] holds the exponent with which the
symbol pairs slot i against slot j, and M[j][i] = -M[i][j]. Residues along
divisors and their orders, the degrees of the cyclic covers they induce,
live here. Blown-up charts keep the root's matrix: the residue along a
divisor with root valuation v is x^(v M), so its order is r/gcd(r, v M)
(``residue_order``).
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
    def zero(cls, r: int, dim: int) -> "SymbolMatrix":
        return cls(r, tuple((0,) * dim for _ in range(dim)))

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

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i]


def residue_order(r: int, exponents: Iterable[int]) -> int:
    """Order in k*/(k*)^r of the class of a monomial with these exponents."""
    return r // gcd(r, *exponents)


@dataclass(frozen=True)
class KummerClass:
    """Residue of a symbol class along a divisor: a class in k*/(k*)^r.

    ``exponents`` are the powers of the remaining coordinates, taken mod r.
    """

    r: int
    exponents: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "exponents", tuple(int(e) % self.r for e in self.exponents)
        )

    @property
    def order(self) -> int:
        """Order of the class, i.e. degree of the cyclic cover it defines."""
        return residue_order(self.r, self.exponents)


@dataclass(frozen=True)
class ComplexCheck:
    """Outcome of the alternation audit of a symbol matrix."""

    ok: bool
    verified: Tuple[Tuple[int, ...], ...]
    violations: Tuple[Tuple[int, ...], ...]


def residue(matrix: SymbolMatrix, slot: int) -> KummerClass:
    """Residue of the class along the divisor bound to ``slot``.

    Reads row ``slot`` of the matrix: the residue is the class of
    prod_{j != slot} x_j^{M[slot][j]} in k*/(k*)^r on the divisor.
    """
    if not (0 <= slot < matrix.dim):
        raise ValueError("residue slot out of range")
    row = matrix.row(slot)
    return KummerClass(matrix.r, tuple(v for j, v in enumerate(row) if j != slot))


def ramifies_on(matrix: SymbolMatrix, i: int, j: int) -> bool:
    """Whether the residue along slot i involves the coordinate at slot j."""
    if i == j:
        raise ValueError("ramification needs two distinct slots")
    if not (0 <= i < matrix.dim and 0 <= j < matrix.dim):
        raise ValueError("slot out of range")
    return matrix.entry(i, j) % matrix.r != 0


def check_complex(matrix: SymbolMatrix) -> ComplexCheck:
    """Audit that the matrix is alternating, pair by pair.

    Each codimension-2 stratum {i, j} is verified via
    M[i][j] + M[j][i] == 0 (mod r); each slot i is verified via a zero
    diagonal entry. Violations are reported, not raised, so callers can
    surface exactly which strata break the residue bookkeeping.
    """
    verified = []
    violations = []
    n = matrix.dim
    for i in range(n):
        target = verified if matrix.entry(i, i) % matrix.r == 0 else violations
        target.append((i,))
    for i in range(n):
        for j in range(i + 1, n):
            bad = (matrix.entry(i, j) + matrix.entry(j, i)) % matrix.r != 0
            (violations if bad else verified).append((i, j))
    return ComplexCheck(
        ok=not violations,
        verified=tuple(verified),
        violations=tuple(violations),
    )
