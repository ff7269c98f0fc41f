"""Symbol matrices for Brauer classes ramified along coordinate divisors.

A class of torsion r presented by tame symbols (x_i, x_j) is stored as an
alternating matrix M over Z/r: M[i][j] holds the exponent with which the
symbol pairs slot i against slot j, and M[j][i] = -M[i][j]. Residues along
divisors, induced cyclic cover degrees, and the pushforward of the matrix
through a blow-up substitution all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence, Tuple

from .charts import apply_substitution, transpose


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

    def signed_lift(self) -> Tuple[Tuple[int, ...], ...]:
        """Antisymmetric integer lift: upper triangle in [0, r), lower negated."""
        n = self.dim
        lift = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = self.entries[i][j] % self.r
                lift[i][j] = v
                lift[j][i] = -v
        return tuple(tuple(row) for row in lift)


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
        return self.r // gcd(self.r, *self.exponents) if self.exponents \
            else self.r // self.r

    @property
    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)


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


def transform(matrix: SymbolMatrix,
              substitution: Sequence[Sequence[int]]) -> SymbolMatrix:
    """Push a symbol matrix through a blow-up substitution.

    Symbols are bilinear in the exponent vectors of their arguments, and
    exponent vectors move by v -> A @ v, so the matrix of the transported
    class is A @ M~ @ A^T reduced mod r, where M~ is the antisymmetric
    integer lift of M. The result is alternating by construction.

    This is the generic product for any substitution. Blow-ups do not call
    it: their step is a row addition, and ``Model.blow_up`` applies it as
    an O(n^2) row update; the tests check that update against this.
    """
    lift = matrix.signed_lift()
    half = tuple(apply_substitution(substitution, col) for col in transpose(lift))
    moved = tuple(
        apply_substitution(substitution, row) for row in transpose(half)
    )
    return SymbolMatrix(matrix.r, moved)
