"""Independent reference implementations used to pin expected test values.

Nothing here imports the engine's internals beyond plain data. The symbol
oracle expands tame symbols from explicit exponent-vector pairs, the toric
oracle computes discrepancies straight from valuation vectors, the residue
order oracle reads cover orders off valuation vectors, the step matrix of a
blow-up chart is rebuilt from its center and pivot, and the determinant is
exact over Fractions, and the certificate summary is read pass by pass
with Fraction operators. Tests compare the package against these; the two
sides share no code paths.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

Vec = Tuple[int, ...]
Symbol = Tuple[Vec, Vec, int]


def naive_matrix(dim: int, r: int, symbols: Sequence[Symbol]) -> List[List[int]]:
    """Matrix of a symbol list: sum of m * (u (x) v - v (x) u), mod r."""
    out = [[0] * dim for _ in range(dim)]
    for u, v, m in symbols:
        for i in range(dim):
            for j in range(dim):
                out[i][j] = (out[i][j] + m * (u[i] * v[j] - v[i] * u[j])) % r
    return out


def naive_residue(dim: int, r: int, symbols: Sequence[Symbol],
                  slot: int) -> Tuple[int, ...]:
    """Residue along a coordinate divisor, expanded symbol by symbol.

    The residue of m copies of (x^u, x^v) along slot i is the class of
    x^(m * (u_i v - v_i u)) with slot i removed.
    """
    acc = [0] * dim
    for u, v, m in symbols:
        for j in range(dim):
            acc[j] = (acc[j] + m * (u[slot] * v[j] - v[slot] * u[j])) % r
    return tuple(value for j, value in enumerate(acc) if j != slot)


def substitute_symbols(symbols: Sequence[Symbol],
                       matrix: Sequence[Sequence[int]]) -> List[Symbol]:
    """Pull every symbol argument through an exponent substitution."""

    def image(vec: Vec) -> Vec:
        return tuple(
            sum(row[k] * vec[k] for k in range(len(vec))) for row in matrix
        )

    return [(image(u), image(v), m) for u, v, m in symbols]


def toric_discrepancy(valuation: Sequence[int],
                      boundary: Sequence[Fraction]) -> Fraction:
    """Discrepancy of the monomial valuation v against a coordinate boundary.

    For the pair (affine space, sum of d_k D_k) this is
    sum_k v_k (1 - d_k) - 1.
    """
    total = sum(
        (Fraction(v) * (1 - Fraction(d)) for v, d in zip(valuation, boundary)),
        Fraction(0),
    )
    return total - 1


def monomial_order(valuation: Sequence[int], lift: Sequence[Sequence[int]],
                   r: int) -> int:
    """Order of the symbol part of the residue along the divisor E_v.

    Along E_v the residue of the root class is the class of x^(M v) in
    k*/(k*)^r, where M is the root's signed lift (any integer matrix
    congruent to it mod r gives the same order), so the order is
    r / gcd(r, M v).
    """
    image = [sum(m * v for m, v in zip(row, valuation)) for row in lift]
    return r // gcd(r, *image)


def step_matrix(chart) -> List[List[int]]:
    """Substitution from a chart's parent into it, from its center and pivot.

    Parent coordinate k pulls back to the monomial with exponent column k:
    the pivot coordinate becomes the exceptional coordinate t, every other
    center coordinate x_l becomes t * y_l, and the rest stay put. So the
    matrix is the identity with the pivot row replaced by the indicator of
    the center.
    """
    n = chart.dim
    matrix = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    matrix[chart.pivot] = [1 if k in chart.parent_center else 0
                           for k in range(n)]
    return matrix


def determinant(matrix: Sequence[Sequence[int]]) -> Fraction:
    """Exact determinant by Laplace expansion; fine for the small dims here."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(matrix[0][0])
    total = Fraction(0)
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [
            [row[k] for k in range(n) if k != j] for row in matrix[1:]
        ]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(matrix[0][j]) * determinant(minor)
    return total


def certify_summary(reports: Sequence, side_checks: Sequence, complete: bool,
                    bad_strata: Sequence, torsion: int, fixup: bool) -> dict:
    """The summary ``certify`` reads off an enumeration, one pass per number.

    This is the multi-pass reading the engine used before it took one loop:
    the least weighted discrepancy e * b with the first divisor attaining
    it, level-one positivity (level = route length), the b >= 0 side
    conditions with their failure lines, and the verdict. It reads only the
    reports' and side checks' plain fields and compares with Fraction
    operators.
    """
    entries = [(entry, report) for report in reports
               for entry in report.entries]
    min_weighted = min((e.weighted for e, _ in entries), default=None)
    min_witness: Optional[str] = None
    if min_weighted is not None:
        for entry, report in entries:
            if entry.weighted == min_weighted:
                min_witness = report.divisor_id
                break
    level1 = [r for r in reports if len(r.witness) == 1]
    level1_positive = all(
        entry.weighted > 0 for r in level1 for entry in r.entries
    )
    failures: List[str] = []
    level1_b = all(entry.b >= 0 for r in level1 for entry in r.entries)
    if not level1_b:
        failures.append("level-1 b < 0")
    exc_b = all(entry.b >= 0 for r in reports for entry in r.entries)
    for report in reports:
        worst = min(entry.b for entry in report.entries)
        if worst < 0:
            failures.append(f"b({report.divisor_id},X) = {worst}")
    one_step_ok = True
    for check in side_checks:
        if check.value is not None and check.value < 0:
            one_step_ok = False
            failures.append(
                f"a({check.divisor_id},{check.chart_id},Delta) = {check.value}"
            )
    determinate_bad = any(
        len(report.degree.candidates) == 1 and entry.weighted <= 0
        for report in reports for entry in report.entries
    )
    fixup_applied = torsion == 2 and fixup and bool(bad_strata)
    unfixed_bad = bool(bad_strata) and not fixup_applied and torsion == 2 \
        and not fixup
    if determinate_bad or unfixed_bad:
        verdict = "bad-stratum-found"
    elif not complete or min_weighted is None or min_weighted <= 0:
        verdict = "indeterminate"
    else:
        verdict = "terminal-certified"
    return {
        "min_weighted": min_weighted,
        "min_witness": min_witness,
        "level1_terminal": level1_positive,
        "level1_b_nonnegative": level1_b,
        "exceptional_b_nonnegative": exc_b,
        "one_step_a_nonnegative": one_step_ok,
        "failures": tuple(failures),
        "verdict": verdict,
    }
