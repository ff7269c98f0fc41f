"""Independent reference implementations used to pin expected test values.

Nothing here imports the engine's internals beyond plain data, the rule
that combines a degree from its parts (``_combined_degree``) and the
report types. The symbol oracle expands tame symbols from explicit
exponent-vector pairs, the toric oracle computes discrepancies straight
from valuation vectors, the residue order oracle reads cover orders off
valuation vectors, the step matrix of a blow-up chart is rebuilt from its
center and pivot, the determinant is exact over Fractions, and the
certificate summary is read pass by pass with Fraction operators. A
``report`` line of ``--out`` is the generic canonical encoder applied to
the report's dict (``report_line``).

The reference blow-up (``blow_up``) keeps a chart the way the engine did
before its charts became root-valuation rows: every chart carries its
total substitution, the class pushed through it (``transform``, A M A^T
by generic matrix products) and each extra cover's vector pushed through
it (``apply_substitution``), and reads residues and exposures off those.
Tests compare the engine's row reading with these; the two sides share no
code paths. A moved class is the reference's own record (``SymbolClass``,
the torsion and the reduced entries), so nothing here runs ``Model``'s
checks on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, NamedTuple, Optional, Sequence, Tuple

from brauer_terminal.model import CoverDegree, _combined_degree

Vec = Tuple[int, ...]
Matrix = Tuple[Vec, ...]
Symbol = Tuple[Vec, Vec, int]


class SymbolClass(NamedTuple):
    """A class of torsion ``r`` as its matrix over Z/r, entries in [0, r)."""

    r: int
    entries: Matrix

    @classmethod
    def of(cls, model) -> "SymbolClass":
        """The root class of an engine model, from its plain data."""
        return cls(model.torsion, model.matrix)


def naive_matrix(dim: int, r: int, symbols: Sequence[Symbol]) -> List[List[int]]:
    """Matrix of a symbol list: sum of m * (u (x) v - v (x) u), mod r."""
    out = [[0] * dim for _ in range(dim)]
    for u, v, m in symbols:
        for i in range(dim):
            for j in range(dim):
                out[i][j] = (out[i][j] + m * (u[i] * v[j] - v[i] * u[j])) % r
    return out


def accumulate_symbols(torsion: int, symbols: Sequence[Tuple[int, int, int]]
                       ) -> Tuple[Tuple[int, int, int], ...]:
    """Canonical (i, j, m) symbols, i < j and 0 < m < torsion, summed pair
    by pair in a dict: (j, i, m) counts as (i, j, -m), self-pairs drop."""
    acc = {}
    for i, j, m in symbols:
        if i == j:
            continue
        key, sign = ((i, j), 1) if i < j else ((j, i), -1)
        acc[key] = (acc.get(key, 0) + sign * m) % torsion
    return tuple((i, j, m) for (i, j), m in sorted(acc.items()) if m != 0)


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


def compose_substitutions(outer: Sequence[Sequence[int]],
                          inner: Sequence[Sequence[int]]) -> Matrix:
    """Matrix product outer @ inner over the integers."""
    n = len(outer)
    if any(len(row) != len(inner) for row in outer):
        raise ValueError("substitution shapes do not compose")
    cols = range(len(inner[0]) if inner else 0)
    return tuple(
        tuple(sum(outer[i][k] * inner[k][j] for k in range(len(inner)))
              for j in cols)
        for i in range(n)
    )


def apply_substitution(matrix: Sequence[Sequence[int]],
                       vector: Sequence[int]) -> Vec:
    """Image A @ v of an exponent vector under a substitution."""
    if any(len(row) != len(vector) for row in matrix):
        raise ValueError("substitution does not match vector length")
    return tuple(sum(row[k] * vector[k] for k in range(len(vector)))
                 for row in matrix)


def transpose(matrix: Sequence[Sequence[int]]) -> Matrix:
    return tuple(zip(*[tuple(row) for row in matrix])) if matrix else ()


def signed_lift(matrix: SymbolClass) -> Matrix:
    """Antisymmetric integer lift: upper triangle in [0, r), lower negated."""
    n = len(matrix.entries)
    lift = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lift[i][j] = matrix.entries[i][j] % matrix.r
            lift[j][i] = -lift[i][j]
    return tuple(tuple(row) for row in lift)


def transform(matrix: SymbolClass,
              substitution: Sequence[Sequence[int]]) -> SymbolClass:
    """Push a symbol matrix through a substitution.

    Symbols are bilinear in the exponent vectors of their arguments, and
    exponent vectors move by v -> A @ v, so the matrix of the transported
    class is A @ M~ @ A^T reduced mod r, where M~ is the antisymmetric
    integer lift of M.
    """
    half = tuple(apply_substitution(substitution, col)
                 for col in transpose(signed_lift(matrix)))
    moved = tuple(apply_substitution(substitution, row)
                  for row in transpose(half))
    return SymbolClass(matrix.r, tuple(tuple(v % matrix.r for v in row)
                                       for row in moved))


@dataclass(frozen=True)
class Extra:
    """An extra cover pushed into a chart: ``vector`` holds, mod
    ``modulus``, each coordinate's multiplicity in the pullback of the
    origin divisor's equation; ``exact_on`` the divisors on which the
    restricted degree is exact."""

    origin_id: str
    degree: int
    modulus: int
    vector: Vec
    exact_on: frozenset

    @classmethod
    def at_origin(cls, origin_id: str, degree: int, slot: int, dim: int,
                  torsion: int) -> "Extra":
        return cls(origin_id, degree, lcm(torsion, degree),
                   tuple(int(k == slot) for k in range(dim)),
                   frozenset({origin_id}))

    def transported(self, substitution: Sequence[Sequence[int]],
                    center: Sequence[int], parent_ids: Sequence[str],
                    exceptional_id: str) -> "Extra":
        """The cover in the child with step matrix ``substitution``. The
        new divisor becomes exact exactly when its exposure is nonzero and
        every slot feeding that exposure is the origin divisor itself."""
        exposure = sum(self.vector[k] for k in center)
        feeders = [k for k in center if self.vector[k] % self.degree]
        exact = self.exact_on
        if exposure % self.degree and all(
                parent_ids[k] == self.origin_id for k in feeders):
            exact = exact | {exceptional_id}
        vector = tuple(v % self.modulus
                       for v in apply_substitution(substitution,
                                                   self.vector))
        return Extra(self.origin_id, self.degree, self.modulus, vector,
                     exact)

    def effective_order(self, slot: int) -> int:
        """Degree of this cover's restriction over the slot's divisor."""
        return self.degree // gcd(self.degree, self.vector[slot])


@dataclass(frozen=True, eq=False)
class RefChart:
    """A chart of the reference blow-up, with the class and the extra
    covers in its own coordinates."""

    divisor_ids: Tuple[str, ...]
    total_substitution: Matrix
    matrix: SymbolClass
    extras: Tuple[Extra, ...]
    chart_id: str = "r"
    parent: Optional["RefChart"] = None
    parent_center: Optional[Tuple[int, ...]] = None
    pivot: Optional[int] = None

    @property
    def dim(self) -> int:
        return len(self.divisor_ids)

    @property
    def torsion(self) -> int:
        return self.matrix.r


def root_chart(model) -> RefChart:
    """The reference root chart of an engine model, from its plain data."""
    n, ids = model.dim, tuple(model.labels)
    return RefChart(ids, tuple(tuple(int(i == j) for j in range(n))
                            for i in range(n)),
                 SymbolClass.of(model),
                 tuple(Extra.at_origin(c.origin_id, c.degree,
                                       ids.index(c.origin_id), n,
                                       model.torsion)
                       for c in model.extras))


def blow_up(chart: RefChart, center: Sequence[int]) -> List[RefChart]:
    """The charts of the blow-up of ``center`` (slots), by pivot.

    Each child's total substitution, matrix and extra vectors are its
    parent's times the step matrix, by the generic products above.
    """
    center = tuple(sorted(center))
    valuation = tuple(map(sum, zip(*(chart.total_substitution[i]
                                     for i in center))))
    exceptional_id = f"E({','.join(map(str, valuation))})"
    stem = ".".join((chart.chart_id, "-".join(str(i + 1) for i in center)))
    charts = []
    for pivot in center:
        substitution = [[int(i == j) for j in range(chart.dim)]
                        for i in range(chart.dim)]
        substitution[pivot] = [int(k in center) for k in range(chart.dim)]
        charts.append(RefChart(
            divisor_ids=tuple(exceptional_id if k == pivot else d
                              for k, d in enumerate(chart.divisor_ids)),
            total_substitution=compose_substitutions(
                substitution, chart.total_substitution),
            matrix=transform(chart.matrix, substitution),
            extras=tuple(e.transported(substitution, center,
                                       chart.divisor_ids, exceptional_id)
                         for e in chart.extras),
            chart_id=f"{stem}p{pivot + 1}", parent=chart,
            parent_center=center, pivot=pivot))
    return charts


def cover_on(chart: RefChart, slot: int) -> CoverDegree:
    """Cover degree over a slot's divisor, read off the chart's matrix row
    and extra vectors."""
    r = chart.torsion
    residue = [v for k, v in enumerate(chart.matrix.entries[slot])
               if k != slot]
    return _combined_degree(
        r, r // gcd(r, *residue),
        [(e.origin_id, e.effective_order(slot),
          chart.divisor_ids[slot] in e.exact_on)
         for e in chart.extras if e.effective_order(slot) > 1])


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


CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def report_json(report) -> dict:
    """The dict of a report's ``report`` line: every field of the report,
    rationals as [numerator, denominator] pairs."""
    def frac(value: Fraction) -> List[int]:
        return [value.numerator, value.denominator]

    return {
        "type": "report",
        "divisor": report.divisor_id,
        "level": report.level,
        "witness": [{"chart": stage.chart_id, "center": list(stage.center)}
                    for stage in report.witness],
        "a": frac(report.a),
        "monomial_order": report.degree.monomial_order,
        "candidates": list(report.degree.candidates),
        "determinate": report.degree.determinate,
        "entries": [
            {"e": entry.e, "b": frac(entry.b),
             "weighted": frac(entry.weighted)}
            for entry in report.entries
        ],
    }


def report_line(report) -> str:
    """A report's ``report`` line through the generic canonical encoder."""
    return CANONICAL.encode(report_json(report))
