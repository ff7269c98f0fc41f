"""Boundary divisors and the two discrepancy formulas.

The boundary of a pair assigns each coordinate divisor the coefficient
1 - 1/e for its cover degree e. Blowing up a stratum of codimension c then
gives two numbers for the new divisor: the classical discrepancy
a = c - 1 - sum of boundary coefficients over the center, and the cover
discrepancy b = c - 1/e - that same sum, where e is the degree on the new
divisor. The two are linked by b = a + 1 - 1/e; reports compute b by the
direct formula and validate the identity on construction, so the routes
stay independent and cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple

from .charts import Stratum, multiplicity, strata
from .model import CenterLike, CoverDegree, IndeterminateDegreeError, Model


@dataclass(frozen=True)
class BoundaryDivisor:
    """Boundary coefficients of one chart, keyed by divisor id."""

    coefficients: Tuple[Tuple[str, Fraction], ...]

    def coefficient(self, divisor_id: str) -> Fraction:
        for key, value in self.coefficients:
            if key == divisor_id:
                return value
        return Fraction(0)


@dataclass(frozen=True)
class ReportEntry:
    """One candidate degree with its discrepancy and weighted discrepancy."""

    e: int
    b: Fraction
    weighted: Fraction

    def __post_init__(self) -> None:
        if self.e < 1:
            raise ValueError("cover degrees are positive")
        if self.weighted != self.e * self.b:
            raise ValueError("weighted discrepancy must equal e * b")


@dataclass(frozen=True)
class WitnessStep:
    """One blow-up along a route: which chart, which stratum."""

    chart_id: str
    indices: Tuple[int, ...]
    center: Tuple[str, ...]


@dataclass(frozen=True)
class DiscrepancyReport:
    """Discrepancy data of one extracted divisor against a base pair.

    ``a`` is the classical discrepancy, which never depends on cover
    degrees. ``entries`` holds one row per candidate degree; construction
    enforces b = a + 1 - 1/e on every row, so a report built from the direct
    formula for b doubles as a consistency proof of the identity.
    """

    divisor_id: str
    level: int
    witness: Tuple[WitnessStep, ...]
    a: Fraction
    degree: CoverDegree
    entries: Tuple[ReportEntry, ...]

    def __post_init__(self) -> None:
        if tuple(entry.e for entry in self.entries) != self.degree.candidates:
            raise ValueError("report entries must follow the candidate degrees")
        for entry in self.entries:
            if entry.b != b_from_a(self.a, entry.e):
                raise ValueError(
                    f"entry for e={entry.e} breaks b = a + 1 - 1/e: "
                    f"b={entry.b}, a={self.a}"
                )

    @classmethod
    def from_degree(cls, divisor_id: str, level: int,
                    witness: Tuple[WitnessStep, ...], a: Fraction,
                    degree: CoverDegree) -> "DiscrepancyReport":
        entries = tuple(
            ReportEntry(e=e, b=b, weighted=e * b)
            for e, b in ((e, b_from_a(a, e)) for e in degree.candidates)
        )
        return cls(divisor_id=divisor_id, level=level, witness=witness,
                   a=Fraction(a), degree=degree, entries=entries)

    @property
    def determinate(self) -> bool:
        return self.degree.determinate

    def worst_weighted(self) -> Fraction:
        return min(entry.weighted for entry in self.entries)


def boundary_divisor(model: Model) -> BoundaryDivisor:
    """Boundary of the pair on the model's chart.

    Raises:
        IndeterminateDegreeError: listing every divisor of the chart whose
            cover degree is undetermined.
    """
    blocked = []
    coefficients = []
    for slot, divisor_id in enumerate(model.chart.divisor_ids):
        degree = model.cover_on(slot)
        if not degree.determinate:
            blocked.append(divisor_id)
            continue
        e = degree.value
        coefficients.append((divisor_id, Fraction(e - 1, e)))
    if blocked:
        raise IndeterminateDegreeError(blocked)
    return BoundaryDivisor(coefficients=tuple(coefficients))


def _load(model: Model, stratum: Stratum,
          boundary: BoundaryDivisor) -> Fraction:
    """Sum of boundary multiplicities over the center."""
    return sum(
        (boundary.coefficient(divisor_id) * multiplicity(stratum, divisor_id)
         for divisor_id in model.chart.divisor_ids),
        Fraction(0),
    )


def classical_discrepancy(model: Model, center: CenterLike) -> Fraction:
    """Discrepancy a = c - 1 - sum of boundary multiplicities over the center."""
    stratum = model.stratum(center)
    return Fraction(stratum.codim - 1) - _load(model, stratum,
                                               boundary_divisor(model))


def b_from_a(a: Fraction, e: int) -> Fraction:
    """Translate a classical discrepancy into a cover discrepancy."""
    if e < 1:
        raise ValueError("cover degrees are positive")
    return Fraction(a) + 1 - Fraction(1, e)


def brauer_discrepancy(model: Model, center: CenterLike) -> DiscrepancyReport:
    """One-step cover discrepancy of the divisor extracted by one blow-up.

    Computes b = c - 1/e - sum of boundary multiplicities directly, one row
    per candidate e; report construction then checks the rows against
    a + 1 - 1/e with a = c - 1 - the same sum, which is read once.
    """
    return _one_step(model, model.stratum(center), boundary_divisor(model))


def stratum_discrepancies(model: Model) -> Tuple[DiscrepancyReport, ...]:
    """``brauer_discrepancy`` of every coordinate stratum, codimension 2 up.

    The boundary is read once for all strata.
    """
    boundary = boundary_divisor(model)
    return tuple(_one_step(model, stratum, boundary)
                 for codim in range(2, model.dim + 1)
                 for stratum in strata(model.chart, codim))


def _one_step(model: Model, stratum: Stratum,
              boundary: BoundaryDivisor) -> DiscrepancyReport:
    """``brauer_discrepancy`` against a boundary the caller has read."""
    load = _load(model, stratum, boundary)
    exceptional_id, degree = model.exceptional_cover(stratum)
    entries = tuple(
        ReportEntry(
            e=e,
            b=Fraction(stratum.codim) - Fraction(1, e) - load,
            weighted=e * (Fraction(stratum.codim) - Fraction(1, e) - load),
        )
        for e in degree.candidates
    )
    step = WitnessStep(chart_id=model.chart.chart_id, indices=stratum.indices,
                       center=stratum.divisor_ids)
    return DiscrepancyReport(
        divisor_id=exceptional_id,
        level=1,
        witness=(step,),
        a=Fraction(stratum.codim - 1) - load,
        degree=degree,
        entries=entries,
    )


def weighted_infimum(reports: Iterable[DiscrepancyReport]) -> Fraction:
    """Infimum of e * b over all entries of all reports.

    Indeterminate divisors contribute every candidate row, so the value is
    the worst case over the possibilities.

    Raises:
        ValueError: on an empty collection.
    """
    values = [entry.weighted for report in reports for entry in report.entries]
    if not values:
        raise ValueError("no reports to take an infimum over")
    return min(values)
