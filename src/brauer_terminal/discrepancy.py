"""Boundary divisors and the blow-up step on ``Model`` charts.

The boundary of a pair assigns each coordinate divisor the coefficient
1 - 1/e for its cover degree e. Blowing up a stratum of codimension c
extracts a divisor with classical discrepancy a = c - 1 minus the
coefficients of the center, and cover discrepancy b = a + 1 - 1/e for the
degree e on the new divisor.

``_step`` computes one blow-up step of a ``Model`` chart, telescoping ``a``
against the base through a coefficient row aligned with the chart's slots;
on a base chart that row is the boundary itself, so ``brauer_discrepancy``
is the step at the boundary row. The composition audit runs it along its
route; the enumeration in ``enumeration`` reads the same numbers off
valuation rows instead, and its tests compare it with a walk of this step.
A report builds each number once, on integers: with a = p/q, each
candidate e gets b = ((p + q)e - q)/(qe) and e*b = ((p + q)e - q)/q, one
normalising ``Fraction`` constructor each. Construction checks b = a + 1 -
1/e and e*b = e * b on every entry, also when the constructors are called
directly, by cross-multiplying numerators and denominators. The
independent checks of the numbers are the oracles of the test suite (toric
discrepancy, residue order) and the gate of ``perfbench``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

from .charts import Stratum, strata
from .model import CenterLike, CoverDegree, IndeterminateDegreeError, Model


@dataclass(frozen=True)
class BoundaryDivisor:
    """Boundary coefficients of one chart, keyed by divisor id."""

    coefficients: Tuple[Tuple[str, Fraction], ...]


@dataclass(frozen=True)
class ReportEntry:
    """One candidate degree with its discrepancy and weighted discrepancy."""

    e: int
    b: Fraction
    weighted: Fraction

    def __post_init__(self) -> None:
        if self.e < 1:
            raise ValueError("cover degrees are positive")
        b, weighted = self.b, self.weighted
        if (weighted.numerator * b.denominator
                != self.e * b.numerator * weighted.denominator):
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
    enforces b = a + 1 - 1/e on every row.
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
        p, q = self.a.numerator, self.a.denominator
        for entry in self.entries:
            e, b = entry.e, entry.b
            if b.numerator * q * e != b.denominator * ((p + q) * e - q):
                raise ValueError(
                    f"entry for e={e} breaks b = a + 1 - 1/e: "
                    f"b={b}, a={self.a}"
                )

    @classmethod
    def from_degree(cls, divisor_id: str, level: int,
                    witness: Tuple[WitnessStep, ...], a: Fraction,
                    degree: CoverDegree) -> "DiscrepancyReport":
        if not isinstance(a, Fraction):
            a = Fraction(a)
        p, q = a.numerator, a.denominator
        entries = tuple(
            ReportEntry(e, Fraction(top, q * e), Fraction(top, q))
            for e, top in ((e, (p + q) * e - q) for e in degree.candidates)
        )
        return cls(divisor_id=divisor_id, level=level, witness=witness,
                   a=a, degree=degree, entries=entries)

    @property
    def determinate(self) -> bool:
        return self.degree.determinate

    def worst_weighted(self) -> Fraction:
        return min(entry.weighted for entry in self.entries)


def _boundary_table(model: Model) -> Tuple[Optional[Fraction], ...]:
    """Boundary coefficient 1 - 1/e of each slot, None where e is undetermined."""
    degrees = [model.cover_on(slot) for slot in range(model.dim)]
    return tuple(Fraction(d.value - 1, d.value) if d.determinate else None
                 for d in degrees)


def boundary_divisor(model: Model) -> BoundaryDivisor:
    """Boundary of the pair on the model's chart.

    Raises:
        IndeterminateDegreeError: listing every divisor of the chart whose
            cover degree is undetermined.
    """
    ids = model.chart.divisor_ids
    table = _boundary_table(model)
    blocked = [divisor_id for divisor_id, c in zip(ids, table) if c is None]
    if blocked:
        raise IndeterminateDegreeError(blocked)
    return BoundaryDivisor(coefficients=tuple(zip(ids, table)))


def _base_abar(model: Model) -> Tuple[Fraction, ...]:
    """Coefficient row of a base chart: its boundary, slot by slot."""
    return tuple(c for _, c in boundary_divisor(model).coefficients)


class _Step(NamedTuple):
    divisor_id: str
    a: Fraction
    degree: CoverDegree
    one_step: Optional[Fraction]


def _step(model: Model, stratum: Stratum, abar: Tuple[Fraction, ...],
          boundary: Tuple[Optional[Fraction], ...]) -> _Step:
    """Telescope the divisor a blow-up of one stratum extracts against the base.

    ``abar`` gives each slot of the chart the coefficient its divisor's
    pullback contributes. The new divisor E gets a = c - 1 minus the
    coefficients of the center, and its id and degree are read from
    ``model`` without building the blow-up (``Model.exceptional_cover``).
    ``one_step`` is the discrepancy of the center against the chart's own
    boundary (``boundary``, from ``_boundary_table``), None when an
    undetermined degree blocks it. On a base chart the two rows are one
    (``boundary is abar``), and so are ``a`` and ``one_step``.
    """
    a = stratum.codim - 1 - sum(abar[i] for i in stratum.indices)
    if boundary is abar:
        one_step = a
    else:
        load = [boundary[i] for i in stratum.indices]
        one_step = None if None in load else stratum.codim - 1 - sum(load)
    exceptional_id, degree = model.exceptional_cover(stratum)
    return _Step(exceptional_id, a, degree, one_step)


def _report(step: _Step,
            witness: Tuple[WitnessStep, ...]) -> DiscrepancyReport:
    return DiscrepancyReport.from_degree(
        divisor_id=step.divisor_id, level=len(witness),
        witness=witness, a=step.a, degree=step.degree,
    )


def b_from_a(a: Fraction, e: int) -> Fraction:
    """Translate a classical discrepancy into a cover discrepancy."""
    if e < 1:
        raise ValueError("cover degrees are positive")
    if not isinstance(a, Fraction):
        a = Fraction(a)
    p, q = a.numerator, a.denominator
    return Fraction((p + q) * e - q, q * e)


def brauer_discrepancy(model: Model, center: CenterLike) -> DiscrepancyReport:
    """One-step cover discrepancy of the divisor extracted by one blow-up.

    Raises:
        IndeterminateDegreeError: if a boundary degree of the chart is
            undetermined.
    """
    return _one_step_reports(model, (model.stratum(center),))[0]


def stratum_discrepancies(model: Model) -> Tuple[DiscrepancyReport, ...]:
    """``brauer_discrepancy`` of every coordinate stratum, codimension 2 up.

    The boundary is read once for all strata.
    """
    return _one_step_reports(model, [stratum
                                     for codim in range(2, model.dim + 1)
                                     for stratum in strata(model.chart, codim)])


def _one_step_reports(model: Model, centers: Sequence[Stratum]
                      ) -> Tuple[DiscrepancyReport, ...]:
    """The step of each center at the boundary row, as a level-1 report."""
    row = _base_abar(model)
    chart_id = model.chart.chart_id
    return tuple(
        _report(_step(model, stratum, row, row),
                (WitnessStep(chart_id, stratum.indices, stratum.divisor_ids),))
        for stratum in centers)


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
