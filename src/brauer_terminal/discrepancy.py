"""Boundary divisors and the discrepancy reports of one-step blow-ups.

The boundary of a pair assigns each coordinate divisor the coefficient
1 - 1/e for its cover degree e. Blowing up a stratum of codimension c
extracts a divisor with classical discrepancy a = c - 1 minus the
coefficients of the center, and cover discrepancy b = a + 1 - 1/e for the
degree e on the new divisor.

The numbers come from the charts' one blow-up step (``model._RowWalk``),
which telescopes ``a`` through a coefficient row aligned with the chart's
slots; on a base chart that row is the boundary itself, so
``brauer_discrepancy`` is the step at the boundary row, and the
composition audit and the walks run the same step along their routes.
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
from typing import Iterable, Sequence, Tuple

from .model import (CenterLike, Chart, CoverDegree, PairLike, _centers,
                    _RowStep, _RowWalk, as_chart)


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


def boundary_divisor(pair: PairLike) -> BoundaryDivisor:
    """Boundary of the pair on a chart (a model: its root chart).

    Raises:
        IndeterminateDegreeError: listing every divisor of the chart whose
            cover degree is undetermined.
    """
    chart = as_chart(pair)
    walk = chart.model.walk
    return BoundaryDivisor(coefficients=tuple(zip(
        chart.divisor_ids, map(walk.fraction, walk.base_row(chart)))))


def b_from_a(a: Fraction, e: int) -> Fraction:
    """Translate a classical discrepancy into a cover discrepancy."""
    if e < 1:
        raise ValueError("cover degrees are positive")
    if not isinstance(a, Fraction):
        a = Fraction(a)
    p, q = a.numerator, a.denominator
    return Fraction((p + q) * e - q, q * e)


def brauer_discrepancy(pair: PairLike, center: CenterLike
                       ) -> DiscrepancyReport:
    """One-step cover discrepancy of the divisor extracted by one blow-up.

    Raises:
        ValueError: if the center is no blow-up center of the chart.
        IndeterminateDegreeError: if a boundary degree of the chart is
            undetermined.
    """
    chart = as_chart(pair)
    return _one_step_reports(chart, (chart.stratum(center).indices,))[0]


def stratum_discrepancies(pair: PairLike) -> Tuple[DiscrepancyReport, ...]:
    """``brauer_discrepancy`` of every coordinate stratum, in the engine
    order of centers (``model._centers``).

    The boundary is read once for all strata.
    """
    chart = as_chart(pair)
    return _one_step_reports(chart, _centers(chart.dim))


def _one_step_reports(chart: Chart, centers: Sequence[Tuple[int, ...]]
                      ) -> Tuple[DiscrepancyReport, ...]:
    """The step of each center (sorted slots) at the boundary row, as a
    level-1 report."""
    walk = chart.model.walk
    row = walk.base_row(chart)
    slots = walk.slots(chart)
    reports = []
    for center in centers:
        step = walk.step(chart, slots, center, row)
        reports.append(_report(walk, step, (WitnessStep(
            chart.chart_id, center, step.center),)))
    return tuple(reports)


def _report(walk: _RowWalk, step: _RowStep,
            witness: Tuple[WitnessStep, ...]) -> DiscrepancyReport:
    """The report of a step's new divisor, reached along ``witness``."""
    return DiscrepancyReport.from_degree(
        divisor_id=step.divisor_id, level=len(witness), witness=witness,
        a=walk.fraction(step.a), degree=step.degree)


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
