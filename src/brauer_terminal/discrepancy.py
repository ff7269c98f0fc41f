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
A center is the sorted tuple of its slots (``Chart.center``), and the
one-step reports of any set of centers take one ``steps`` call, which
builds each center and each of its prefixes once.
A report's entries are built on integers: with a = p/q, each candidate e
gets b = ((p + q)e - q)/(qe) and e*b = ((p + q)e - q)/q, one normalising
``Fraction`` constructor each. They depend only on a and the candidates,
so ``from_degree`` takes them from one bounded process-wide memo keyed by
(p, q, candidates), and every report with that key shares one immutable
tuple. An entry checks e*b = e * b once, when it is built; a report checks
b = a + 1 - 1/e and the candidate order on every construction, also when
the constructors are called directly, by cross-multiplying numerators and
denominators. The independent checks of the numbers are the oracles of the
test suite (toric discrepancy, residue order) and the gate of
``perfbench``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Tuple

from .model import (Chart, CoverDegree, PairLike, _centers, _plan, _RowStep,
                    _RowWalk, as_chart)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class WitnessStep:
    """One blow-up along a route: which chart, which stratum."""

    chart_id: str
    indices: Tuple[int, ...]
    center: Tuple[str, ...]


@dataclass(frozen=True, slots=True)
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
        entries = _entries(a.numerator, a.denominator, degree.candidates)
        return cls(divisor_id=divisor_id, level=level, witness=witness,
                   a=a, degree=degree, entries=entries)

    @property
    def determinate(self) -> bool:
        return self.degree.determinate

    def worst_weighted(self) -> Fraction:
        return min(entry.weighted for entry in self.entries)


@lru_cache(maxsize=4096)
def _entries(p: int, q: int, candidates: Tuple[int, ...]
             ) -> Tuple[ReportEntry, ...]:
    """The entries of a = p/q for the candidate degrees, shared by every
    report with that a and those candidates."""
    return tuple(ReportEntry(e, Fraction(top, q * e), Fraction(top, q))
                 for e, top in ((e, (p + q) * e - q) for e in candidates))


def boundary_divisor(pair: PairLike) -> Tuple[Tuple[str, Fraction], ...]:
    """Boundary of the pair on a chart (a model: its root chart): each
    divisor id with its coefficient 1 - 1/e, in slot order.

    Raises:
        IndeterminateDegreeError: listing every divisor of the chart whose
            cover degree is undetermined.
    """
    chart = as_chart(pair)
    walk = chart.model.walk
    return tuple(zip(chart.divisor_ids,
                     map(walk.fraction, walk.base_row(chart))))


def b_from_a(a: Fraction, e: int) -> Fraction:
    """Translate a classical discrepancy into a cover discrepancy."""
    if e < 1:
        raise ValueError("cover degrees are positive")
    if not isinstance(a, Fraction):
        a = Fraction(a)
    p, q = a.numerator, a.denominator
    return Fraction((p + q) * e - q, q * e)


def brauer_discrepancy(pair: PairLike, center: Iterable[int]
                       ) -> DiscrepancyReport:
    """One-step cover discrepancy of the divisor extracted by blowing up
    the center, given by its slots in any order (``Chart.center``).

    Raises:
        ValueError: if the slots are no blow-up center of the chart.
        IndeterminateDegreeError: if a boundary degree of the chart is
            undetermined.
    """
    chart = as_chart(pair)
    return _one_step_reports(chart, (chart.center(center),))[0]


def stratum_discrepancies(pair: PairLike) -> Tuple[DiscrepancyReport, ...]:
    """``brauer_discrepancy`` of every coordinate stratum, in the engine
    order of centers (``model._centers``), off one boundary read."""
    chart = as_chart(pair)
    return _one_step_reports(chart, _centers(chart.dim))


def _one_step_reports(chart: Chart, centers: Sequence[Tuple[int, ...]]
                      ) -> Tuple[DiscrepancyReport, ...]:
    """The step of each center (sorted slots) at the boundary row, as a
    level-1 report. One ``steps`` call takes every center the reports
    need, with their prefixes, once each."""
    walk = chart.model.walk
    chains = _plan(chart.dim).chains
    known = walk.steps(chart, walk.exposure(chart), walk.base_row(chart), {},
                       sorted({n for center in centers
                               for n in chains[center]}))
    reports = []
    for center in centers:
        step = known[chains[center][-1]]
        reports.append(_report(walk, step, (WitnessStep(
            chart.chart_id, center, step.center),)))
    return tuple(reports)


def _report(walk: _RowWalk, step: _RowStep,
            witness: Tuple[WitnessStep, ...]) -> DiscrepancyReport:
    """The report of a step's new divisor, reached along ``witness``."""
    return DiscrepancyReport.from_degree(
        divisor_id=step.divisor_id, level=len(witness), witness=witness,
        a=walk.fraction(step.a), degree=step.degree)

