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
tuple. An entry checks e*b = e * b once, when it is built. One function,
``_check_entries``, checks b = a + 1 - 1/e and the candidate order by
cross-multiplying numerators and denominators: the memo runs it once on
each tuple it builds, and a report's ``__post_init__`` runs it when the
constructor or ``dataclasses.replace`` is called directly.
``from_degree`` builds its report from the memo's tuple for exactly its
key, so it skips ``__init__`` and ``__post_init__`` and sets the slots
(``_builder``); witness steps, which check nothing, are built the same
way. The independent checks of the numbers are the oracles of the test
suite (toric discrepancy, residue order) and the gate of ``perfbench``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Callable, Iterable, Sequence, Tuple

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
    degrees; the constructor stores it as a ``Fraction`` and raises
    ``TypeError`` for a float. ``entries`` holds one row per candidate
    degree, each with b = a + 1 - 1/e: the constructor checks that, and
    ``from_degree`` takes rows the memo checked.
    """

    divisor_id: str
    level: int
    witness: Tuple[WitnessStep, ...]
    a: Fraction
    degree: CoverDegree
    entries: Tuple[ReportEntry, ...]

    def __post_init__(self) -> None:
        a = _fraction(self.a)
        object.__setattr__(self, "a", a)
        _check_entries(a.numerator, a.denominator, self.degree.candidates,
                       self.entries)

    @classmethod
    def from_degree(cls, divisor_id: str, level: int,
                    witness: Tuple[WitnessStep, ...], a: Fraction,
                    degree: CoverDegree) -> "DiscrepancyReport":
        """The report of a divisor with classical discrepancy ``a`` and
        cover degree ``degree``, with one entry per candidate degree.

        The entries are the ``_entries`` memo's tuple for a and the
        candidates, which ``_check_entries`` passed when the memo built it,
        so the report is built from its slots without ``__post_init__``.

        Raises:
            TypeError: if ``a`` is no ``int`` or ``Fraction`` (no float).
        """
        if not isinstance(a, Fraction):
            a = _fraction(a)
        return _new_report(divisor_id, level, witness, a, degree, _entries(
            a.numerator, a.denominator, degree.candidates))

    @property
    def determinate(self) -> bool:
        return self.degree.determinate

    def worst_weighted(self) -> Fraction:
        return min(entry.weighted for entry in self.entries)


def _builder(cls: type) -> Callable[..., object]:
    """A function that builds a ``cls`` from its field values, in field
    order, as the constructor would, but without ``__init__`` and
    ``__post_init__``: ``object.__new__`` and one call of each slot's
    member descriptor, in a function generated for ``cls`` as the
    dataclass constructors are. Equality, hash, repr and pickling are the
    class's own; the values must be ones its checks would pass."""
    names = [field.name for field in fields(cls)]
    scope = {f"set_{name}": getattr(cls, name).__set__ for name in names}
    scope.update(new=object.__new__, cls=cls)
    exec(f"def build({', '.join(names)}):\n"
         "    self = new(cls)\n"
         + "".join(f"    set_{name}(self, {name})\n" for name in names)
         + "    return self\n", scope)
    return scope["build"]


_new_step = _builder(WitnessStep)
_new_report = _builder(DiscrepancyReport)


def _check_entries(p: int, q: int, candidates: Tuple[int, ...],
                   entries: Tuple[ReportEntry, ...]) -> None:
    """Check that the entries follow the candidate degrees and that each
    has b = a + 1 - 1/e for a = p/q (q > 0).

    Raises:
        ValueError: naming the first broken condition.
    """
    if tuple(entry.e for entry in entries) != candidates:
        raise ValueError("report entries must follow the candidate degrees")
    for entry in entries:
        e, b = entry.e, entry.b
        if b.numerator * q * e != b.denominator * ((p + q) * e - q):
            raise ValueError(
                f"entry for e={e} breaks b = a + 1 - 1/e: "
                f"b={b}, a={Fraction(p, q)}"
            )


@lru_cache(maxsize=4096)
def _entries(p: int, q: int, candidates: Tuple[int, ...]
             ) -> Tuple[ReportEntry, ...]:
    """The entries of a = p/q for the candidate degrees, shared by every
    report with that a and those candidates; checked once, here."""
    entries = tuple(ReportEntry(e, Fraction(top, q * e), Fraction(top, q))
                    for e, top in ((e, (p + q) * e - q) for e in candidates))
    _check_entries(p, q, candidates, entries)
    return entries


def _fraction(a: object) -> Fraction:
    """A rational a (an ``int`` or ``Fraction``) as a ``Fraction``.

    Raises:
        TypeError: if a is not rational, a float among others.
    """
    if not isinstance(a, Rational):
        raise TypeError(f"a discrepancy is an int or a Fraction, "
                        f"not {type(a).__name__}: {a!r}")
    return Fraction(a)


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
        a = _fraction(a)
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
        reports.append(_report(walk, step, (_new_step(
            chart.chart_id, center, step.center),)))
    return tuple(reports)


def _report(walk: _RowWalk, step: _RowStep,
            witness: Tuple[WitnessStep, ...]) -> DiscrepancyReport:
    """The report of a step's new divisor, reached along ``witness``."""
    return DiscrepancyReport.from_degree(
        divisor_id=step.divisor_id, level=len(witness), witness=witness,
        a=walk.fraction(step.a), degree=step.degree)

