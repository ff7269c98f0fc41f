"""Breadth-first enumeration of the divisors that blow-up routes extract.

``enumerate_divisors`` reports each divisor that a route of at most
``depth`` coordinate blow-ups extracts from base charts, once, with its
discrepancy a against the base pair and its degree or candidate degrees,
and gives every probe a side check against its own chart's boundary.
Discrepancies telescope through a coefficient row aligned with the chart's
slots: a base divisor carries 1 - 1/e, an exceptional one minus its own
discrepancy, and a blow-up replaces the pivot entry, the same row update
the chart and the class go through. A chart of the walk is a row state,
not a ``Model``, and its numbers are integers (see ``enumerate_divisors``).
Degrees, and only degrees, can be indeterminate; the telescoped
discrepancies stay exact, so indeterminacy surfaces purely as candidate
lists on the affected divisors.

For torsion 2 without extra covers every number of a report is a function
of the divisor's valuation, so ``_valuation_walk`` reads them off the
valuations that routes reach, without charts; ``certify`` takes it there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .charts import (child_chart_id, exceptional_divisor_id,
                     identity_substitution)
from .discrepancy import DiscrepancyReport, WitnessStep, _base_abar
from .model import CoverDegree, Model, _combined_degree


@dataclass(frozen=True)
class SideCheck:
    """One-step discrepancy of a probe center against its own chart's boundary.

    ``value`` is None when an undetermined degree blocks the computation.
    """

    divisor_id: str
    chart_id: str
    center: Tuple[str, ...]
    value: Optional[Fraction]

    @property
    def ok(self) -> Optional[bool]:
        return None if self.value is None else self.value >= 0


@dataclass(frozen=True)
class EnumerationResult:
    """All divisors extracted by coordinate blow-up routes up to a depth."""

    reports: Tuple[DiscrepancyReport, ...]
    side_checks: Tuple[SideCheck, ...]
    indeterminate_divisors: Tuple[str, ...]
    complete: bool
    probes: int


_Valuation = Tuple[int, ...]


class _Chart(NamedTuple):
    """A chart of the row walk: what its steps read, and its route.

    ``rows`` are the slots' valuations in the coordinates of base number
    ``base``, ``roots`` the same in root coordinates, which name the slots'
    divisors in ``ids``. ``exact[k][j]`` says whether extra j is exact on
    slot k's divisor; ``abar`` is the coefficient row, scaled.
    """

    base: int
    rows: Tuple[_Valuation, ...]
    roots: Tuple[_Valuation, ...]
    ids: Tuple[str, ...]
    exact: Tuple[Tuple[bool, ...], ...]
    abar: Tuple[int, ...]
    chart_id: str
    witness: Tuple[WitnessStep, ...]

    @property
    def key(self) -> tuple:
        """The chart's state: with the base, the ids fix every row."""
        return self.base, self.ids, self.exact


class _RowStep(NamedTuple):
    """A center's new divisor: its rows, exact flags and scaled numbers."""

    divisor_id: str
    center: Tuple[str, ...]
    root: _Valuation
    row: _Valuation
    exact: Tuple[bool, ...]
    a: int
    one_step: Optional[int]  # None when an undetermined degree blocks it
    degree: CoverDegree


class _RowWalk:
    """The steps of one enumeration, read off valuation rows.

    A chart's symbol matrix and extra vectors are its base's pushed through
    its rows, a unimodular change of coordinates, so on the divisor with
    base row c the residue order is r/gcd(r, c M) for the base matrix M and
    extra j has entry c . vec_j. Degrees follow ``_combined_degree`` and
    are memoised per (base, c, exact flags). Coefficients, ``a`` and
    one-step values are integers scaled by lcm(r, extra degrees), which
    every degree divides; ``fraction`` turns one into a ``Fraction``.
    """

    def __init__(self, bases: Sequence[Model]):
        r, n = bases[0].torsion, bases[0].dim
        self.torsion, self.centers = r, _centers(n)
        self.scale = scale = lcm(r, *(c.degree for m in bases
                                      for c in m.extras))
        self.columns = [tuple(zip(*m.matrix.entries)) for m in bases]
        self.extras = [tuple((c.origin_id, c.degree, c.vector)
                             for c in m.extras) for m in bases]
        self.degrees: Dict[tuple, Tuple[CoverDegree, Optional[int]]] = {}
        # over scale, not self: a cache holding self would make a cycle
        self.fraction = cache(lambda v: None if v is None
                              else Fraction(v, scale))
        self.name = cache(exceptional_divisor_id)
        self.charts = [
            _Chart(b, identity_substitution(n), m.chart.total_substitution,
                   m.chart.divisor_ids,
                   tuple(tuple(i in c.exact_on for c in m.extras)
                         for i in m.chart.divisor_ids),
                   tuple(int(c * scale) for c in _base_abar(m)),
                   m.chart.chart_id, ())
            for b, m in enumerate(bases)]

    def degree(self, base: int, row: _Valuation, exact: Tuple[bool, ...]
               ) -> Tuple[CoverDegree, Optional[int]]:
        """The degree on the divisor with base row ``row``, and its boundary
        coefficient 1 - 1/e scaled (None when undetermined)."""
        known = self.degrees.get((base, row, exact))
        if known is None:
            r = self.torsion
            degree = _combined_degree(
                r, r // gcd(r, *(sum(map(mul, row, column))
                                 for column in self.columns[base])),
                [(origin, eff, flag) for (origin, d, vector), flag
                 in zip(self.extras[base], exact)
                 if (eff := d // gcd(d, sum(map(mul, row, vector)))) > 1])
            known = self.degrees[base, row, exact] = degree, (
                self.scale - self.scale // degree.candidates[0]
                if degree.determinate else None)
        return known

    def slots(self, chart: _Chart) -> tuple:
        """Each slot's scaled boundary coefficient, each extra's entries
        mod its degree, and each extra's origin slot (-1 once gone)."""
        extras = self.extras[chart.base]
        return (tuple(self.degree(chart.base, row, exact)[1]
                      for row, exact in zip(chart.rows, chart.exact)),
                [[sum(map(mul, row, vector)) % d for row in chart.rows]
                 for _, d, vector in extras],
                [chart.ids.index(o) if o in chart.ids else -1
                 for o, _, _ in extras])

    def step(self, chart: _Chart, slots: tuple,
             center: Tuple[int, ...]) -> _RowStep:
        """The new divisor's rows are the sums of the center's. It is exact
        on an extra when its exposure, the sum of the center's entries, is
        nonzero and only the origin feeds it (``ExtraComponent.transported``).
        """
        bound, entries, origins = slots
        top = (len(center) - 1) * self.scale
        load = [bound[i] for i in center]
        row = tuple(map(sum, zip(*[chart.rows[i] for i in center])))
        root = tuple(map(sum, zip(*[chart.roots[i] for i in center])))
        exact = tuple(
            sum(entry[i] for i in center) % d != 0
            and all(i == origin for i in center if entry[i])
            for entry, origin, (_, d, _) in zip(entries, origins,
                                                self.extras[chart.base]))
        return _RowStep(
            self.name(root), tuple(chart.ids[i] for i in center),
            root, row, exact, top - sum(chart.abar[i] for i in center),
            None if None in load else top - sum(load),
            self.degree(chart.base, row, exact)[0])

    def children(self, chart: _Chart, center: Tuple[int, ...],
                 step: _RowStep, witness: Tuple[WitnessStep, ...]
                 ) -> List[_Chart]:
        """The blow-up's charts: the one with pivot p has the new divisor in
        slot p of every row, with coefficient -a."""
        return [_Chart(chart.base, _put(chart.rows, p, step.row),
                       _put(chart.roots, p, step.root),
                       _put(chart.ids, p, step.divisor_id),
                       _put(chart.exact, p, step.exact),
                       _put(chart.abar, p, -step.a),
                       child_chart_id(chart.chart_id, center, p), witness)
                for p in center]


def _put(row: tuple, slot: int, value) -> tuple:
    return row[:slot] + (value,) + row[slot + 1:]


def _merge(seen: Tuple[int, DiscrepancyReport], step: _RowStep,
           scale: int) -> Tuple[int, DiscrepancyReport]:
    """Combine a divisor's scaled a and report with another route's step.

    The discrepancy and the monomial residue order are genuine invariants of
    the divisor and must agree. Candidate degree lists are knowledge, not
    invariants: a route with direct exposure can pin a degree that another
    route only bounds, so the lists are intersected, and a new report is
    built only when that narrows them. The first witness is kept.
    """
    a, report = seen
    known, other = report.degree, step.degree
    if step.a != a:
        raise RuntimeError(f"divisor {report.divisor_id} recomputed "
                           f"inconsistently: a {report.a} vs "
                           f"{Fraction(step.a, scale)}")
    if other is known:
        return seen
    if known.monomial_order != other.monomial_order:
        raise RuntimeError(f"divisor {report.divisor_id} recomputed "
                           f"inconsistently: monomial orders "
                           f"{known.monomial_order} vs {other.monomial_order}")
    merged = tuple(sorted(set(known.candidates) & set(other.candidates)))
    if not merged:
        raise RuntimeError(f"divisor {report.divisor_id} recomputed "
                           f"inconsistently: degree candidates "
                           f"{known.candidates} and {other.candidates} are "
                           "disjoint")
    if merged == known.candidates:
        return seen
    sources = () if len(merged) == 1 else tuple(sorted(
        set(known.sources) | set(other.sources)))
    return a, DiscrepancyReport.from_degree(
        divisor_id=report.divisor_id, level=report.level,
        witness=report.witness, a=report.a,
        degree=CoverDegree(known.monomial_order, merged, sources))


def _witness_key(report: DiscrepancyReport):
    return (
        len(report.witness),
        tuple((step.chart_id, step.indices) for step in report.witness),
        report.divisor_id,
    )


def enumerate_divisors(base: Union[Model, Sequence[Model]], depth: int,
                       max_probes: int = 200000) -> EnumerationResult:
    """Enumerate every divisor extracted by blow-up routes of bounded length.

    Runs breadth-first over all charts: every coordinate stratum of every
    chart reached within ``depth`` blow-ups of a base model is blown up, the
    new divisor's discrepancy is telescoped against the base boundary, and
    its cover degree is read off in a chart of the blow-up. The same divisor
    reached along several routes is reported once, with the first witness in
    breadth-first order; agreement of the duplicate computations is enforced.

    A chart is a row state (``_Chart``), and ``_RowWalk`` reads each step
    off its rows: the new divisor's rows are the sums of the center's, in
    the pivot slot of each child. ``a`` and the one-step values stay
    integers scaled by lcm(r, extra degrees); a ``Fraction`` is built only
    for a report or, through a per-call cache, for a side-check value.

    Each level is one loop over its charts and, within a chart, its
    centers. Every probe is counted and gets a side check under its own
    chart id; below the last level it also builds its children. Each step
    is computed once per chart state and level: the state (``_Chart.key``)
    is the chart's base and divisor ids, which fix its rows and coefficient
    row, plus the exact flags, the one datum that depends on the route. A
    later chart of a state seen on its level reuses the first one's
    side-check values and, below the last level, its steps, and skips the
    merge. A report is built only for a new divisor or when a merge
    narrows its candidates.

    Every chart has the root's 2^n - n - 1 centers, so the probe count at
    which each child's first probe falls is known when the child would be
    built. A child beyond the budget is not built, and the result is then
    incomplete: ``probes`` and the side checks are still those of the full
    walk cut at ``max_probes``.

    Args:
        base: one model or several charts descending from one root chart.
        depth: maximum number of blow-ups per route, at least 0.
        max_probes: budget of blow-ups; when exhausted the result is marked
            incomplete instead of raising.

    Raises:
        IndeterminateDegreeError: if a base boundary degree is undetermined.
    """
    bases = [base] if isinstance(base, Model) else list(base)
    if not bases:
        raise ValueError("enumeration needs at least one base model")
    root = bases[0].chart.root
    if any(m.chart.root is not root for m in bases):
        raise ValueError("base models must descend from one root chart")
    if depth < 0:
        raise ValueError("depth cannot be negative")
    walk = _RowWalk(bases)
    centers = walk.centers
    width = len(centers)
    frontier = walk.charts
    reports: Dict[str, Tuple[int, DiscrepancyReport]] = {}
    side_checks: List[SideCheck] = []
    probes = 0
    complete = True
    for level in range(depth):
        if not frontier:
            break
        grow = level < depth - 1
        level_end = probes + len(frontier) * width
        next_frontier: List[_Chart] = []
        states: Dict[tuple, Tuple[List[SideCheck], List[_RowStep]]] = {}
        for chart in frontier:
            if probes >= max_probes:
                complete = False
                break
            known = states.get(chart.key)
            if known is None:
                slots = walk.slots(chart)
                checks, steps = states[chart.key] = [], []
            else:
                checks, steps = known
            for n, center in enumerate(centers):
                if probes >= max_probes:
                    complete = False
                    break
                probes += 1
                if known is None:
                    step = walk.step(chart, slots, center)
                    side_checks.append(SideCheck(
                        step.divisor_id, chart.chart_id, step.center,
                        walk.fraction(step.one_step)))
                    checks.append(side_checks[-1])
                    if grow:
                        steps.append(step)
                    seen = reports.get(step.divisor_id)
                    if seen is None:
                        witness = _route(chart, center, step.center)
                        reports[step.divisor_id] = step.a, \
                            DiscrepancyReport.from_degree(
                                divisor_id=step.divisor_id,
                                level=len(witness), witness=witness,
                                a=walk.fraction(step.a), degree=step.degree)
                    else:
                        reports[step.divisor_id] = _merge(seen, step,
                                                          walk.scale)
                else:
                    first = checks[n]
                    side_checks.append(SideCheck(first.divisor_id,
                                                 chart.chart_id, first.center,
                                                 first.value))
                if not grow:
                    continue
                if level_end + len(next_frontier) * width >= max_probes:
                    complete = False  # the budget ends before this child
                    continue
                next_frontier.extend(walk.children(
                    chart, center, steps[n],
                    _route(chart, center, checks[n].center)))
        frontier = next_frontier
    ordered = sorted((report for _, report in reports.values()),
                     key=_witness_key)
    offenders = tuple(sorted(
        r.divisor_id for r in ordered if not r.degree.determinate
    ))
    return EnumerationResult(
        reports=tuple(ordered),
        side_checks=tuple(side_checks),
        indeterminate_divisors=offenders,
        complete=complete,
        probes=probes,
    )


def _route(chart: _Chart, center: Tuple[int, ...],
           names: Tuple[str, ...]) -> Tuple[WitnessStep, ...]:
    """The chart's route extended by the blow-up of ``center``."""
    return chart.witness + (WitnessStep(chart.chart_id, center, names),)


class _Reached(NamedTuple):
    """Least level of a valuation and the first step of its first route."""

    level: int
    child: int
    down: _Valuation


def _centers(n: int) -> List[Tuple[int, ...]]:
    """Blow-up centers of an n-slot chart as slot tuples, in engine order."""
    return [s for codim in range(2, n + 1)
            for s in combinations(range(n), codim)]


@lru_cache(maxsize=8)
def _reach(n: int, depth: int) -> Dict[_Valuation, _Reached]:
    """First routes of the valuations that at most ``depth`` blow-ups extract.

    A key c gives ord_E of each coordinate of the chart the routes start
    from. Blowing up a center S keeps E in the child with pivot p exactly
    when c_p = min over S of c, and there E has c_k - c_p in place of c_k
    for k in S minus p. Every chart has the same centers, so the least
    level of c depends on c alone: the map grows backwards from the
    indicators 1_S of the centers, which one blow-up extracts. Each value
    also names the first child, in engine order, that keeps c one level
    closer, and c's coordinates there; chained, they give the first route.
    """
    if depth < 1:
        return {}
    moves = [(p, [k for k in s if k != p]) for s in _centers(n) for p in s]
    reach = {tuple(int(k in s) for k in range(n)): _Reached(1, -1, ())
             for s in _centers(n)}
    frontier = list(reach)
    for level in range(2, depth + 1):
        fresh = []
        for c in frontier:
            for child, (p, others) in enumerate(moves):
                if c[p]:
                    up = list(c)
                    for k in others:
                        up[k] += c[p]
                    up = tuple(up)
                    seen = reach.get(up)
                    if seen is None:
                        fresh.append(up)
                    elif seen.level < level or seen.child < child:
                        continue
                    reach[up] = _Reached(level, child, c)
        frontier = fresh
    return reach


def _valuation_walk(bases: Sequence[Model], depth: int,
                    max_probes: int) -> EnumerationResult:
    """``enumerate_divisors`` for torsion 2 without extras, on valuations.

    Every number of a report is then a function of the divisor's
    coordinates c on its base chart: a = sum of c_k/e_k - 1 over the base
    degrees, and the monomial order is r/gcd(r, c M) for the base symbol
    matrix M, because a chart's coordinates are a unimodular change of the
    base's and the dropped pivot entry of a residue row is minus the sum of
    the others. The divisors come from ``_reach``. The first witness in
    breadth-first order follows the first steps that ``_reach`` records.

    Every chart has the same C centers and K children, so the probe number
    of a route is a mixed-radix number and the budget needs no walk: a
    divisor is reported iff its first route's probe is below
    ``max_probes``. Boundary degrees are 1 or 2, so every one-step value is
    at least codim/2 - 1 >= 0 and the result carries no side checks.
    """
    n, r = bases[0].dim, bases[0].torsion
    centers = {s: i for i, s in enumerate(_centers(n))}
    children = [(s, p) for s in centers for p in s]
    width, fan = len(centers), len(children)
    starts: List[int] = []  # first probe of each level the budget reaches
    total, size = 0, len(bases) * width
    while size and len(starts) < depth and total < max_probes:
        starts.append(total)
        total, size = total + size, size * fan
    # as in the row walk, a budget of 0 cuts even a walk with no centers
    complete = max_probes > 0 and (
        not size or (len(starts) == depth and total <= max_probes))
    reach = _reach(n, len(starts))
    first: Dict[_Valuation, Tuple[int, int, _Valuation]] = {}
    for b, model in enumerate(bases):
        columns = tuple(zip(*model.chart.total_substitution))
        for c, reached in reach.items():
            v = tuple(sum(map(mul, c, column)) for column in columns)
            if v not in first or reached.level < first[v][0]:
                first[v] = (reached.level, b, c)
    weights = [[r // m.cover_on(k).value for k in range(n)] for m in bases]
    symbols = [tuple(zip(*m.matrix.entries)) for m in bases]
    # (blow-ups, chart number) -> chart id, divisor ids, rows, witness so far
    charts: Dict[Tuple[int, int], tuple] = {}
    reports = []
    for v, (level, b, c) in first.items():
        route, chart, here = [], b, c  # (chart number, child) per step
        for _ in range(level - 1):
            _, child, here = reach[here]
            chart = chart * fan + child
            route.append((chart, child))
        last = tuple(i for i, x in enumerate(here) if x)
        if starts[level - 1] + chart * width + centers[last] >= max_probes:
            continue
        base = bases[b].chart
        chart_id, ids, rows, witness = (base.chart_id, base.divisor_ids,
                                        base.total_substitution, ())
        for steps, (chart, child) in enumerate(route, 1):
            if (steps, chart) not in charts:
                s, p = children[child]
                row = tuple(map(sum, zip(*(rows[i] for i in s))))
                charts[steps, chart] = (
                    child_chart_id(chart_id, s, p),
                    ids[:p] + (exceptional_divisor_id(row),) + ids[p + 1:],
                    rows[:p] + (row,) + rows[p + 1:],
                    witness + (WitnessStep(chart_id, s,
                                           tuple(ids[i] for i in s)),))
            chart_id, ids, rows, witness = charts[steps, chart]
        witness += (WitnessStep(chart_id, last, tuple(ids[i] for i in last)),)
        order = r // gcd(r, *(sum(map(mul, c, column))
                              for column in symbols[b]))
        reports.append(DiscrepancyReport.from_degree(
            divisor_id=exceptional_divisor_id(v), level=level,
            witness=witness, a=Fraction(sum(map(mul, c, weights[b])) - r, r),
            degree=CoverDegree(order, (order,))))
    return EnumerationResult(
        reports=tuple(sorted(reports, key=_witness_key)), side_checks=(),
        indeterminate_divisors=(), complete=complete,
        probes=total if complete else max(max_probes, 0))
