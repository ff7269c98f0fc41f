"""Breadth-first enumeration of the divisors that blow-up routes extract.

``enumerate_divisors`` reports each divisor that a route of at most
``depth`` coordinate blow-ups extracts from base charts, once, with its
discrepancy a against the base pair and its degree or candidate degrees,
and gives every probe a side check against its own chart's boundary.
Discrepancies telescope through a coefficient row aligned with the chart's
slots: a base divisor carries 1 - 1/e, an exceptional one minus its own
discrepancy, and a blow-up replaces the pivot entry, the same row update
the chart goes through. The walk runs the charts' one step
(``model._RowWalk``), and its numbers are integers (see
``enumerate_divisors``). Degrees, and only degrees, can be indeterminate;
the telescoped discrepancies stay exact, so indeterminacy surfaces purely
as candidate lists on the affected divisors.

For torsion 2 without extra covers every number of a report is a function
of the divisor's valuation, so ``_valuation_walk`` reads them off the
valuations that routes reach and builds only the charts of first routes;
``certify`` takes it there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .discrepancy import DiscrepancyReport, WitnessStep, _report
from .model import (Chart, CoverDegree, Model, PairLike, _centers, _put,
                    _RowStep, _RowWalk, as_chart)

DEFAULT_MAX_PROBES = 200000  # default blow-up budget of an enumeration


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


def _merge(seen: Tuple[int, DiscrepancyReport], step: _RowStep,
           walk: _RowWalk) -> Tuple[int, DiscrepancyReport]:
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
                           f"{walk.fraction(step.a)}")
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


def enumerate_divisors(base: Union[PairLike, Sequence[PairLike]], depth: int,
                       max_probes: int = DEFAULT_MAX_PROBES
                       ) -> EnumerationResult:
    """Enumerate every divisor extracted by blow-up routes of bounded length.

    Runs breadth-first over all charts: every coordinate stratum of every
    chart reached within ``depth`` blow-ups of a base chart is blown up, the
    new divisor's discrepancy is telescoped against the base boundary, and
    its cover degree is read off in a chart of the blow-up. The same divisor
    reached along several routes is reported once, with the first witness in
    breadth-first order; agreement of the duplicate computations is enforced.

    Each probe is the charts' one step (``_RowWalk.step``): the new
    divisor's root row is the sum of the center's, in the pivot slot of
    each child. ``a`` and the one-step values stay integers scaled by
    lcm(r, extra degrees); a ``Fraction`` is built only for a report or,
    through a per-call cache, for a side-check value. The walk carries each
    chart with its coefficient row, its route and its base's number.

    Each level is one loop over its charts and, within a chart, its
    centers. Every probe is counted and gets a side check under its own
    chart id; below the last level it also builds its children. Each step
    is computed once per chart state and level: the state is the chart's
    base and divisor ids, which fix its rows and coefficient row, plus the
    exact flags, the one datum that depends on the route. A later chart of
    a state seen on its level reuses the first one's side-check values and,
    below the last level, its steps, and skips the merge. A report is built
    only for a new divisor or when a merge narrows its candidates.

    Every chart has the root's 2^n - n - 1 centers, so the probe count at
    which each child's first probe falls is known when the child would be
    built. A child beyond the budget is not built, and the result is then
    incomplete: ``probes`` and the side checks are still those of the full
    walk cut at ``max_probes``.

    Args:
        base: one model or chart, or several charts of one model.
        depth: maximum number of blow-ups per route, at least 0.
        max_probes: budget of blow-ups; when exhausted the result is marked
            incomplete instead of raising.

    Raises:
        IndeterminateDegreeError: if a base boundary degree is undetermined.
    """
    bases = [as_chart(b) for b in
             ((base,) if isinstance(base, (Model, Chart)) else base)]
    if not bases:
        raise ValueError("enumeration needs at least one base model")
    model = bases[0].model
    if any(chart.model is not model for chart in bases):
        raise ValueError("base charts must descend from one root chart")
    if depth < 0:
        raise ValueError("depth cannot be negative")
    walk = model.walk
    centers = _centers(model.dim)
    width = len(centers)
    # (chart, coefficient row, route, base number) per chart of the level
    frontier = [(chart, walk.base_row(chart), (), b)
                for b, chart in enumerate(bases)]
    reports: Dict[str, Tuple[int, DiscrepancyReport]] = {}
    side_checks: List[SideCheck] = []
    probes = 0
    complete = True
    for level in range(depth):
        if not frontier:
            break
        grow = level < depth - 1
        level_end = probes + len(frontier) * width
        next_frontier: list = []
        states: Dict[tuple, Tuple[List[SideCheck], List[_RowStep]]] = {}
        for chart, abar, witness, b in frontier:
            if probes >= max_probes:
                complete = False
                break
            key = b, chart.divisor_ids, chart.exact
            known = states.get(key)
            if known is None:
                slots = walk.slots(chart)
                checks, steps = states[key] = [], []
            else:
                checks, steps = known
            for n, center in enumerate(centers):
                if probes >= max_probes:
                    complete = False
                    break
                probes += 1
                if known is None:
                    step = walk.step(chart, slots, center, abar)
                    side_checks.append(SideCheck(
                        step.divisor_id, chart.chart_id, step.center,
                        walk.fraction(step.one_step)))
                    checks.append(side_checks[-1])
                    if grow:
                        steps.append(step)
                    seen = reports.get(step.divisor_id)
                    if seen is None:
                        route = witness + (WitnessStep(
                            chart.chart_id, center, step.center),)
                        reports[step.divisor_id] = step.a, _report(
                            walk, step, route)
                    else:
                        reports[step.divisor_id] = _merge(seen, step, walk)
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
                step = steps[n]
                route = witness + (WitnessStep(chart.chart_id, center,
                                               step.center),)
                next_frontier.extend(
                    (child, _put(abar, p, -step.a), route, b)
                    for p, child in zip(center,
                                        walk.children(chart, center, step)))
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


class _Reached(NamedTuple):
    """Least level of a valuation and the first step of its first route."""

    level: int
    child: int
    down: _Valuation


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


def _valuation_walk(bases: Sequence[Chart], depth: int,
                    max_probes: int) -> EnumerationResult:
    """``enumerate_divisors`` for torsion 2 without extras, on valuations.

    Every number of a report is then a function of the divisor's
    coordinates c on its base chart and its root valuation v = c R for the
    base's rows R: a = sum of c_k/e_k - 1 over the base degrees (1/e_k is
    one minus the base's boundary row), and the degree is the residue
    order r/gcd(r, v M) for the root matrix M. The divisors come from
    ``_reach``. The first witness in breadth-first order
    follows the first steps that ``_reach`` records, and the charts on it
    are built by the charts' one step, once each.

    Every chart has the same C centers and K children, so the probe number
    of a route is a mixed-radix number and the budget needs no walk: a
    divisor is reported iff its first route's probe is below
    ``max_probes``. Boundary degrees are 1 or 2, so every one-step value is
    at least codim/2 - 1 >= 0 and the result carries no side checks.
    """
    walk = bases[0].model.walk
    n = bases[0].dim
    centers = {s: i for i, s in enumerate(_centers(n))}
    moves = [s for s in centers for _ in s]  # the center of each child
    first_child = {s: moves.index(s) for s in centers}
    width, fan = len(centers), len(moves)
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
    for b, base in enumerate(bases):
        columns = tuple(zip(*base.rows))
        for c, reached in reach.items():
            v = tuple(sum(map(mul, c, column)) for column in columns)
            if v not in first or reached.level < first[v][0]:
                first[v] = (reached.level, b, c)
    weights = [[walk.scale - c for c in walk.base_row(base)] for base in bases]
    # (blow-ups, chart number) -> chart, route to it
    charts: Dict[Tuple[int, int], Tuple[Chart, Tuple[WitnessStep, ...]]] = {
        (0, b): (base, ()) for b, base in enumerate(bases)}
    reports = []
    for v, (level, b, c) in first.items():
        route, number, here = [], b, c  # (chart number, child) per step
        for _ in range(level - 1):
            _, child, here = reach[here]
            number = number * fan + child
            route.append((number, child))
        last = tuple(i for i, x in enumerate(here) if x)
        if starts[level - 1] + number * width + centers[last] >= max_probes:
            continue
        for steps, (number, child) in enumerate(route, 1):
            if (steps, number) not in charts:
                parent, witness = charts[steps - 1, number // fan]
                s = moves[child]
                slots = walk.slots(parent)
                step = walk.step(parent, slots, s, slots[0])
                witness += (WitnessStep(parent.chart_id, s, step.center),)
                # the blow-up's charts are the children first_child[s] on
                start = number - child + first_child[s]
                for k, chart in enumerate(walk.children(parent, s, step)):
                    charts[steps, start + k] = chart, witness
        chart, witness = charts[level - 1, number]
        witness += (WitnessStep(chart.chart_id, last,
                                tuple(chart.divisor_ids[i] for i in last)),)
        reports.append(DiscrepancyReport.from_degree(
            divisor_id=walk.name(v), level=level,
            witness=witness,
            a=walk.fraction(sum(map(mul, c, weights[b])) - walk.scale),
            degree=walk.degree(v, ())[0]))
    return EnumerationResult(
        reports=tuple(sorted(reports, key=_witness_key)), side_checks=(),
        indeterminate_divisors=(), complete=complete,
        probes=total if complete else max(max_probes, 0))
