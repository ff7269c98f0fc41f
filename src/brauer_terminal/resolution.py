"""Terminality analysis: bad strata, fixups, enumeration, certification.

For 2-torsion classes the only way a weighted discrepancy can vanish is the
level-one degenerate case: a codimension-2 stratum whose two divisors both
carry degree-2 covers that the symbol does not pair, and whose blow-up
extracts a divisor with trivial cover. Blowing those strata up is the fixup;
afterwards every exceptional divisor of every further coordinate blow-up has
positive weighted discrepancy, which ``certify`` verifies by exhausting all
blow-up routes to a chosen depth. Without extra covers every number of that
audit is a function of the divisor's valuation, so for them ``certify``
reads the numbers off the valuations that routes reach, without charts.

Discrepancies against the base pair telescope through a coefficient row
aligned with the chart's slots: each slot's divisor carries the coefficient
its pullback contributes, which is 1 - 1/e for a base divisor and minus its
own discrepancy for an exceptional one. The step itself is
``discrepancy._step``; a blow-up replaces the pivot entry of the row, the
same row update the chart and the class go through. Degrees, and only
degrees, can be indeterminate; the telescoped discrepancies stay exact, so
indeterminacy surfaces purely as candidate lists on the affected divisors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .charts import Stratum, child_chart_id, exceptional_divisor_id, strata
from .discrepancy import (DiscrepancyReport, WitnessStep, _base_abar,
                          _boundary_table, _report, _step, _Step,
                          b_from_a, boundary_divisor)
from .model import CoverDegree, IndeterminateDegreeError, Model


class UnsupportedTorsionError(ValueError):
    """Raised when a 2-torsion-only analysis is asked about other torsion."""


class NonterminationError(RuntimeError):
    """The fixup loop exceeded its round budget. Carries the partial tree."""

    def __init__(self, message: str, tree: "ResolutionTree"):
        super().__init__(message)
        self.tree = tree


@dataclass(frozen=True)
class TreeEdge:
    parent: str
    child: str
    center: Tuple[str, ...]
    exceptional: str
    kind: str = "fixup"


@dataclass(frozen=True)
class ResolutionTree:
    """Chart tree of a modification, edges keyed by chart id."""

    root: str
    edges: Tuple[TreeEdge, ...]
    leaves: Tuple[str, ...]
    rounds: int


@dataclass(frozen=True)
class FixupResult:
    tree: ResolutionTree
    models: Tuple[Model, ...]
    rounds: int


def find_bad_strata(model: Model) -> Tuple[Stratum, ...]:
    """Codimension-2 strata witnessing the level-one degenerate case.

    A stratum {i, j} qualifies when both divisors carry covers of degree
    exactly 2, the symbol matrix does not pair them, and the blow-up of the
    stratum constructively extracts a divisor with trivial cover.

    Raises:
        UnsupportedTorsionError: unless the class has torsion 2.
        IndeterminateDegreeError: if any degree needed here is undetermined.
    """
    if model.torsion != 2:
        raise UnsupportedTorsionError(
            f"bad-stratum detection is specific to torsion 2, got {model.torsion}"
        )
    bad = []
    for stratum in strata(model.chart, 2) if model.dim > 1 else ():
        i, j = stratum.indices
        if model.matrix.entry(i, j) != 0:
            continue
        e_i = model.cover_on(i)
        e_j = model.cover_on(j)
        for degree, slot in ((e_i, i), (e_j, j)):
            if not degree.determinate:
                raise IndeterminateDegreeError(
                    (model.chart.divisor_ids[slot],),
                    "bad-stratum detection needs determinate degrees, "
                    f"{model.chart.divisor_ids[slot]} has candidates "
                    f"{list(degree.candidates)}",
                )
        if e_i.value != 2 or e_j.value != 2:
            continue
        exceptional_id, e_exc = model.exceptional_cover(stratum)
        if not e_exc.determinate:
            raise IndeterminateDegreeError(
                (exceptional_id,),
                f"degree on {exceptional_id} is undetermined, candidates "
                f"{list(e_exc.candidates)}",
            )
        if e_exc.value == 1:
            bad.append(stratum)
    return tuple(bad)


def level_one_fixup(model: Model, max_rounds: int = 64) -> FixupResult:
    """Blow up bad strata, chart by chart, until none are left.

    One round is one blow-up, applied to the oldest unfinished chart at its
    lexicographically smallest bad stratum. Every chart of a blow-up carries
    strictly fewer bad strata than its parent, so the loop terminates well
    inside the default budget for any supported dimension.

    Raises:
        UnsupportedTorsionError: unless the class has torsion 2.
        NonterminationError: if the round budget is exhausted.
    """
    pending = deque([model])
    edges: List[TreeEdge] = []
    clean: List[Model] = []
    leaves: List[str] = []
    rounds = 0
    while pending:
        current = pending.popleft()
        bad = find_bad_strata(current)
        if not bad:
            clean.append(current)
            leaves.append(current.chart.chart_id)
            continue
        if rounds >= max_rounds:
            partial = ResolutionTree(model.chart.chart_id, tuple(edges),
                                     tuple(leaves), rounds)
            raise NonterminationError(
                f"fixup did not finish within {max_rounds} rounds", partial
            )
        stratum = bad[0]
        result = current.blow_up(stratum)
        rounds += 1
        for child in result.children:
            edges.append(
                TreeEdge(
                    parent=current.chart.chart_id,
                    child=child.chart.chart_id,
                    center=stratum.divisor_ids,
                    exceptional=result.exceptional_id,
                )
            )
            pending.append(child)
    tree = ResolutionTree(model.chart.chart_id, tuple(edges), tuple(leaves),
                          rounds)
    return FixupResult(tree=tree, models=tuple(clean), rounds=rounds)


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


class _Probe(NamedTuple):
    """A chart to expand, its slots' telescoped coefficients and its route."""

    model: Model
    abar: Tuple[Fraction, ...]
    witness: Tuple[WitnessStep, ...]


def _route(probe: _Probe, stratum: Stratum) -> Tuple[WitnessStep, ...]:
    """The probe's route extended by the blow-up of ``stratum``."""
    return probe.witness + (WitnessStep(chart_id=probe.model.chart.chart_id,
                                        indices=stratum.indices,
                                        center=stratum.divisor_ids),)


_StateKey = Tuple[Tuple[str, ...], Tuple[frozenset, ...]]


def _state_key(model: Model) -> _StateKey:
    """Divisor ids and exact covers, all a chart's steps depend on."""
    return model.chart.divisor_ids, tuple(c.exact_on for c in model.extras)


def _children(probe: _Probe, stratum: Stratum, a: Fraction,
              witness: Tuple[WitnessStep, ...]) -> List[_Probe]:
    """Child probes of a blow-up whose new divisor has discrepancy ``a``.

    The step is a row update, so each child's row is its parent's with the
    pivot entry replaced by the new divisor's coefficient -a.
    """
    abar = probe.abar
    children = []
    for child in probe.model.blow_up(stratum).children:
        p = child.chart.pivot
        children.append(_Probe(child, abar[:p] + (-a,) + abar[p + 1:], witness))
    return children


def _merge_reports(seen: DiscrepancyReport, other: _Step) -> DiscrepancyReport:
    """Combine a report with another route's step to the same divisor.

    The discrepancy and the monomial residue order are genuine invariants of
    the divisor and must agree. Candidate degree lists are knowledge, not
    invariants: a route with direct exposure can pin a degree that another
    route only bounds, so the lists are intersected, and a new report is
    built only when that narrows them. The first witness is kept.
    """
    if seen.a != other.a:
        raise RuntimeError(
            f"divisor {seen.divisor_id} recomputed inconsistently: "
            f"a {seen.a} vs {other.a}"
        )
    if seen.degree.monomial_order != other.degree.monomial_order:
        raise RuntimeError(
            f"divisor {seen.divisor_id} recomputed inconsistently: "
            f"monomial orders {seen.degree.monomial_order} vs "
            f"{other.degree.monomial_order}"
        )
    merged = tuple(sorted(
        set(seen.degree.candidates) & set(other.degree.candidates)
    ))
    if not merged:
        raise RuntimeError(
            f"divisor {seen.divisor_id} recomputed inconsistently: degree "
            f"candidates {seen.degree.candidates} and "
            f"{other.degree.candidates} are disjoint"
        )
    if merged == seen.degree.candidates:
        return seen
    sources = () if len(merged) == 1 else tuple(sorted(
        set(seen.degree.sources) | set(other.degree.sources)
    ))
    degree = CoverDegree(seen.degree.monomial_order, merged, sources)
    return DiscrepancyReport.from_degree(
        divisor_id=seen.divisor_id, level=seen.level, witness=seen.witness,
        a=seen.a, degree=degree,
    )


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

    Each level is one loop over its charts and, within a chart, its
    centers. Every probe is counted and gets a side check under its own
    chart id; below the last level it also builds its children, whose
    coefficient rows are the chart's with the pivot entry replaced.

    Each step is computed once per chart state and level. The state is the
    chart's divisor ids, which as valuations are the rows of the total
    substitution and so fix the symbol matrix, the extras vectors and the
    coefficient row, plus each extra's ``exact_on``, the one datum that
    depends on the route. A later chart of a state seen on its level would
    repeat the first one's steps, so it skips them and the merge, and
    reuses the first one's side-check values and, below the last level,
    each center's ``a``. A report is built only for a new divisor or when
    a merge narrows its candidates.

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
    width = 2 ** root.dim - root.dim - 1
    frontier = [_Probe(m, _base_abar(m), ()) for m in bases]
    reports: Dict[str, DiscrepancyReport] = {}
    side_checks: List[SideCheck] = []
    probes = 0
    complete = True
    for level in range(depth):
        if not frontier:
            break
        grow = level < depth - 1
        level_end = probes + len(frontier) * width
        next_frontier: List[_Probe] = []
        states: Dict[_StateKey, Tuple[List[SideCheck], List[Fraction]]] = {}
        for probe in frontier:
            if probes >= max_probes:
                complete = False
                break
            model = probe.model
            chart = model.chart
            key = _state_key(model)
            known = key in states
            if not known:
                boundary = _boundary_table(model)
                states[key] = [], []
            checks, a_values = states[key]
            centers = [s for codim in range(2, chart.dim + 1)
                       for s in strata(chart, codim)]
            for n, stratum in enumerate(centers):
                if probes >= max_probes:
                    complete = False
                    break
                probes += 1
                if known:
                    first = checks[n]
                    check = SideCheck(first.divisor_id, chart.chart_id,
                                      first.center, first.value)
                else:
                    step = _step(model, stratum, probe.abar, boundary)
                    check = SideCheck(step.divisor_id, chart.chart_id,
                                      stratum.divisor_ids, step.one_step)
                    checks.append(check)
                    if grow:
                        a_values.append(step.a)
                    seen = reports.get(step.divisor_id)
                    reports[step.divisor_id] = (
                        _report(step, _route(probe, stratum)) if seen is None
                        else _merge_reports(seen, step))
                side_checks.append(check)
                if not grow:
                    continue
                if level_end + len(next_frontier) * width >= max_probes:
                    complete = False  # the budget ends before this child
                    continue
                next_frontier.extend(_children(probe, stratum, a_values[n],
                                               _route(probe, stratum)))
        frontier = next_frontier
    ordered = sorted(reports.values(), key=_witness_key)
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


_Valuation = Tuple[int, ...]


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
    # as in the chart walk, a budget of 0 cuts even a walk with no centers
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


@dataclass(frozen=True)
class Condition:
    """A named inequality with its witness value; value None means blocked."""

    name: str
    value: Optional[Fraction]
    ok: Optional[bool]


@dataclass(frozen=True)
class CandidateConclusion:
    e: int
    b_on_base: Fraction
    weighted: Fraction
    ok: bool


@dataclass(frozen=True)
class CompositionCheck:
    """Outcome of pushing a discrepancy bound through a blow-up sequence.

    ``passed`` reflects the conclusion alone: every candidate degree of the
    final divisor satisfies b >= lam against the base. Premises and side
    conditions are reported as named findings and do not gate ``passed``;
    the last side condition is the one-step discrepancy of the final center.
    ``reports`` holds the report of each divisor the route extracts, in
    route order.
    """

    divisor_id: str
    lam: Fraction
    premises: Tuple[Condition, ...]
    side_conditions: Tuple[Condition, ...]
    candidates: Tuple[CandidateConclusion, ...]
    passed: bool
    reports: Tuple[DiscrepancyReport, ...]


def check_composition(model: Model,
                      sequence: Sequence[Tuple[Sequence[int], int]],
                      lam: Fraction = Fraction(0)) -> CompositionCheck:
    """Follow one blow-up route and audit the composed discrepancy bound.

    Args:
        model: base model X.
        sequence: (center slots, child index) per blow-up; the last step
            extracts the divisor under scrutiny.
        lam: the bound to verify.

    The composition argument needs b >= lam on the exceptional divisors
    appearing in the final center (premises), nonnegative b against the base
    for the other intermediate divisors, and a nonnegative one-step
    discrepancy of the final center against its own chart's boundary (side
    conditions). Each is reported with its value; ``passed`` only states
    whether every candidate degree of the final divisor yields b >= lam.
    """
    steps = list(sequence)
    if not steps:
        raise ValueError("a composition needs at least one blow-up")
    lam = Fraction(lam)
    probe = _Probe(model, _base_abar(model), ())
    reports: List[DiscrepancyReport] = []
    for step_no, (indices, pick) in enumerate(steps):
        stratum = probe.model.stratum(indices)
        step = _step(probe.model, stratum, probe.abar,
                     _boundary_table(probe.model))
        witness = _route(probe, stratum)
        reports.append(_report(step, witness))
        children = _children(probe, stratum, step.a, witness)
        if not 0 <= pick < len(children):
            raise ValueError(f"child index {pick} out of range at step {step_no}")
        probe = children[pick]
    # Valuations grow strictly along a route, so the ids are distinct.
    created = {report.divisor_id: report for report in reports}
    final_report = reports[-1]
    final_id = final_report.divisor_id
    premises = []
    for divisor_id in witness[-1].center:
        if divisor_id not in created:
            continue
        worst = min(entry.b for entry in created[divisor_id].entries)
        premises.append(
            Condition(name=f"b({divisor_id},X) >= {lam}", value=worst,
                      ok=worst >= lam)
        )
    side = []
    for report in reports[:-1]:
        worst = min(entry.b for entry in report.entries)
        side.append(
            Condition(name=f"b({report.divisor_id},X) >= 0", value=worst,
                      ok=worst >= 0)
        )
    side.append(
        Condition(
            name=f"a({final_id},Y,Delta_Y) >= 0",
            value=step.one_step,
            ok=None if step.one_step is None else step.one_step >= 0,
        )
    )
    candidates = tuple(
        CandidateConclusion(e=entry.e, b_on_base=entry.b,
                            weighted=entry.weighted, ok=entry.b >= lam)
        for entry in final_report.entries
    )
    return CompositionCheck(
        divisor_id=final_id,
        lam=lam,
        premises=tuple(premises),
        side_conditions=tuple(side),
        candidates=candidates,
        passed=all(c.ok for c in candidates),
        reports=tuple(reports),
    )


@dataclass(frozen=True)
class SideConditionSummary:
    level1_b_nonnegative: bool
    exceptional_b_nonnegative: bool
    one_step_a_nonnegative: bool
    failures: Tuple[str, ...]


@dataclass(frozen=True)
class TerminalityCertificate:
    """Verdict of a bounded-depth terminality audit.

    ``terminal-certified`` asserts that every divisor extracted by any
    coordinate blow-up route within ``level_checked`` blow-ups has strictly
    positive weighted discrepancy for every candidate degree, with the
    enumeration complete. ``bad-stratum-found`` reports a determinate
    nonpositive weighted discrepancy (or an unfixed bad stratum);
    ``indeterminate`` means the verdict hangs on an undetermined degree or an
    exhausted probe budget.
    """

    level_checked: int
    verdict: str
    min_weighted: Optional[Fraction]
    min_witness: Optional[str]
    level1_terminal: bool
    side_conditions: SideConditionSummary
    bad_strata: Tuple[Tuple[str, ...], ...]
    indeterminate_divisors: Tuple[str, ...]
    reports: Tuple[DiscrepancyReport, ...]
    complete: bool
    fixup_rounds: int
    tree: Optional[ResolutionTree] = field(compare=False, default=None)

    def __post_init__(self) -> None:
        if self.verdict not in ("terminal-certified", "bad-stratum-found",
                                "indeterminate"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "terminal-certified":
            if not self.complete:
                raise ValueError("cannot certify from an incomplete enumeration")
            if self.min_weighted is None or self.min_weighted <= 0:
                raise ValueError(
                    "terminal-certified requires strictly positive weighted "
                    f"discrepancies, got minimum {self.min_weighted}"
                )


def certify(model: Model, depth: int = 3, *, fixup: bool = True,
            max_rounds: int = 64, max_probes: int = 200000) -> TerminalityCertificate:
    """Audit terminality of a pair up to a blow-up depth.

    For torsion 2 the level-one fixup is applied first (unless disabled), and
    the enumeration runs from the fixed-up charts; for other torsion the
    model is enumerated as-is. The verdict is ``bad-stratum-found`` as soon
    as a determinate nonpositive weighted discrepancy exists (or a bad
    stratum is left unfixed on purpose), ``indeterminate`` when only an
    undetermined degree or an exhausted budget blocks the call, and
    ``terminal-certified`` otherwise.

    Torsion 2 without extra covers is enumerated on root valuations
    (``_valuation_walk``), which returns what ``enumerate_divisors`` would
    for the same ``max_probes`` without building a chart. Models with
    extras take the chart walk: their degrees and side checks depend on
    the route, and a failed side check is listed per chart.
    """
    if depth < 1:
        raise ValueError("certification depth must be at least 1")
    bad_strata: Tuple[Tuple[str, ...], ...] = ()
    tree = None
    rounds = 0
    bases: Sequence[Model] = (model,)
    fixup_applied = False
    if model.torsion == 2:
        bad = find_bad_strata(model)
        bad_strata = tuple(s.divisor_ids for s in bad)
        if fixup and bad:
            fixed = level_one_fixup(model, max_rounds=max_rounds)
            bases = fixed.models
            tree = fixed.tree
            rounds = fixed.rounds
            fixup_applied = True
    walk = (_valuation_walk if model.torsion == 2 and not model.extras
            else enumerate_divisors)
    enumeration = walk(bases, depth, max_probes=max_probes)
    reports = enumeration.reports
    entries = [(entry, report) for report in reports for entry in report.entries]
    min_weighted = min((e.weighted for e, _ in entries), default=None)
    min_witness = None
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
    for check in enumeration.side_checks:
        if check.ok is False:
            one_step_ok = False
            failures.append(
                f"a({check.divisor_id},{check.chart_id},Delta) = {check.value}"
            )
    summary = SideConditionSummary(
        level1_b_nonnegative=level1_b,
        exceptional_b_nonnegative=exc_b,
        one_step_a_nonnegative=one_step_ok,
        failures=tuple(failures),
    )
    determinate_bad = any(
        report.degree.determinate and entry.weighted <= 0
        for report in reports for entry in report.entries
    )
    unfixed_bad = bool(bad_strata) and not fixup_applied and model.torsion == 2 \
        and not fixup
    if determinate_bad or unfixed_bad:
        verdict = "bad-stratum-found"
    elif not enumeration.complete or min_weighted is None or min_weighted <= 0:
        verdict = "indeterminate"
    else:
        verdict = "terminal-certified"
    return TerminalityCertificate(
        level_checked=depth,
        verdict=verdict,
        min_weighted=min_weighted,
        min_witness=min_witness,
        level1_terminal=level1_positive,
        side_conditions=summary,
        bad_strata=bad_strata,
        indeterminate_divisors=enumeration.indeterminate_divisors,
        reports=reports,
        complete=enumeration.complete,
        fixup_rounds=rounds,
        tree=tree,
    )


@dataclass(frozen=True)
class RemarkCandidate:
    e_f: int
    b_f_on_y: Optional[Fraction]
    b_f_on_x: Fraction
    weighted: Fraction
    additivity_ok: bool
    obstruction: Optional[str]


@dataclass(frozen=True)
class RemarkReport:
    """The two-blow-up family where the second cover degree stays open.

    On torsion 3 with one symbol pairing the first two coordinates and an
    extra degree-3 cover on the third, the first blow-up extracts E with
    b(E, X) = 1/3 and an exact degree-3 cover. Blowing the strict transform
    of the first coordinate against E extracts F whose cover pulls the extra
    component through E: the degree e_F is only known to lie in {1, 3}, and
    b(F, X) = 1 - 1/e_F. With e_F = 1 the weighted discrepancy drops to 0,
    so terminality of the family cannot be decided from this data.
    """

    boundary: Tuple[Tuple[str, Fraction], ...]
    first_report: DiscrepancyReport
    b_e: Fraction
    a_f_on_y: Optional[Fraction]
    e_f: CoverDegree
    monomial_e_f: int
    a_f_on_x: Fraction
    candidates: Tuple[RemarkCandidate, ...]
    composition: CompositionCheck
    verdict: str


def remark_model() -> Model:
    """Base model of the undetermined-degree family."""
    return Model.affine(
        torsion=3,
        labels=("x1", "x2", "x3"),
        symbols=((0, 1, 1),),
        extra_degrees={"x3": 3},
    )


# Blow up V(x1, x3); in the chart where x3 turns into E and x1 survives,
# blow up V(x1, E) and read F in the pivot chart.
_REMARK_ROUTE = (((0, 2), 1), ((0, 2), 0))


def run_remark() -> RemarkReport:
    """Reproduce the undetermined-degree family end to end."""
    model = remark_model()
    composition = check_composition(model, _REMARK_ROUTE, lam=Fraction(0))
    first_report, f_report = composition.reports
    b_e = first_report.entries[0].b
    a_f_on_x = f_report.a
    a_f_on_y = composition.side_conditions[-1].value
    degree_f = f_report.degree

    candidates = []
    for entry in f_report.entries:
        e, b_on_x, weighted = entry.e, entry.b, entry.weighted
        b_on_y = None if a_f_on_y is None else b_from_a(a_f_on_y, e)
        additive = b_on_y is not None and b_on_x == b_on_y + b_e
        obstruction = None
        if weighted <= 0:
            obstruction = (
                f"degree {e} gives weighted discrepancy {weighted}, "
                "terminality fails"
            )
        candidates.append(
            RemarkCandidate(e_f=e, b_f_on_y=b_on_y, b_f_on_x=b_on_x,
                            weighted=weighted, additivity_ok=additive,
                            obstruction=obstruction)
        )

    verdict = "indeterminate" if not degree_f.determinate else (
        "terminal-certified" if all(c.weighted > 0 for c in candidates)
        else "bad-stratum-found"
    )
    return RemarkReport(
        boundary=boundary_divisor(model).coefficients,
        first_report=first_report,
        b_e=b_e,
        a_f_on_y=a_f_on_y,
        e_f=degree_f,
        monomial_e_f=degree_f.monomial_order,
        a_f_on_x=a_f_on_x,
        candidates=tuple(candidates),
        composition=composition,
        verdict=verdict,
    )
