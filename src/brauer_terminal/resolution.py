"""Terminality analysis: bad strata, fixups, composition, certification.

For 2-torsion classes the only way a weighted discrepancy can vanish is the
level-one degenerate case: a codimension-2 stratum whose two divisors both
carry degree-2 covers that the symbol does not pair, and whose blow-up
extracts a divisor with trivial cover. Blowing those strata up is the fixup;
afterwards every exceptional divisor of every further coordinate blow-up has
positive weighted discrepancy, which ``certify`` verifies by exhausting all
blow-up routes to a chosen depth. Without extra covers every number of that
audit is a function of the divisor's valuation, so for them ``certify``
reads the numbers off the valuations that routes reach, without charts.

The enumeration itself, on valuation rows and for torsion 2 without
extras on valuations alone, lives in ``enumeration``. The fixup, the
composition audit and the remark family follow short routes with the
charts' one blow-up step (``model._RowWalk``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .discrepancy import (DiscrepancyReport, WitnessStep, _report, b_from_a,
                          boundary_divisor)
from .enumeration import (DEFAULT_MAX_PROBES, _valuation_walk,
                          enumerate_divisors)
from .model import (Chart, CoverDegree, IndeterminateDegreeError, Model,
                    PairLike, Stratum, _put, as_chart, strata)


DEFAULT_DEPTH = 3  # default depth of ``certify``
DEFAULT_MAX_ROUNDS = 64  # default round budget of the fixup


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
    """The fixup's tree and its leaf charts, free of bad strata."""

    tree: ResolutionTree
    charts: Tuple[Chart, ...]
    rounds: int


def find_bad_strata(pair: PairLike) -> Tuple[Stratum, ...]:
    """Codimension-2 strata witnessing the level-one degenerate case.

    A stratum {i, j} of the chart (a model: its root chart) qualifies when
    both divisors carry covers of degree exactly 2, the class does not pair
    them (rows[i] M rows[j] = 0 mod r for the root matrix M), and the
    blow-up of the stratum constructively extracts a divisor with trivial
    cover.

    Raises:
        UnsupportedTorsionError: unless the class has torsion 2.
        IndeterminateDegreeError: if any degree needed here is undetermined.
    """
    chart = as_chart(pair)
    if chart.model.torsion != 2:
        raise UnsupportedTorsionError(
            "bad-stratum detection is specific to torsion 2, got "
            f"{chart.model.torsion}")
    walk = chart.model.walk
    slots = walk.slots(chart)
    ids = chart.divisor_ids
    bad = []
    for stratum in strata(chart, 2) if chart.dim > 1 else ():
        i, j = stratum.indices
        if walk.pairing(chart.rows[i], chart.rows[j]) != 0:
            continue
        degrees = [chart.cover_on(i), chart.cover_on(j)]
        for degree, slot in zip(degrees, (i, j)):
            if not degree.determinate:
                raise IndeterminateDegreeError(
                    (ids[slot],),
                    "bad-stratum detection needs determinate degrees, "
                    f"{ids[slot]} has candidates {list(degree.candidates)}",
                )
        if degrees[0].value != 2 or degrees[1].value != 2:
            continue
        step = walk.step(chart, slots, stratum.indices, slots[0])
        if not step.degree.determinate:
            raise IndeterminateDegreeError(
                (step.divisor_id,),
                f"degree on {step.divisor_id} is undetermined, candidates "
                f"{list(step.degree.candidates)}",
            )
        if step.degree.value == 1:
            bad.append(stratum)
    return tuple(bad)


def level_one_fixup(pair: PairLike,
                    max_rounds: int = DEFAULT_MAX_ROUNDS) -> FixupResult:
    """Blow up bad strata, chart by chart, until none are left.

    One round is one blow-up, applied to the oldest unfinished chart at its
    lexicographically smallest bad stratum. Every chart of a blow-up carries
    strictly fewer bad strata than its parent, so the loop terminates well
    inside the default budget for any supported dimension.

    Raises:
        UnsupportedTorsionError: unless the class has torsion 2.
        NonterminationError: if the round budget is exhausted.
    """
    root = as_chart(pair)
    walk = root.model.walk
    pending = deque([root])
    edges: List[TreeEdge] = []
    clean: List[Chart] = []
    leaves: List[str] = []
    rounds = 0
    while pending:
        current = pending.popleft()
        bad = find_bad_strata(current)
        if not bad:
            clean.append(current)
            leaves.append(current.chart_id)
            continue
        if rounds >= max_rounds:
            partial = ResolutionTree(root.chart_id, tuple(edges),
                                     tuple(leaves), rounds)
            raise NonterminationError(
                f"fixup did not finish within {max_rounds} rounds", partial
            )
        stratum = bad[0]
        slots = walk.slots(current)
        step = walk.step(current, slots, stratum.indices, slots[0])
        rounds += 1
        for child in walk.children(current, stratum.indices, step):
            edges.append(
                TreeEdge(
                    parent=current.chart_id,
                    child=child.chart_id,
                    center=stratum.divisor_ids,
                    exceptional=step.divisor_id,
                )
            )
            pending.append(child)
    tree = ResolutionTree(root.chart_id, tuple(edges), tuple(leaves), rounds)
    return FixupResult(tree=tree, charts=tuple(clean), rounds=rounds)


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


def check_composition(pair: PairLike,
                      sequence: Sequence[Tuple[Sequence[int], int]],
                      lam: Fraction = Fraction(0)) -> CompositionCheck:
    """Follow one blow-up route and audit the composed discrepancy bound.

    Args:
        pair: base chart X (a model: its root chart).
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
    chart = as_chart(pair)
    walk = chart.model.walk
    witness: Tuple[WitnessStep, ...] = ()
    abar = walk.base_row(chart)
    reports: List[DiscrepancyReport] = []
    for step_no, (indices, pick) in enumerate(steps):
        center = chart.stratum(indices).indices
        step = walk.step(chart, walk.slots(chart), center, abar)
        witness += (WitnessStep(chart.chart_id, center, step.center),)
        reports.append(_report(walk, step, witness))
        if not 0 <= pick < len(center):
            raise ValueError(f"child index {pick} out of range at step {step_no}")
        chart = walk.children(chart, center, step)[pick]
        abar = _put(abar, center[pick], -step.a)
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
            value=walk.fraction(step.one_step),
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


def certify(model: Model, depth: int = DEFAULT_DEPTH, *, fixup: bool = True,
            max_rounds: int = DEFAULT_MAX_ROUNDS,
            max_probes: int = DEFAULT_MAX_PROBES) -> TerminalityCertificate:
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
    extras take ``enumerate_divisors``, which walks every chart as a row
    state: their degrees and side checks depend on the route, and a failed
    side check is listed per chart.

    The summary is read in one pass over the reports, from the signs of
    numerators and integer cross-multiplications: the least e * b with the
    first divisor that attains it, level-one positivity and b >= 0 (level
    = route length), b >= 0 on every divisor, and whether a determinate
    degree gives e * b <= 0. ``failures`` lists ``level-1 b < 0``, then
    each divisor's negative worst b in report order, then the failed side
    checks.
    """
    if depth < 1:
        raise ValueError("certification depth must be at least 1")
    bad_strata: Tuple[Tuple[str, ...], ...] = ()
    tree = None
    rounds = 0
    bases: Sequence[Chart] = (model.chart,)
    if model.torsion == 2:
        bad = find_bad_strata(model)
        bad_strata = tuple(s.divisor_ids for s in bad)
        if fixup and bad:
            fixed = level_one_fixup(model, max_rounds=max_rounds)
            bases = fixed.charts
            tree = fixed.tree
            rounds = fixed.rounds
    walk = (_valuation_walk if model.torsion == 2 and not model.extras
            else enumerate_divisors)
    enumeration = walk(bases, depth, max_probes=max_probes)
    reports = enumeration.reports
    # Fraction denominators are positive, so a sign is the numerator's and
    # x < y is x.n * y.d < y.n * x.d. Entries follow the sorted candidates
    # and b = a + 1 - 1/e grows with e, so a report's worst b is its first.
    min_weighted = min_witness = None
    level1_positive = level1_b = exc_b = True
    determinate_bad = False
    negative: List[str] = []
    for report in reports:
        level1 = len(report.witness) == 1
        for entry in report.entries:
            w = entry.weighted
            if min_weighted is None or (w.numerator * min_weighted.denominator
                                        < min_weighted.numerator * w.denominator):
                min_weighted, min_witness = w, report.divisor_id
            if w.numerator <= 0:
                if level1:
                    level1_positive = False
                if report.degree.determinate:
                    determinate_bad = True
        worst = report.entries[0].b
        if worst.numerator < 0:
            exc_b = False
            if level1:
                level1_b = False
            negative.append(f"b({report.divisor_id},X) = {worst}")
    failures = ([] if level1_b else ["level-1 b < 0"]) + negative
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
    if determinate_bad or (bad_strata and not fixup):
        verdict = "bad-stratum-found"
    elif (not enumeration.complete or min_weighted is None
          or min_weighted.numerator <= 0):
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
