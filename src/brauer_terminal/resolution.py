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
from itertools import combinations
from operator import index
from typing import List, Optional, Sequence, Tuple

from .discrepancy import (DiscrepancyReport, WitnessStep, _fraction,
                          _new_step, _report)
from .enumeration import (DEFAULT_MAX_PROBES, _failing, _valuation_walk,
                          enumerate_divisors)
from .model import (Chart, IndeterminateDegreeError, Model, PairLike, _put,
                    as_chart)


DEFAULT_DEPTH = 3  # default depth of ``certify``
DEFAULT_MAX_ROUNDS = 64  # default round budget of the fixup


class UnsupportedTorsionError(ValueError):
    """Raised when a 2-torsion-only analysis is asked about other torsion."""


class NonterminationError(RuntimeError):
    """The fixup loop exceeded its round budget. Carries the partial tree,
    whose charts are the leaves finished so far."""

    def __init__(self, message: str, tree: "ResolutionTree"):
        super().__init__(message)
        self.tree = tree


@dataclass(frozen=True)
class TreeEdge:
    parent: str
    child: str
    center: Tuple[str, ...]
    exceptional: str


@dataclass(frozen=True)
class ResolutionTree:
    """Chart tree of a modification, edges keyed by chart id; ``charts``
    are its leaf charts, free of bad strata."""

    root: str
    edges: Tuple[TreeEdge, ...]
    charts: Tuple[Chart, ...]
    rounds: int

    @property
    def leaves(self) -> Tuple[str, ...]:
        return tuple(chart.chart_id for chart in self.charts)


def find_bad_strata(pair: PairLike) -> Tuple[Tuple[int, int], ...]:
    """Codimension-2 strata witnessing the level-one degenerate case, as
    slot pairs (i, j), i < j, in lexicographic order.

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
    exposure = walk.exposure(chart)
    ids = chart.divisor_ids
    bad = []
    for i, j in combinations(range(chart.dim), 2):
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
        step = walk.step(chart, exposure, (i, j))
        if not step.degree.determinate:
            raise IndeterminateDegreeError(
                (step.divisor_id,),
                f"degree on {step.divisor_id} is undetermined, candidates "
                f"{list(step.degree.candidates)}",
            )
        if step.degree.value == 1:
            bad.append((i, j))
    return tuple(bad)


def level_one_fixup(pair: PairLike,
                    max_rounds: int = DEFAULT_MAX_ROUNDS) -> ResolutionTree:
    """Blow up bad strata, chart by chart, until none are left.

    One round is one blow-up, applied to the oldest unfinished chart at its
    lexicographically smallest bad stratum. Every chart of a blow-up carries
    strictly fewer bad strata than its parent, so the loop terminates well
    inside the default budget for any supported dimension.

    Raises:
        TypeError: if ``max_rounds`` is no integer.
        UnsupportedTorsionError: unless the class has torsion 2.
        NonterminationError: if the round budget is exhausted.
    """
    max_rounds = index(max_rounds)
    root = as_chart(pair)
    return _fixup(root, find_bad_strata(root), max_rounds)


def _fixup(root: Chart, bad: Tuple[Tuple[int, int], ...],
           max_rounds: int) -> ResolutionTree:
    """``level_one_fixup`` of a root chart whose bad strata are ``bad``."""
    walk = root.model.walk
    pending = deque([root])
    edges: List[TreeEdge] = []
    clean: List[Chart] = []
    rounds = 0
    while pending:
        current = pending.popleft()
        if current is not root:
            bad = find_bad_strata(current)
        if not bad:
            clean.append(current)
            continue
        if rounds >= max_rounds:
            partial = ResolutionTree(root.chart_id, tuple(edges),
                                     tuple(clean), rounds)
            raise NonterminationError(
                f"fixup did not finish within {max_rounds} rounds", partial
            )
        step = walk.step(current, walk.exposure(current), bad[0])
        rounds += 1
        for child in walk.children(current, bad[0], step):
            edges.append(
                TreeEdge(
                    parent=current.chart_id,
                    child=child.chart_id,
                    center=step.center,
                    exceptional=step.divisor_id,
                )
            )
            pending.append(child)
    return ResolutionTree(root.chart_id, tuple(edges), tuple(clean), rounds)


@dataclass(frozen=True)
class Condition:
    """A named inequality with its witness value; value None means blocked."""

    name: str
    value: Optional[Fraction]
    ok: Optional[bool]


@dataclass(frozen=True)
class CompositionCheck:
    """Outcome of pushing a discrepancy bound through a blow-up sequence.

    ``reports`` holds the report of each divisor the route extracts, in
    route order; the last is the final divisor's, whose entries give one
    candidate degree e each with its b against the base. ``passed``
    reflects the conclusion alone: every candidate satisfies b >= lam.
    Premises and side conditions are reported as named findings and do not
    gate ``passed``; the last side condition is the one-step discrepancy of
    the final center.
    """

    lam: Fraction
    premises: Tuple[Condition, ...]
    side_conditions: Tuple[Condition, ...]
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
        lam: the bound to verify, an ``int`` or a ``Fraction``.

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
    lam = _fraction(lam)
    chart = as_chart(pair)
    walk = chart.model.walk
    witness: Tuple[WitnessStep, ...] = ()
    abar = walk.base_row(chart)
    reports: List[DiscrepancyReport] = []
    for step_no, (indices, pick) in enumerate(steps):
        center = chart.center(indices)
        step = walk.step(chart, walk.exposure(chart), center, abar)
        witness += (_new_step(chart.chart_id, center, step.center),)
        reports.append(_report(walk, step, witness))
        if not 0 <= pick < len(center):
            raise ValueError(f"child index {pick} out of range at step {step_no}")
        parent = chart
        chart = walk.children(chart, center, step)[pick]
        abar = _put(abar, center[pick], -step.a)
    # Valuations grow strictly along a route, so the ids are distinct.
    created = {report.divisor_id: report for report in reports}
    final_report = reports[-1]
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
    one_step = walk.one_step(walk.boundary(parent), center)
    side.append(
        Condition(
            name=f"a({final_report.divisor_id},Y,Delta_Y) >= 0",
            value=walk.fraction(one_step),
            ok=None if one_step is None else one_step >= 0,
        )
    )
    return CompositionCheck(
        lam=lam,
        premises=tuple(premises),
        side_conditions=tuple(side),
        passed=all(entry.b >= lam for entry in final_report.entries),
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
    for the same ``max_probes`` without building a chart. Every other
    model takes ``enumerate_divisors``, which walks every chart as a row
    state: extras make degrees depend on the route, torsion above 2 allows
    negative one-step values, and a failed side check is listed per chart.

    The summary is read in one pass over the reports, from the signs of
    numerators and integer cross-multiplications: the least e * b with the
    first divisor that attains it, level-one positivity and b >= 0 (level
    = route length), b >= 0 on every divisor, and whether a determinate
    degree gives e * b <= 0. ``failures`` lists ``level-1 b < 0``, then
    each divisor's negative worst b in report order, then the failed side
    checks in walk order, whose texts ``_failing`` reads off the result's
    blocks of side checks, from one value text per boundary row, without
    building a ``SideCheck`` or reading ``side_checks``.
    """
    depth, max_probes, max_rounds = map(index, (depth, max_probes, max_rounds))
    if depth < 1:
        raise ValueError("certification depth must be at least 1")
    bad_strata: Tuple[Tuple[str, ...], ...] = ()
    tree = None
    rounds = 0
    bases: Sequence[Chart] = (model.chart,)
    if model.torsion == 2:
        bad = find_bad_strata(model)
        ids = model.chart.divisor_ids
        bad_strata = tuple((ids[i], ids[j]) for i, j in bad)
        if fixup and bad:
            tree = _fixup(model.chart, bad, max_rounds)
            bases = tree.charts
            rounds = tree.rounds
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
    listed = len(failures)
    failures.extend(_failing(enumeration._blocks))
    one_step_ok = len(failures) == listed
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


def run_remark() -> CompositionCheck:
    """The two-blow-up family where the second cover degree stays open.

    On torsion 3 with one symbol pairing the first two coordinates and an
    extra degree-3 cover on the third, the first blow-up extracts E with
    b(E, X) = 1/3 and an exact degree-3 cover. Blowing the strict transform
    of the first coordinate against E extracts F whose cover pulls the extra
    component through E: the degree e_F is only known to lie in {1, 3}, and
    b(F, X) = 1 - 1/e_F. With e_F = 1 the weighted discrepancy drops to 0,
    so terminality of the family cannot be decided from this data.

    The check's ``reports`` are E's and F's; its last side condition holds
    a(F, Y), from which b(F, Y) = ``b_from_a(a, e_F)`` for each candidate.
    """
    return check_composition(remark_model(), _REMARK_ROUTE, lam=Fraction(0))
