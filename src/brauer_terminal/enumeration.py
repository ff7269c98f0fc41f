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
as candidate lists on the affected divisors. A side check's one-step value
depends only on its chart's boundary row, so the walk keeps one table per
boundary row of every center's value and of each failing center's failure
text tail. The result holds the side checks as plain data, one block per
chart state; ``side_checks`` builds the tuple of ``SideCheck``s on its
first read, and ``certify`` takes the failure texts finished from
``_failing``.

For torsion 2 without extra covers every number of a report is a function
of the divisor's valuation, so ``_valuation_walk`` reads them off the
valuations that routes reach and builds only the charts of first routes;
``certify`` takes it there. ``_reach`` keeps each first route as its probe
and its witness-order rank, so a report's bookkeeping is O(1) at any depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import index, mul
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .discrepancy import DiscrepancyReport, WitnessStep, _new_step, _report
from .model import (Chart, CoverDegree, Model, PairLike, _centers, _plan,
                    _put, _RowStep, _RowWalk, as_chart)

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


class _Block(NamedTuple):
    """The side checks of one chart state on one level, chart id aside:
    the state's divisor ids per slot, which give each center's, its steps'
    divisor ids, and the one-step value of every center and, per failing
    one, its index and failure text tail ``,Delta) = <value>``, which its
    boundary row fixes; a chart reads its first entries."""

    slots: Tuple[str, ...]
    ids: Tuple[str, ...]
    values: Tuple[Optional[Fraction], ...]
    failing: Tuple[Tuple[int, str], ...]


@dataclass(frozen=True)
class EnumerationResult:
    """All divisors extracted by coordinate blow-up routes up to a depth.

    ``_blocks`` holds the walk's side checks: per chart in walk order, its
    chart id, its state's block and its number of probes, whose checks are
    the block's first entries. ``side_checks`` is the tuple of them, one
    ``SideCheck`` per probe in walk order, built on its first read and then
    kept; ``_failing`` reads the failure texts off the blocks.
    """

    reports: Tuple[DiscrepancyReport, ...]
    indeterminate_divisors: Tuple[str, ...]
    complete: bool
    probes: int
    _blocks: Tuple[Tuple[str, _Block, int], ...] = field(default=(),
                                                          repr=False)

    @cached_property
    def side_checks(self) -> Tuple[SideCheck, ...]:
        return tuple(
            SideCheck(divisor_id, chart_id, get(block.slots), value)
            for chart_id, block, take in self._blocks
            for (_, get, _, _), divisor_id, value in zip(
                _plan(len(block.slots)).entries[:take], block.ids,
                block.values))


def _failing(blocks: Sequence[Tuple[str, _Block, int]]) -> Iterator[str]:
    """The failure text ``a(<divisor id>,<chart id>,Delta) = <value>`` of
    each failing side check of ``blocks``, in walk order."""
    for chart_id, block, take in blocks:
        for n, tail in block.failing:
            if n >= take:
                break
            yield f"a({block.ids[n]},{chart_id}{tail}"


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
    if known.monomial_order != other.monomial_order:
        raise RuntimeError(f"divisor {report.divisor_id} recomputed "
                           f"inconsistently: monomial orders "
                           f"{known.monomial_order} vs {other.monomial_order}")
    # both lists are sorted without repeats (``CoverDegree``)
    merged = tuple(c for c in known.candidates if c in other.candidates)
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

    A chart's probes are the charts' one step (``_RowWalk.steps``), run
    once over its centers in engine order: the new divisor's root row is
    the sum of the center's, in the pivot slot of each child, and a center
    of codimension 3 or more adds its last slot's row and coefficient to
    the step of the center without it. ``a`` stays an integer scaled by
    lcm(r, extra degrees); a ``Fraction`` is built only for a report or,
    through ``_RowWalk.fraction``, a cache as long-lived as the model, for
    a one-step value. The walk carries each chart with its coefficient
    row, its route and its base's number.

    Each level is one loop over its charts, and a chart is one block: it
    takes its centers from the budget, gets one step list and one block of
    side checks, and, below the last level, builds its children. Both are
    computed once per chart state and level, the state being the chart's
    base and divisor ids (which fix its rows and coefficient row) and its
    exact flags (which depend on the route). A one-step value is
    (codim - 1) scale minus the center's boundary coefficients, so it
    depends only on the chart's boundary row and the center; the walk
    keeps one table per boundary row, of every center's value and the
    failing centers with the value part of their failure texts, so the
    texts of ``certify`` format no ``Fraction`` per chart; a block takes
    its state's table with its steps' divisor ids. Every chart of the
    state adds only its chart id, the block and its number of probes to
    the result's ``_blocks``; ``side_checks`` builds the tuple of
    ``SideCheck``s on its first read, and ``certify`` reads the blocks
    through ``_failing``.
    A child takes its parent's step for every center without its pivot p:
    the two charts differ only in slot p, and no slot of such a center is p
    or an origin gone with it, so the row, the center ids, ``a``, the exact
    flags and the degree's memo entry agree, and so do the one-step values,
    as the boundaries agree off p. Only computed steps are merged, and not
    when the report already has the step's ``a`` and degree object; a
    report is built only for a new divisor or when a merge narrows its
    candidates.

    Every chart has the root's 2^n - n - 1 centers, so the probe count at
    which each child's first probe falls is known when the child would be
    built. A child beyond the budget is not built, and a chart the budget
    cuts takes only its first centers; the result is then incomplete, with
    ``probes`` and side checks those of the full walk cut at
    ``max_probes``. A budget of 0 cuts even a walk without centers.

    Args:
        base: one model or chart, or several charts of one model.
        depth: maximum number of blow-ups per route, at least 0.
        max_probes: budget of blow-ups; when exhausted the result is marked
            incomplete instead of raising.

    Raises:
        TypeError: if ``depth`` or ``max_probes`` is no integer.
        IndeterminateDegreeError: if a base boundary degree is undetermined.
    """
    bases = [as_chart(b) for b in
             ((base,) if isinstance(base, (Model, Chart)) else base)]
    if not bases:
        raise ValueError("enumeration needs at least one base model")
    model = bases[0].model
    if any(chart.model is not model for chart in bases):
        raise ValueError("base charts must descend from one root chart")
    depth, max_probes = index(depth), index(max_probes)
    if depth < 0:
        raise ValueError("depth cannot be negative")
    walk = model.walk
    plan = _plan(model.dim)
    centers = _centers(model.dim)
    width = len(centers)
    # (chart, coefficient row, route, base number, parent's steps, pivot)
    # per chart of the level
    frontier = [(chart, walk.base_row(chart), (), b, None, -1)
                for b, chart in enumerate(bases)]
    reports: Dict[str, Tuple[int, DiscrepancyReport]] = {}
    blocks: List[Tuple[str, _Block, int]] = []  # chart id, block, take
    # boundary row -> each center's one-step value, the failing centers
    # with their failure text tails
    tables: Dict[tuple, tuple] = {}
    probes = 0
    complete = True
    for level in range(depth):
        if not frontier:
            break
        grow = level < depth - 1
        level_end = probes + len(frontier) * width
        next_frontier: list = []
        states: Dict[tuple, tuple] = {}  # state -> block, steps
        for chart, abar, witness, b, inherited, pivot in frontier:
            if probes >= max_probes:
                complete = False
                break
            take = min(width, max_probes - probes)
            if take < width:
                complete = False
            probes += take
            key = b, chart.divisor_ids, chart.exact
            known = states.get(key)
            if known is None:
                if inherited is None:
                    steps, order = [None] * take, range(take)
                else:  # the parent's steps off the pivot, merged on its level
                    steps = inherited[:take]
                    order = plan.through[pivot]
                    if take < width:
                        order = [n for n in order if n < take]
                walk.steps(chart, walk.exposure(chart), abar, steps, order)
                for n in order:
                    step = steps[n]
                    seen = reports.get(step.divisor_id)
                    if seen is None:
                        route = witness + (_new_step(
                            chart.chart_id, centers[n], step.center),)
                        reports[step.divisor_id] = step.a, _report(
                            walk, step, route)
                    elif (step.degree is not seen[1].degree
                          or step.a != seen[0]):
                        reports[step.divisor_id] = _merge(seen, step, walk)
                bound = walk.boundary(chart)
                table = tables.get(bound)
                if table is None:
                    values = tuple([walk.fraction(walk.one_step(bound, c))
                                    for c in centers])
                    table = tables[bound] = values, tuple([
                        (n, f",Delta) = {v}") for n, v in enumerate(values)
                        if v is not None and v < 0])
                block = _Block(chart.divisor_ids,
                               tuple([step.divisor_id for step in steps]),
                               *table)
                states[key] = block, steps if grow else None
            else:
                block, steps = known
            blocks.append((chart.chart_id, block, take))
            if not grow:
                continue
            for center, step in zip(centers[:take], steps):
                if level_end + len(next_frontier) * width >= max_probes:
                    complete = False  # the budget ends before this child
                    break
                route = witness + (_new_step(chart.chart_id, center,
                                             step.center),)
                next_frontier.extend(
                    (child, _put(abar, p, -step.a), route, b, steps, p)
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
        indeterminate_divisors=offenders,
        complete=complete,
        probes=probes,
        _blocks=tuple(blocks),
    )


class _Reached(NamedTuple):
    """Least level of a valuation; its first route's probe and sort rank."""

    level: int
    route: int
    rank: int


@lru_cache(maxsize=8)
def _reach(n: int, depth: int) -> Dict[_Valuation, _Reached]:
    """First routes of the valuations that at most ``depth`` blow-ups extract.

    A key c gives ord_E of each coordinate of the chart the routes start
    from. Blowing up a center S keeps E in the child with pivot p exactly
    when c_p = min over S of c, and there E has c_k - c_p in place of c_k
    for k in S minus p. Every chart has the same C centers and K children,
    so the least level of c depends on c alone: the map grows backwards
    from the indicators 1_S of the centers, which one blow-up extracts.

    A route of level l, l - 1 children and a last center, is one number in
    the mixed radix K, ..., K, C. ``route`` takes the children and the last
    center in engine order: it is the route's probe among its base's
    level-l probes, and the first route has the least. ``rank`` takes them
    in the order of ``_witness_key``: a child by its center's slots, then
    its pivot's chart-id text (pivot 10 before pivot 2), a last center by
    its slots. An entry is the one a level down behind its first child.
    """
    if depth < 1:
        return {}
    centers = _centers(n)
    moves = [(p, [k for k in s if k != p]) for s in centers for p in s]
    keys = [(s, str(p + 1)) for s in centers for p in s]
    key_rank = {key: k for k, key in enumerate(sorted(keys))}
    child_rank = [key_rank[key] for key in keys]
    center_rank = {s: k for k, s in enumerate(sorted(centers))}
    reach = {tuple(int(k in s) for k in range(n)):
             _Reached(1, i, center_rank[s]) for i, s in enumerate(centers)}
    frontier = list(reach)
    span = len(centers)  # K^(level - 2) C, the weight of the first child
    for level in range(2, depth + 1):
        fresh = []
        for c in frontier:
            _, route, rank = reach[c]
            for child, (p, others) in enumerate(moves):
                if c[p]:
                    up = list(c)
                    for k in others:
                        up[k] += c[p]
                    up, up_route = tuple(up), child * span + route
                    seen = reach.get(up)
                    if seen is None:
                        fresh.append(up)
                    elif seen.level < level or seen.route < up_route:
                        continue
                    reach[up] = _Reached(level, up_route,
                                         child_rank[child] * span + rank)
        frontier = fresh
        span *= len(moves)
    return reach


def _valuation_walk(bases: Sequence[Chart], depth: int,
                    max_probes: int) -> EnumerationResult:
    """``enumerate_divisors`` for torsion 2 without extras, on valuations.

    Every number of a report is then a function of the divisor's
    coordinates c on its base chart and its root valuation v = c R for the
    base's rows R: a = sum of c_k/e_k - 1 over the base degrees (1/e_k is
    one minus the base's boundary row), and the degree is the residue
    order r/gcd(r, v M) for the root matrix M. The divisors come from
    ``_reach``, whose first route of c is the first witness in
    breadth-first order.

    Every chart has the same C centers and K children, so the probe number
    of a route is a mixed-radix number and the budget needs no walk: a
    divisor of level l from base b is reported iff the probe
    b K^(l-1) C + ``route`` of its level is below ``max_probes``. The
    charts on a route are built by the charts' one step, a blow-up's
    together and once, when a report first needs the last one. One number
    per report, of its level, base chart id and ``rank``, sorts the
    reports in ``_witness_key``'s order, as distinct charts have distinct
    ids. Boundary degrees are 1 or 2, so every one-step value is at least
    codim/2 - 1 >= 0 and the result carries no side checks.
    """
    walk = bases[0].model.walk
    plan = _plan(bases[0].dim)
    centers = _centers(bases[0].dim)
    moves = [s for s in centers for _ in s]  # the center of each child
    width, fan = len(centers), len(moves)
    pivot = [k for s in centers for k in range(len(s))]  # its index in s
    starts: List[int] = []  # first probe of each level the budget reaches
    total, size = 0, len(bases) * width
    while size and len(starts) < depth and total < max_probes:
        starts.append(total)
        total, size = total + size, size * fan
    # as in the row walk, a budget of 0 cuts even a walk with no centers
    complete = max_probes > 0 and (
        not size or (len(starts) == depth and total <= max_probes))
    reach = _reach(bases[0].dim, len(starts))
    spans = [fan ** steps for steps in range(len(starts))]  # charts per base
    # the first entry of a v has the least level, then the lowest base, so
    # the least probe: the budget keeps it iff it keeps any entry of that v
    first: Dict[_Valuation, Tuple[int, _Valuation, _Reached]] = {}
    for b, base in enumerate(bases):
        columns = tuple(zip(*base.rows))
        # a route of level l is in the budget iff it is below limits[l - 1]
        limits = [max_probes - start - b * span * width
                  for start, span in zip(starts, spans)]
        for c, reached in reach.items():
            if reached.route >= limits[reached.level - 1]:
                continue
            v = tuple([sum(map(mul, c, column)) for column in columns])
            seen = first.get(v)
            if seen is None or reached.level < seen[2].level:
                first[v] = b, c, reached
    weights = [[walk.scale - c for c in walk.base_row(base)] for base in bases]
    # a report sorts by level, base chart id and rank, as one number
    ids = sorted({base.chart_id for base in bases})
    block = width * fan ** len(starts)  # above every rank
    base_rank = [ids.index(base.chart_id) for base in bases]
    # chart key -> chart, route to it; chart k of base b after s blow-ups
    # has key (B + b) K^s + k for B bases, so that its parent has key // K
    charts: Dict[int, Tuple[Chart, Tuple[WitnessStep, ...]]] = {
        len(bases) + b: (base, ()) for b, base in enumerate(bases)}
    reports, order = [], []
    for v, (b, c, (level, route, rank)) in first.items():
        key = (len(bases) + b) * spans[level - 1] + route // width
        known = charts.get(key)
        if known is None:
            missing, node = [], key  # the route's charts not built yet
            while node not in charts:
                missing.append(node)
                node //= fan
            for node in reversed(missing):
                parent, witness = charts[node // fan]
                child = node % fan
                s = moves[child]
                step = walk.step(parent, walk.exposure(parent), s)
                witness += (_new_step(parent.chart_id, s, step.center),)
                start = node - pivot[child]  # the blow-up's first chart
                for k, chart in enumerate(walk.children(parent, s, step)):
                    charts[start + k] = chart, witness
            known = charts[key]
        chart, witness = known
        last, get, _, _ = plan.entries[route % width]
        witness += (_new_step(chart.chart_id, last, get(chart.divisor_ids)),)
        degree, _, divisor_id = walk.degree(v, ())
        reports.append(DiscrepancyReport.from_degree(
            divisor_id=divisor_id, level=level, witness=witness,
            a=walk.fraction(sum(map(mul, c, weights[b])) - walk.scale),
            degree=degree))
        order.append((level * len(ids) + base_rank[b]) * block + rank)
    return EnumerationResult(
        reports=tuple([reports[k] for k in
                       sorted(range(len(order)), key=order.__getitem__)]),
        indeterminate_divisors=(), complete=complete,
        probes=total if complete else max(max_probes, 0))
