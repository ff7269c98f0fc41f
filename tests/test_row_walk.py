"""The row walk of ``enumerate_divisors`` against a reference chart walk.

``enumerate_divisors`` reads every number of a step off root valuation
rows: the residue order from the root matrix, the extras' exposures and
exact flags from the rows' origin entries, and a from scaled integers. So
its own cross-route checks compare the row formulas with themselves. The
reference here walks the charts of ``oracles.blow_up`` instead, which
transport the symbol matrix and the extra vectors chart by chart by
generic substitution products, and reads a (as Fractions), the degree and
the one-step value off each chart. It has no state reuse, no scaled
integers and no child pruning, and it checks on every repeated divisor
that a and the monomial order agree between routes. The two must give the
same canonical dump: every report, side check, ``probes``, ``complete``
and indeterminate divisor.
"""

import random
from collections import deque
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from brauer_terminal.discrepancy import DiscrepancyReport, WitnessStep
from brauer_terminal.model import (CoverDegree, IndeterminateDegreeError,
                                   Model, _centers, _flags)
from brauer_terminal.enumeration import SideCheck, enumerate_divisors
from brauer_terminal.resolution import level_one_fixup

from .oracles import blow_up, cover_on, root_chart
from .test_golden_enumeration import canonical_dump


def merge(seen, a, degree):
    """Another route's step to a reported divisor: a and the monomial order
    must agree, and the candidate lists are intersected."""
    assert a == seen.a, seen.divisor_id
    assert degree.monomial_order == seen.degree.monomial_order, \
        seen.divisor_id
    merged = tuple(sorted(set(seen.degree.candidates)
                          & set(degree.candidates)))
    assert merged, seen.divisor_id
    if merged == seen.degree.candidates:
        return seen
    sources = () if len(merged) == 1 else tuple(sorted(
        set(seen.degree.sources) | set(degree.sources)))
    return DiscrepancyReport.from_degree(
        divisor_id=seen.divisor_id, level=seen.level, witness=seen.witness,
        a=seen.a, degree=CoverDegree(seen.degree.monomial_order, merged,
                                     sources))


def reference_chart(chart):
    """The reference chart at the end of an engine chart's route, which its
    id names: the centers and pivots from the root."""
    reference = root_chart(chart.model)
    for part in chart.chart_id.split(".")[1:]:
        center, pivot = part.split("p")
        center = tuple(int(k) - 1 for k in center.split("-"))
        reference = blow_up(reference, center)[center.index(int(pivot) - 1)]
    return reference


def boundary(chart):
    """Each slot's coefficient 1 - 1/e, None where e is undetermined."""
    degrees = [cover_on(chart, k) for k in range(chart.dim)]
    return [Fraction(d.value - 1, d.value) if d.determinate else None
            for d in degrees]


def chart_walk(bases, depth, max_probes, narrowed=None):
    """Breadth-first over reference charts, one blow-up per probe; counts
    the merges that narrow a candidate list in ``narrowed``. The result has
    the attributes of an ``EnumerationResult``."""
    queue = deque()
    for base in bases if depth > 0 else ():
        reference = reference_chart(base)
        abar = boundary(reference)
        blocked = [d for d, c in zip(reference.divisor_ids, abar) if c is None]
        if blocked:
            raise IndeterminateDegreeError(blocked)
        queue.append((reference, abar, ()))
    reports, checks, probes, complete = {}, [], 0, True
    while queue:
        if probes >= max_probes:
            complete = False
            break
        chart, abar, witness = queue.popleft()
        chart_id = chart.chart_id
        own = boundary(chart)
        for center in [s for codim in range(2, chart.dim + 1)
                       for s in combinations(range(chart.dim), codim)]:
            if probes >= max_probes:
                complete = False
                break
            probes += 1
            children = blow_up(chart, center)
            first = children[0]
            divisor_id = first.divisor_ids[first.pivot]
            degree = cover_on(first, first.pivot)
            a = len(center) - 1 - sum(abar[k] for k in center)
            load = [own[k] for k in center]
            names = tuple(chart.divisor_ids[k] for k in center)
            checks.append(SideCheck(
                divisor_id, chart_id, names,
                None if None in load else len(center) - 1 - sum(load)))
            route = witness + (WitnessStep(chart_id, center, names),)
            seen = reports.get(divisor_id)
            reports[divisor_id] = (DiscrepancyReport.from_degree(
                divisor_id=divisor_id, level=len(route), witness=route, a=a,
                degree=degree) if seen is None
                else merge(seen, a, degree))
            if narrowed is not None and seen is not None:
                narrowed.append(reports[divisor_id] is not seen)
            if len(route) < depth:
                for child in children:
                    p = child.pivot
                    queue.append((child, abar[:p] + [-a] + abar[p + 1:],
                                  route))
    ordered = sorted(reports.values(), key=lambda r: (
        r.level, [(s.chart_id, s.indices) for s in r.witness], r.divisor_id))
    return SimpleNamespace(
        reports=tuple(ordered), side_checks=tuple(checks),
        indeterminate_divisors=tuple(sorted(
            r.divisor_id for r in ordered if not r.degree.determinate)),
        complete=complete, probes=probes)


def outcome(walk, bases, depth, max_probes, values=None, **kwargs):
    """The walk's canonical dump; appends the side-check values to
    ``values`` when given."""
    try:
        result = walk(bases, depth, max_probes=max_probes, **kwargs)
    except IndeterminateDegreeError as exc:
        return "undetermined", exc.divisor_ids
    if values is not None:
        values.append([check.value for check in result.side_checks])
    return canonical_dump(result)


# depth per dimension: 15, 364 and 319 probes per base at most
DEPTHS = {2: 4, 3: 3, 4: 2}


def corpus(seed=9001, count=320):
    """(kind, bases, depth, max_probes): torsion 2-6, dimension 2-4, zero to
    two extras, on the root, a child or the fixed-up charts of a torsion-2
    model, and about half of the walks cut by the budget before, at or
    inside a level."""
    rng = random.Random(seed)
    for k in range(count):
        r = rng.randint(2, 6)
        dim = rng.randint(2, 4)
        labels = tuple(f"x{i + 1}" for i in range(dim))
        symbols = [(*rng.sample(range(dim), 2), rng.randrange(1, r))
                   for _ in range(rng.randint(0, 4))]
        degrees = {label: rng.randint(2, 4)
                   for label in rng.sample(labels, k % 3)}
        model = Model.affine(r, labels, symbols, degrees)
        kind = ("root", "child", "fixed")[k // 3 % 3]
        bases = (model.chart,)
        if kind == "child":
            center = tuple(sorted(rng.sample(range(dim), rng.randint(2, dim))))
            children = model.chart.children(center)
            bases = (children[rng.randrange(len(children))],)
        elif kind == "fixed":
            # symbols through one hub leave pairs of the others bad
            hub = rng.randrange(dim)
            symbols = [(hub, j, 1) for j in range(dim)
                       if j != hub and rng.random() < 0.8]
            try:
                bases = level_one_fixup(Model.affine(2, labels, symbols,
                                                     degrees)).charts
            except IndeterminateDegreeError:
                kind = "root"
        depth = DEPTHS[dim] - rng.randint(0, 1)
        width = 2 ** dim - dim - 1
        ends, size, total = [], len(bases) * width, 0
        for _ in range(depth):
            total, size = total + size, size * (dim * 2 ** (dim - 1) - dim)
            ends.append(total)
        end = rng.choice(ends)
        max_probes = rng.choice([200000, 200000, 0, end - 1, end, end + 1,
                                 rng.randint(1, ends[-1])])
        yield kind, bases, depth, max_probes


def test_row_walk_matches_the_chart_walk_on_a_seeded_corpus():
    kinds, cut, undetermined, merges, fixups = {}, 0, 0, [], 0
    values = []  # per walk, the row walk's side-check values
    for kind, bases, depth, max_probes in corpus():
        expected = outcome(chart_walk, bases, depth, max_probes,
                           narrowed=merges)
        got = outcome(enumerate_divisors, bases, depth, max_probes,
                      values=values)
        assert got == expected, (kind, bases[0].chart_id, depth,
                                 max_probes)
        kinds[kind] = kinds.get(kind, 0) + 1
        fixups += len(bases) > 1
        undetermined += expected[0] == "undetermined"
        cut += '"complete":false' in expected
    assert sum(kinds.values()) >= 300
    assert min(kinds.values()) >= 60, kinds
    assert undetermined >= 20 and cut >= 60 and fixups >= 20
    assert len(merges) >= 10000 and sum(merges) >= 10
    # one-step values blocked by an undetermined boundary degree, in many
    # walks, and failing ones
    blocked = [run.count(None) for run in values]
    assert sum(blocked) >= 4000 and sum(map(bool, blocked)) >= 75, blocked
    assert sum(value is not None and value < 0
               for run in values for value in run) >= 4800


def exposures(n, extras):
    """Every exposure of an n-slot chart with this many extras: per extra,
    an origin slot or -1 (gone), and any set of other exposed slots."""
    one = [(origin, frozenset(others)) for origin in range(-1, n)
           for size in range(n + 1)
           for others in combinations(
               [k for k in range(n) if k != origin], size)]
    return product(one, repeat=extras)


@pytest.mark.parametrize("n,extras", [(2, 1), (3, 1), (4, 1), (5, 1),
                                      (3, 2)])
def test_flag_table_matches_the_step_rule(n, extras):
    # a center's divisor is exact on an extra when the origin is in the
    # center and no other exposed slot is
    count = 0
    for exposure in exposures(n, extras):
        expected = tuple(
            tuple(origin in center
                  and not any(k in others for k in center)
                  for origin, others in exposure)
            for center in _centers(n))
        assert _flags(n, exposure) == expected, exposure
        count += 1
    assert count == ((n + 2) * 2 ** (n - 1)) ** extras
    assert _flags.cache_info().maxsize is not None
