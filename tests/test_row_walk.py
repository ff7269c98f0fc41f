"""The row walk of ``enumerate_divisors`` against a chart walk on models.

``enumerate_divisors`` reads every number of a step off valuation rows:
the residue order from the base matrix, the extras' exposures and exact
flags from the base vectors, and a from scaled integers. So its own
cross-route checks compare the row formulas with themselves. The reference
here walks ``Model`` charts instead: ``Model.blow_up`` transports the
symbol matrix and the extras chart by chart, and ``discrepancy._step``
reads a, the degree and the one-step value off each chart. It has no
state reuse, no scaled integers and no child pruning, and it checks on
every repeated divisor that a and the monomial order agree between routes.
The two must give the same canonical dump: every report, side check,
``probes``, ``complete`` and indeterminate divisor.
"""

import random
from collections import deque

from brauer_terminal.charts import strata
from brauer_terminal.discrepancy import (DiscrepancyReport, WitnessStep,
                                         _base_abar, _boundary_table, _report,
                                         _step)
from brauer_terminal.model import (CoverDegree, IndeterminateDegreeError,
                                   Model)
from brauer_terminal.enumeration import (EnumerationResult, SideCheck,
                                         enumerate_divisors)
from brauer_terminal.resolution import level_one_fixup

from .test_golden_enumeration import canonical_dump


def merge(seen, step):
    """Another route's step to a reported divisor: a and the monomial order
    must agree, and the candidate lists are intersected."""
    assert step.a == seen.a, seen.divisor_id
    assert step.degree.monomial_order == seen.degree.monomial_order, \
        seen.divisor_id
    merged = tuple(sorted(set(seen.degree.candidates)
                          & set(step.degree.candidates)))
    assert merged, seen.divisor_id
    if merged == seen.degree.candidates:
        return seen
    sources = () if len(merged) == 1 else tuple(sorted(
        set(seen.degree.sources) | set(step.degree.sources)))
    return DiscrepancyReport.from_degree(
        divisor_id=seen.divisor_id, level=seen.level, witness=seen.witness,
        a=seen.a, degree=CoverDegree(seen.degree.monomial_order, merged,
                                     sources))


def chart_walk(bases, depth, max_probes, narrowed=None):
    """Breadth-first over ``Model`` charts, one ``_step`` per probe; counts
    the merges that narrow a candidate list in ``narrowed``."""
    queue = deque((m, _base_abar(m), ()) for m in bases if depth > 0)
    reports, checks, probes, complete = {}, [], 0, True
    while queue:
        if probes >= max_probes:
            complete = False
            break
        model, abar, witness = queue.popleft()
        boundary = _boundary_table(model)
        for stratum in [s for codim in range(2, model.dim + 1)
                        for s in strata(model.chart, codim)]:
            if probes >= max_probes:
                complete = False
                break
            probes += 1
            step = _step(model, stratum, abar, boundary)
            chart_id = model.chart.chart_id
            checks.append(SideCheck(step.divisor_id, chart_id,
                                    stratum.divisor_ids, step.one_step))
            route = witness + (WitnessStep(chart_id, stratum.indices,
                                           stratum.divisor_ids),)
            seen = reports.get(step.divisor_id)
            reports[step.divisor_id] = (_report(step, route) if seen is None
                                        else merge(seen, step))
            if narrowed is not None and seen is not None:
                narrowed.append(reports[step.divisor_id] is not seen)
            if len(route) < depth:
                for child in model.blow_up(stratum).children:
                    p = child.chart.pivot
                    queue.append((child, abar[:p] + (-step.a,) + abar[p + 1:],
                                  route))
    ordered = sorted(reports.values(), key=lambda r: (
        r.level, [(s.chart_id, s.indices) for s in r.witness], r.divisor_id))
    return EnumerationResult(
        reports=tuple(ordered), side_checks=tuple(checks),
        indeterminate_divisors=tuple(sorted(
            r.divisor_id for r in ordered if not r.degree.determinate)),
        complete=complete, probes=probes)


def outcome(walk, bases, depth, max_probes, **kwargs):
    try:
        return canonical_dump(walk(bases, depth, max_probes=max_probes,
                                   **kwargs))
    except IndeterminateDegreeError as exc:
        return "undetermined", exc.divisor_ids


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
        bases = (model,)
        if kind == "child":
            center = tuple(sorted(rng.sample(range(dim), rng.randint(2, dim))))
            children = model.blow_up(center).children
            bases = (children[rng.randrange(len(children))],)
        elif kind == "fixed":
            # symbols through one hub leave pairs of the others bad
            hub = rng.randrange(dim)
            symbols = [(hub, j, 1) for j in range(dim)
                       if j != hub and rng.random() < 0.8]
            try:
                bases = level_one_fixup(Model.affine(2, labels, symbols,
                                                     degrees)).models
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
    for kind, bases, depth, max_probes in corpus():
        expected = outcome(chart_walk, bases, depth, max_probes,
                           narrowed=merges)
        got = outcome(enumerate_divisors, bases, depth, max_probes)
        assert got == expected, (kind, bases[0].chart.chart_id, depth,
                                 max_probes)
        kinds[kind] = kinds.get(kind, 0) + 1
        fixups += len(bases) > 1
        undetermined += expected[0] == "undetermined"
        cut += '"complete":false' in expected
    assert sum(kinds.values()) >= 300
    assert min(kinds.values()) >= 60, kinds
    assert undetermined >= 20 and cut >= 60 and fixups >= 20
    assert len(merges) >= 10000 and sum(merges) >= 10
