"""A child chart's step on a center off its pivot is its parent's step.

``enumerate_divisors`` gives a child chart its parent's step for every
center that avoids the child's pivot slot instead of running the walk's
step again. That is exact because the child differs from its parent only
in the pivot slot: its row, divisor id, exact flags and coefficient. These
tests run the fresh step on such centers and compare it with the parent's
in every field, over a seeded subset of the row-walk corpus, down two
levels of charts.
"""

import random

from brauer_terminal.model import _centers, _put
from brauer_terminal.resolution import remark_model

from .test_row_walk import corpus


def coefficient_row(rng, chart):
    """Integer coefficients for the slots, so that ``a`` is an integer even
    where a boundary degree is undetermined."""
    scale = chart.model.walk.scale
    return tuple(rng.randint(-2 * scale, 2 * scale) for _ in chart.rows)


def origin_slots(chart):
    """Each extra's origin slot in the chart, -1 once gone."""
    ids = chart.divisor_ids
    return [ids.index(c.origin_id) if c.origin_id in ids else -1
            for c in chart.model.extras]


def compare_children(chart, abar, levels):
    """Steps checked and those whose pivot held an extra's origin, over the
    children of ``chart`` and, ``levels`` deep, their children."""
    walk = chart.model.walk
    exposure = walk.exposure(chart)
    origins = origin_slots(chart)
    checked = origin_pivots = 0
    steps = [walk.step(chart, exposure, center, abar)
             for center in _centers(chart.dim)]
    for center, step in zip(_centers(chart.dim), steps):
        for p, child in zip(center, walk.children(chart, center, step)):
            below = _put(abar, p, -step.a)
            child_exposure = walk.exposure(child)
            for n, other in enumerate(_centers(chart.dim)):
                if p in other:
                    continue
                fresh = walk.step(child, child_exposure, other, below)
                assert fresh == steps[n], (child.chart_id, other)
                assert fresh.degree is steps[n].degree
                checked += 1
                origin_pivots += p in origins
            if levels > 1:
                more = compare_children(child, below, levels - 1)
                checked += more[0]
                origin_pivots += more[1]
    return checked, origin_pivots


def test_children_share_their_parents_steps_off_the_pivot():
    rng = random.Random(4417)
    checked = origin_pivots = cases = 0
    for k, (_, bases, _, _) in enumerate(corpus()):
        if k % 4:
            continue
        cases += 1
        for base in bases:
            more = compare_children(base, coefficient_row(rng, base), 2)
            checked += more[0]
            origin_pivots += more[1]
    assert cases == 80
    assert checked >= 100000 and origin_pivots >= 10000


def test_pivot_on_an_extra_origin():
    # remark blows up (x1, x3), and the chart with pivot on x3 loses the
    # extra's origin; (x1, x2) avoids the pivot
    chart = remark_model().chart
    walk = chart.model.walk
    exposure = walk.exposure(chart)
    assert origin_slots(chart) == [2]
    abar = walk.base_row(chart)
    step = walk.step(chart, exposure, (0, 2), abar)
    child = walk.children(chart, (0, 2), step)[1]
    assert child.chart_id == "r.1-3p3"
    assert origin_slots(child) == [-1]
    below = _put(abar, 2, -step.a)
    fresh = walk.step(child, walk.exposure(child), (0, 1), below)
    assert fresh == walk.step(chart, exposure, (0, 1), abar)
    # the same one level down, on the child's own pivot x1
    step = walk.step(child, walk.exposure(child), (0, 2), below)
    grandchild = walk.children(child, (0, 2), step)[0]
    deeper = _put(below, 0, -step.a)
    assert (walk.step(grandchild, walk.exposure(grandchild), (1, 2), deeper)
            == walk.step(child, walk.exposure(child), (1, 2), below))
