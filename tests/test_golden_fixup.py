"""Golden fixup, bad strata and composition audits on a seeded corpus.

``test_golden.py`` pins these paths on the two bundled models only. The
digest here pins, for every chart of a seeded torsion-2 corpus, what
``find_bad_strata`` returns (the strata, or the divisor ids an
``IndeterminateDegreeError`` names), what ``level_one_fixup`` returns
(edges, leaves and rounds, or the partial tree of the
``NonterminationError`` at ``max_rounds=0``), and what ``check_composition``
returns on seeded routes (premises, side conditions, candidates and
reports). It was taken while charts were still ``Model`` objects with a
transported matrix, before the blow-up step moved to valuation rows.
Re-pin only for an intended change of these results, and say so in the
change log.
"""

import hashlib
import json
import random
from fractions import Fraction

from brauer_terminal.model import IndeterminateDegreeError, Model
from brauer_terminal.resolution import (NonterminationError,
                                        check_composition, find_bad_strata,
                                        level_one_fixup)

from .test_golden_enumeration import report_dumps


def descend(chart, center, pick):
    """The chart with index ``pick`` of the blow-up of ``center``."""
    return chart.children(center)[pick]


def chart_id(chart):
    return chart.chart_id


def fixup_corpus(seed=1101, count=240):
    """(chart, routes): torsion 2, dimension 2-5, every other model with
    extras, a third each on the root, a child and a grandchild chart, and
    two seeded routes of one to three blow-ups per chart."""
    rng = random.Random(seed)
    for k in range(count):
        dim = rng.randint(2, 5)
        labels = tuple(f"x{i + 1}" for i in range(dim))
        if rng.random() < 0.5:
            # symbols through one hub leave pairs of the others bad
            hub = rng.randrange(dim)
            symbols = [(hub, j, 1) for j in range(dim)
                       if j != hub and rng.random() < 0.8]
        else:
            symbols = [(*rng.sample(range(dim), 2), 1)
                       for _ in range(rng.randint(0, 4))]
        degrees = {} if k % 2 else {
            label: rng.randint(2, 4)
            for label in rng.sample(labels, rng.randint(1, 2))}
        chart = Model.affine(2, labels, symbols, degrees).chart
        for _ in range(k % 3):
            center = tuple(sorted(rng.sample(range(dim), rng.randint(2, dim))))
            chart = descend(chart, center, rng.randrange(len(center)))
        routes = []
        for _ in range(2):
            route = []
            for _ in range(rng.randint(1, 3)):
                center = tuple(sorted(rng.sample(range(dim),
                                                 rng.randint(2, dim))))
                route.append((center, rng.randrange(len(center))))
            routes.append((route, Fraction(rng.randint(-2, 2), 2)))
        yield chart, routes


def _fraction(value):
    return None if value is None else str(value)


def bad_dump(chart):
    try:
        return {"strata": [[list(s), [chart.divisor_ids[k] for k in s]]
                           for s in find_bad_strata(chart)]}
    except IndeterminateDegreeError as exc:
        return {"undetermined": list(exc.divisor_ids)}


def tree_dump(tree):
    return {"root": tree.root, "rounds": tree.rounds,
            "leaves": list(tree.leaves),
            "edges": [[e.parent, e.child, list(e.center), e.exceptional,
                       "fixup"] for e in tree.edges]}


def fixup_dump(chart, max_rounds):
    try:
        tree = level_one_fixup(chart, max_rounds=max_rounds)
    except IndeterminateDegreeError as exc:
        return {"undetermined": list(exc.divisor_ids)}
    except NonterminationError as exc:
        return {"nonterminating": tree_dump(exc.tree)}
    return {"tree": tree_dump(tree)}


def condition_dump(conditions):
    return [[c.name, _fraction(c.value), c.ok] for c in conditions]


def composition_dump(chart, route, lam):
    try:
        check = check_composition(chart, route, lam)
    except IndeterminateDegreeError as exc:
        return {"undetermined": list(exc.divisor_ids)}
    final = check.reports[-1]
    return {
        "divisor_id": final.divisor_id,
        "lam": _fraction(check.lam),
        "premises": condition_dump(check.premises),
        "side_conditions": condition_dump(check.side_conditions),
        "candidates": [[c.e, _fraction(c.b), _fraction(c.weighted),
                        c.b >= check.lam] for c in final.entries],
        "passed": check.passed,
        "reports": report_dumps(check.reports),
    }


def test_fixup_bad_strata_and_compositions_pinned():
    dumps = []
    for chart, routes in fixup_corpus():
        dumps.append([
            chart_id(chart), bad_dump(chart), fixup_dump(chart, 64),
            fixup_dump(chart, 0),
            [[[[list(c), p] for c, p in route], str(lam),
              composition_dump(chart, route, lam)] for route, lam in routes]])
    text = json.dumps(dumps, separators=(",", ":"))

    def count(key, slot):
        return sum(key in d[slot] for d in dumps)

    assert count("undetermined", 1) >= 30
    assert sum(len(d[1].get("strata", ())) > 0 for d in dumps) >= 40
    assert sum(d[2].get("tree", {}).get("rounds", 0) > 1 for d in dumps) >= 10
    assert count("nonterminating", 3) >= 40
    audits = [a[2] for d in dumps for a in d[4]]
    assert sum("undetermined" in a for a in audits) >= 40
    assert sum(a.get("passed") is False for a in audits) >= 25
    assert sum(a.get("passed") is True for a in audits) >= 100
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ace2f24b95021627c1f057ac9080b01e9aaf76157820dea030229b310724865d")
