"""The valuation walk that ``certify`` runs for torsion 2 without extras.

``enumerate_divisors`` walks charts and is the reference: on the same bases
and budget the walk must return the same reports (ids, levels, witnesses,
a, degrees, entries) and the same ``complete``. The chart walk's side
checks must all pass there too, since the valuation walk produces none.
The walk sorts its reports by one number each, which must give the order
of ``_witness_key``, the chart walk's sort key.
"""

import gc
import random
import tracemalloc
from itertools import combinations, pairwise
from operator import mul

import pytest

from brauer_terminal import resolution
from brauer_terminal.enumeration import (DEFAULT_MAX_PROBES, _reach,
                                         _valuation_walk, _witness_key)
from brauer_terminal.model import Model, _centers
from brauer_terminal.resolution import (certify, enumerate_divisors,
                                        find_bad_strata, level_one_fixup)

from .oracles import SymbolClass, monomial_order, signed_lift
from .test_golden_enumeration import bad_case_bases, dim4_plain


def torsion_two_model(rng, dim):
    # symbols mostly through one hub coordinate, which leaves pairs of
    # other coordinates bad and gives fixups of several rounds
    labels = tuple(f"x{k + 1}" for k in range(dim))
    hub, density = rng.randrange(dim), rng.random() / 2
    symbols = [(i, j, 1) for i, j in combinations(range(dim), 2)
               if rng.random() < (0.8 if hub in (i, j) else density)]
    return Model.affine(2, labels, symbols)


def assert_walks_agree(bases, depth, max_probes=200000):
    bases = (bases.chart,) if isinstance(bases, Model) else tuple(bases)
    reference = enumerate_divisors(bases, depth, max_probes=max_probes)
    walked = _valuation_walk(bases, depth, max_probes)
    assert walked.reports == reference.reports
    assert (walked.complete, walked.probes) == (reference.complete,
                                                reference.probes)
    assert walked.indeterminate_divisors == reference.indeterminate_divisors
    assert walked.side_checks == ()
    assert not any(check.value is not None and check.value < 0
                   for check in reference.side_checks)
    return reference


# (dimension, depth, raw models, fixed-up models); the chart walk makes
# 2^n - n - 1 probes times (n 2^(n-1) - n)^(depth - 1) per base
CORPUS = [(dim, depth, 3, 3) for dim in (1, 2, 3) for depth in (1, 2, 3)] + [
    (4, 1, 3, 3), (4, 2, 3, 3), (4, 3, 1, 0), (5, 1, 2, 2), (5, 2, 1, 1)]


def test_matches_the_chart_walk_on_a_seeded_corpus():
    rng = random.Random(1101)
    models = reported = 0
    for dim, depth, raw, fixed in CORPUS:
        for fixup in [False] * raw + [True] * fixed:
            model = torsion_two_model(rng, dim)
            bases = level_one_fixup(model).charts if fixup else (model.chart,)
            reported += len(assert_walks_agree(bases, depth).reports)
            models += 1
    assert models >= 60
    assert reported >= 2000


@pytest.mark.parametrize("bases,depth,width,level_ends", [
    # two bases, 4 centers and 9 children per chart
    (bad_case_bases, 4, 4, (8, 80, 728, 6560)),
    # one base, 11 centers and 28 children per chart
    (dim4_plain, 3, 11, (11, 319, 8943)),
], ids=["bad-case-fixed-depth4", "x1x3+x2x4-depth3"])
def test_matches_the_chart_walk_under_budget_cuts(bases, depth, width,
                                                  level_ends):
    # before the first probe, around the first chart and every level end,
    # and inside a level
    cuts = sorted({0, 1, width - 1, width, width + 1, 3001,
                   *(end + step for end in level_ends for step in (-1, 0, 1))})
    completed = [max_probes for max_probes in cuts
                 if assert_walks_agree(bases(), depth, max_probes).complete]
    assert completed == [c for c in cuts if c >= level_ends[-1]]


BUDGET_BASES = {
    "1-slot": lambda: (Model.affine(2, ("x1",)).chart,),
    "2-slot": lambda: (Model.affine(2, ("x1", "x2"), [(0, 1, 1)]).chart,),
    "bad-case": lambda: (Model.affine(2, ("x1", "x2", "x3"),
                                      [(0, 2, 1), (1, 2, 1)]).chart,),
    "bad-case-fixed": lambda: tuple(bad_case_bases()),
    "x1x3+x2x4": lambda: (dim4_plain().chart,),
}


@pytest.mark.parametrize("name", BUDGET_BASES)
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_walks_agree_on_every_budget(name, depth):
    # both walks read their budget off one rule; probes are numbered by
    # level, chart and center, so the full walk makes B C (1 + K + ... +
    # K^(depth-1)) of them, which starts[l] adds up to level l
    bases = BUDGET_BASES[name]()
    n = bases[0].dim
    width, fan = 2 ** n - n - 1, n * 2 ** (n - 1) - n
    starts = [len(bases) * width * sum(fan ** k for k in range(level))
              for level in range(depth + 1)]
    full = starts[-1]
    if full <= 400:  # every budget, so every cut inside a chart
        budgets = range(full + 2)
    else:  # around each level start, and inside a chart of every level
        budgets = sorted({0, 1, width - 1, width + 1, *(
            start + step for start in starts
            for step in (-1, 0, 1, width // 2, width + 1))})
    for max_probes in budgets:
        result = assert_walks_agree(bases, depth, max_probes)
        # depth 0 is complete whatever the budget, a budget of 0 cuts any
        # other walk, even one without centers
        assert result.complete == (depth == 0 or max_probes >= max(full, 1))
        assert result.probes == max(min(max_probes, full), 0)


def test_certify_walks_charts_only_for_extras(monkeypatch):
    walked = []
    enumerate_charts = resolution.enumerate_divisors

    def counted(*args, **kwargs):
        walked.append(args)
        return enumerate_charts(*args, **kwargs)

    monkeypatch.setattr(resolution, "enumerate_divisors", counted)
    plain = certify(dim4_plain(), depth=2)
    assert plain.verdict == "terminal-certified" and walked == []
    extras = Model.affine(2, ("x1", "x2", "x3"), [(0, 2, 1)],
                          extra_degrees={"x2": 2})
    certify(extras, depth=2)
    assert len(walked) == 1


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_torsion_two_bound_over_the_reach_map(dim):
    # Torsion 2 without extras: b(E_v) = sum v_k / e_k - 1 / e_v with every
    # e in {1, 2}, so b >= |v|_1 / 2 - 1, and b > 0 once |v|_1 >= 3. b = 0
    # only on v = e_i + e_j of a bad stratum, which the fixup blows up.
    # This is the paper's theorem in this local model, checked on every
    # valuation that five blow-ups of the root extract; 2b is an integer.
    rng = random.Random(1200 + dim)
    reach = _reach(dim, 5)
    labels = tuple(f"x{k + 1}" for k in range(dim))
    # symbols through the last coordinate leave its neighbours a bad stratum
    models = [torsion_two_model(rng, dim) for _ in range(2)] + [
        Model.affine(2, labels, [(k, dim - 1, 1) for k in range(dim - 1)])]
    zeros = degenerate = 0
    for model in models:
        halves = [2 // model.cover_on(k).value for k in range(dim)]
        lift = signed_lift(SymbolClass.of(model))
        bad = set(find_bad_strata(model))
        degenerate += len(bad)
        for v in reach:
            twice_b = sum(map(mul, v, halves)) - 2 // monomial_order(v, lift, 2)
            assert twice_b >= sum(v) - 2, v
            if sum(v) >= 3:
                assert twice_b > 0, v
            if twice_b == 0:
                zeros += 1
                assert tuple(k for k, x in enumerate(v) if x) in bad, v
    assert len(reach) == {2: 31, 3: 844, 4: 19049}[dim]
    assert zeros == degenerate and (dim == 2 or zeros > 0)


def assert_witness_order(result):
    # the walk sorts by one rank per report; _witness_key is the reference
    assert list(result.reports) == sorted(result.reports, key=_witness_key)
    return result


def test_rank_order_on_the_two_slot_model_with_budget_cuts():
    model = Model.affine(2, ("x1", "x2"), [(0, 1, 1)])
    cut = 0
    # the root, and the two charts of its blow-up as two bases
    for bases in [(model.chart,), tuple(model.chart.children((0, 1)))]:
        for depth in range(1, 15):
            walked = assert_witness_order(
                _valuation_walk(bases, depth, DEFAULT_MAX_PROBES))
            assert walked.complete
        for max_probes in (0, 1, 2, 3, 1000, 4097, 8191, 12345):
            walked = assert_witness_order(
                _valuation_walk(bases, 14, max_probes))
            cut += not walked.complete
    assert cut == 16


def engine_route(report, centers):
    """A report's route in engine order: each blow-up as its center's index
    in ``centers`` and its pivot, then the last center's index."""
    steps = report.witness
    pivots = [int(step.chart_id.rsplit("p", 1)[1]) for step in steps[1:]]
    return [(centers.index(step.indices), pivot)
            for step, pivot in zip(steps, pivots)] + [
        centers.index(steps[-1].indices)]


def test_rank_order_where_chart_ids_and_engine_order_disagree():
    # every slot has degree 2, so blowing up two slots is crepant and the
    # leaves of such blow-ups are bases of one pair; these are in leaf
    # order, which is not chart-id order
    model = Model.affine(2, ("x1", "x2", "x3"), [(0, 1, 1), (1, 2, 1)])
    root = model.chart
    first, second = root.children((0, 1))
    leaves = (second, *first.children((0, 1)))
    ids = [chart.chart_id for chart in leaves]
    assert ids != sorted(ids)
    centers = _centers(3)
    engine = strings = 0
    for bases in [(root,), leaves]:
        for depth in (1, 2, 3, 4):
            walked = assert_walks_agree(bases, depth)
            assert_witness_order(walked)
            for one, two in pairwise(walked.reports):
                if (one.level, one.witness[0].chart_id) != (
                        two.level, two.witness[0].chart_id):
                    continue
                # an engine-order rank would put two first
                engine += (engine_route(one, centers)
                           > engine_route(two, centers))
                # so would chart-id order: only centers (0, 1) then
                # (0, 1, 2) do that, as "...1-2-3p1" < "...1-2p1"
                strings += (one.witness[-1].chart_id
                            > two.witness[-1].chart_id)
    assert engine > 0 and strings > 0


def test_warm_certify_peak_over_retained_memory():
    # a warm certify of the 2-slot model at depth 14 (16 383 reports) should
    # hold at its peak little beyond the certificate it returns: per
    # report O(1) bookkeeping, no O(depth) sort key
    model = Model.affine(2, ("x1", "x2"), [(0, 1, 1)])
    certify(model, depth=14)
    gc.collect()
    tracemalloc.start()
    try:
        cert = certify(model, depth=14)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cert.reports) == 16383
    assert peak / retained < 2.5, (peak, retained)
