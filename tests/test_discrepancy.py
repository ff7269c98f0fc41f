"""Boundary divisors and one-step discrepancies.

The b-values here were frozen against hand expansion and the toric oracle:
for a boundary with coefficients d_k, the divisor with valuation v has
a = sum v_k (1 - d_k) - 1, and b = a + 1 - 1/e.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction
from math import gcd

import pytest

from brauer_terminal import discrepancy
import brauer_terminal.model as model_module
from brauer_terminal.discrepancy import (DiscrepancyReport, ReportEntry,
                                         WitnessStep, _entries, b_from_a,
                                         boundary_divisor, brauer_discrepancy,
                                         stratum_discrepancies)
from brauer_terminal.model import (CoverDegree, IndeterminateDegreeError, Model,
                                   _RowWalk, candidate_orders)
from brauer_terminal.resolution import certify, remark_model

from .oracles import toric_discrepancy


def bad_case():
    return Model.affine(2, ("x1", "x2", "x3"), [(0, 2, 1), (1, 2, 1)])


class TestBoundaryDivisor:
    def test_bad_case_boundary(self):
        boundary = boundary_divisor(bad_case())
        assert boundary == (
            ("x1", Fraction(1, 2)),
            ("x2", Fraction(1, 2)),
            ("x3", Fraction(1, 2)),
        )

    def test_plain_tuple_or_every_offender(self):
        boundary = boundary_divisor(bad_case())
        assert type(boundary) is tuple
        assert all(type(pair) is tuple for pair in boundary)
        model = Model.affine(3, ("x1", "x2", "x3"), [(0, 1, 1)],
                             extra_degrees={"x3": 3})
        chart = model.chart.children((0, 2))[0].children((0, 1))[0]
        with pytest.raises(IndeterminateDegreeError) as err:
            boundary_divisor(chart.children((0, 1))[1])
        assert err.value.divisor_ids == ("E(1,1,1)", "E(1,2,1)")

    def test_trivial_boundary(self):
        boundary = boundary_divisor(Model.affine(2, ("x1", "x2")))
        assert dict(boundary) == {"x1": 0, "x2": 0}

    def test_indeterminate_lists_all_offenders(self):
        model = Model.affine(3, ("x1", "x2", "x3"), [(0, 1, 1)],
                             extra_degrees={"x3": 3})
        chart_b = model.chart.children((0, 2))[1]
        f_child = chart_b.children((0, 2))[0]
        with pytest.raises(IndeterminateDegreeError) as err:
            boundary_divisor(f_child)
        assert err.value.divisor_ids == ("E(2,0,1)",)


class TestClassicalDiscrepancy:
    def test_codim_two(self):
        model = bad_case()
        assert brauer_discrepancy(model, (0, 1)).a == 0
        assert brauer_discrepancy(model, (0, 2)).a == 0

    def test_codim_three(self):
        assert brauer_discrepancy(bad_case(), (0, 1, 2)).a == Fraction(1, 2)

    def test_matches_toric_oracle(self):
        model = bad_case()
        boundary = [Fraction(1, 2)] * 3
        assert brauer_discrepancy(model, (0, 1)).a == \
            toric_discrepancy((1, 1, 0), boundary)
        assert brauer_discrepancy(model, (0, 1, 2)).a == \
            toric_discrepancy((1, 1, 1), boundary)

    def test_trivial_pair(self):
        model = Model.affine(2, ("x1", "x2", "x3"))
        assert brauer_discrepancy(model, (0, 1)).a == 1
        assert brauer_discrepancy(model, (0, 1, 2)).a == 2


class TestBrauerDiscrepancy:
    def test_degenerate_stratum_is_zero(self):
        report = brauer_discrepancy(bad_case(), (0, 1))
        assert report.divisor_id == "E(1,1,0)"
        assert report.degree.value == 1
        assert report.entries == (ReportEntry(1, Fraction(0), Fraction(0)),)

    def test_live_stratum(self):
        report = brauer_discrepancy(bad_case(), (0, 2))
        assert report.degree.value == 2
        assert report.entries[0].b == Fraction(1, 2)
        assert report.entries[0].weighted == 1

    def test_codim_three_positive(self):
        # a = 3 - 1 - 3*(1/2) = 1/2, e = 2, so b = a + 1 - 1/2 = 1
        report = brauer_discrepancy(bad_case(), (0, 1, 2))
        assert report.a == Fraction(1, 2)
        assert report.entries[0].b == 1
        assert report.entries[0].weighted == 2

    def test_codim_one_center_rejected(self):
        # a divisor is no blow-up center, and the degree read must say so
        model = bad_case()
        with pytest.raises(ValueError, match="codimension"):
            brauer_discrepancy(model, (0,))
        with pytest.raises(ValueError, match="codimension"):
            model.chart.children((1,))

    def test_each_step_built_once(self, monkeypatch):
        # the 26 centers of a 5-slot chart are 26 steps: each center of
        # codimension 3 and up extends its prefix, built once for all
        model = Model.affine(3, [f"x{k + 1}" for k in range(5)],
                             [(0, 1, 1), (2, 3, 1)], extra_degrees={"x5": 3})
        reports = stratum_discrepancies(model)
        built = []
        step = model_module._RowStep
        monkeypatch.setattr(model_module, "_RowStep",
                            lambda *args: built.append(args) or step(*args))
        assert stratum_discrepancies(model) == reports
        assert len(reports) == len(built) == 26
        built.clear()
        # one center builds its chain of prefixes, sorted first
        report = brauer_discrepancy(model, (4, 0, 2, 1, 3))
        assert len(built) == 4
        assert report == reports[-1]
        assert report.witness[0].indices == (0, 1, 2, 3, 4)

    def test_identity_with_classical_route(self):
        model = bad_case()
        boundary = [Fraction(1, 2)] * 3
        for center in ((0, 1), (0, 2), (1, 2), (0, 1, 2)):
            report = brauer_discrepancy(model, center)
            a = toric_discrepancy([int(k in center) for k in range(3)],
                                  boundary)
            assert report.a == a
            for entry in report.entries:
                assert entry.b == b_from_a(a, entry.e), (
                    f"b = a + 1 - 1/e broken at {center}: "
                    f"{entry.b} vs {b_from_a(a, entry.e)}"
                )

    def test_boundary_read_once(self, monkeypatch):
        calls = []
        base_row = _RowWalk.base_row

        def counted(walk, chart):
            calls.append(chart)
            return base_row(walk, chart)

        monkeypatch.setattr(_RowWalk, "base_row", counted)
        report = brauer_discrepancy(bad_case(), (0, 1, 2))
        assert len(calls) == 1
        assert report.a == Fraction(1, 2)

    def test_indeterminate_center_gives_candidate_rows(self):
        model = Model.affine(3, ("x1", "x2", "x3"), [(0, 1, 1)],
                             extra_degrees={"x3": 3})
        chart_b = model.chart.children((0, 2))[1]
        report = brauer_discrepancy(chart_b, (0, 2))
        assert [e.e for e in report.entries] == [1, 3]
        assert not report.determinate


class TestBFromA:
    @pytest.mark.parametrize("a,e,expected", [
        (Fraction(0), 1, Fraction(0)),
        (Fraction(0), 2, Fraction(1, 2)),
        (Fraction(-1, 3), 3, Fraction(1, 3)),
        (Fraction(1, 2), 2, Fraction(1)),
    ])
    def test_values(self, a, e, expected):
        assert b_from_a(a, e) == expected

    def test_degree_positive(self):
        with pytest.raises(ValueError):
            b_from_a(Fraction(0), 0)

    @pytest.mark.parametrize("a", [0.1, 1.0, "1/2"])
    def test_only_rationals(self, a):
        with pytest.raises(TypeError):
            b_from_a(a, 2)


class TestReportInvariants:
    def test_entries_must_satisfy_identity(self):
        degree = CoverDegree(2, (2,))
        step = WitnessStep("r", (0, 1), ("x1", "x2"))
        with pytest.raises(ValueError):
            DiscrepancyReport(
                divisor_id="E(1,1,0)", level=1, witness=(step,),
                a=Fraction(0), degree=degree,
                entries=(ReportEntry(2, Fraction(1), Fraction(2)),),
            )

    def test_entries_must_follow_candidates(self):
        degree = CoverDegree(3, (1, 3))
        step = WitnessStep("r", (0, 1), ("x1", "x2"))
        with pytest.raises(ValueError):
            DiscrepancyReport(
                divisor_id="E", level=1, witness=(step,), a=Fraction(0),
                degree=degree, entries=(ReportEntry(1, Fraction(0), Fraction(0)),),
            )

    def test_weighted_checked(self):
        with pytest.raises(ValueError):
            ReportEntry(2, Fraction(1, 2), Fraction(2))


def lowest_terms(x):
    return type(x) is Fraction and x.denominator > 0 \
        and gcd(x.numerator, x.denominator) == 1


class TestReportArithmetic:
    """``from_degree`` builds b and e*b from a's numerator and denominator.

    They must equal the formulas with Fraction operators, in lowest terms,
    and a one-unit change to either must be rejected on construction.
    """

    CANDIDATES = sorted({candidate_orders(m, g) for m in range(1, 7)
                         for g in (1, 4, 6)})
    STEP = WitnessStep("r", (0, 1), ("x1", "x2"))

    def report(self, a, candidates, entries=None):
        degree = CoverDegree(candidates[-1], candidates)
        if entries is None:
            return DiscrepancyReport.from_degree(
                divisor_id="E", level=1, witness=(self.STEP,), a=a,
                degree=degree)
        return DiscrepancyReport(divisor_id="E", level=1,
                                 witness=(self.STEP,), a=a, degree=degree,
                                 entries=entries)

    def test_sweep_matches_fraction_operators(self):
        assert len(self.CANDIDATES) >= 10
        assert max(map(len, self.CANDIDATES)) == 4
        for q in range(1, 25):
            for p in range(-40, 41):
                a = Fraction(p, q)
                rows = {}
                for e in {e for c in self.CANDIDATES for e in c}:
                    b = a + 1 - Fraction(1, e)
                    rows[e] = (e, b, e * b)
                    assert b_from_a(a, e) == b
                for candidates in self.CANDIDATES:
                    report = self.report(a, candidates)
                    assert report.a is a
                    got = tuple((x.e, x.b, x.weighted)
                                for x in report.entries)
                    assert got == tuple(map(rows.get, candidates)), \
                        (a, candidates)
                    for entry in report.entries:
                        assert lowest_terms(entry.b), (a, entry)
                        assert lowest_terms(entry.weighted), (a, entry)

    def test_integer_a_becomes_a_fraction(self):
        report = self.report(-2, (1, 3))
        assert type(report.a) is Fraction and report.a == -2
        assert [x.b for x in report.entries] == [-2, Fraction(-4, 3)]

    @pytest.mark.parametrize("a", [0.1, 1.0, "1/2"])
    def test_only_rationals(self, a):
        # 0.1 would be stored as 3602879701896397/36028797018963968
        with pytest.raises(TypeError):
            self.report(a, (1, 3))

    @pytest.mark.parametrize("a,value", [(True, 1), (0, 0), (-2, -2)])
    def test_constructor_stores_a_fraction(self, a, value):
        built = self.report(value, (1, 3))
        for report in (self.report(a, (1, 3), built.entries),
                       dataclasses.replace(built, a=a)):
            assert type(report.a) is Fraction and report == built

    @pytest.mark.parametrize("a", [0.5, 1.0, "1/2"])
    def test_constructor_only_rationals(self, a):
        built = self.report(Fraction(1, 2), (1, 3))
        with pytest.raises(TypeError):
            self.report(a, (1, 3), built.entries)
        with pytest.raises(TypeError):
            dataclasses.replace(built, a=a)

    def test_one_unit_changes_rejected(self):
        for q in range(1, 25, 5):
            for p in range(-40, 41, 7):
                a = Fraction(p, q)
                for candidates in self.CANDIDATES:
                    entries = self.report(a, candidates).entries
                    for k, entry in enumerate(entries):
                        e, b, w = entry.e, entry.b, entry.weighted
                        for du in (-1, 1):
                            b2 = Fraction(b.numerator + du, b.denominator)
                            w2 = Fraction(w.numerator + du, w.denominator)
                            with pytest.raises(ValueError):
                                ReportEntry(e, b2, w)
                            with pytest.raises(ValueError):
                                ReportEntry(e, b, w2)
                            # a consistent entry whose b is off a
                            shifted = entries[:k] + (
                                ReportEntry(e, b2, e * b2),) + entries[k + 1:]
                            with pytest.raises(ValueError):
                                self.report(a, candidates, shifted)
                    assert self.report(a, candidates, entries).entries \
                        == entries


class TestEntryMemo:
    """A report's entries come from one bounded memo keyed by a's numerator,
    a's denominator and the candidates, and are shared between reports."""

    CANDIDATES = sorted({candidate_orders(m, g) for m in range(1, 13)
                         for g in (1, 4, 6, 12)})
    STEP = WitnessStep("r", (0, 1), ("x1", "x2"))

    def report(self, a, candidates):
        return DiscrepancyReport.from_degree(
            divisor_id="E", level=1, witness=(self.STEP,), a=a,
            degree=CoverDegree(candidates[-1], candidates))

    def test_equal_a_shares_entries(self):
        for a, same in ((-2, Fraction(-2)), (Fraction(3, 4), Fraction(6, 8))):
            first = self.report(a, (1, 3))
            assert self.report(same, (1, 3)).entries is first.entries
            assert self.report(a, (1, 2)).entries is not first.entries

    def test_sweep_cold_and_warm(self):
        keys = [(Fraction(p, q), candidates)
                for q in (1, 2, 3, 4, 6, 12, 60) for p in range(-40, 41)
                for candidates in self.CANDIDATES]
        distinct = {(a.numerator, a.denominator, c) for a, c in keys}
        assert len(distinct) > 2 * _entries.cache_info().maxsize
        _entries.cache_clear()
        # the warm pass runs backwards, so it starts on the keys the cold
        # pass left in the memo and then runs into evicted ones
        for sweep in (keys, keys[::-1]):
            for a, candidates in sweep:
                got = tuple((x.e, x.b, x.weighted)
                            for x in self.report(a, candidates).entries)
                want = tuple((e, a + 1 - Fraction(1, e),
                              e * (a + 1 - Fraction(1, e)))
                             for e in candidates)
                assert got == want, (a, candidates)
        info = _entries.cache_info()
        assert info.hits > 0 and info.misses > len(distinct)
        assert info.currsize == info.maxsize

    def test_checked_once_per_memo_miss(self, monkeypatch):
        checked = []
        check = discrepancy._check_entries

        def counted(p, q, candidates, entries):
            checked.append((p, q, candidates))
            return check(p, q, candidates, entries)

        monkeypatch.setattr(discrepancy, "_check_entries", counted)
        _entries.cache_clear()
        keys = [(Fraction(p, q), candidates) for q in (1, 2, 3, 4, 6)
                for p in range(-6, 7) for candidates in self.CANDIDATES[:8]]
        distinct = list(dict.fromkeys(
            (a.numerator, a.denominator, c) for a, c in keys))
        assert len(distinct) < _entries.cache_info().maxsize
        for a, candidates in keys + keys:
            self.report(a, candidates)
        info = _entries.cache_info()
        assert checked == distinct
        assert info.misses == len(distinct)
        assert info.hits == 2 * len(keys) - len(distinct)

    def test_entries_of_another_a_rejected(self):
        entries = self.report(Fraction(1, 3), (1, 3)).entries
        with pytest.raises(ValueError, match="breaks b = a \\+ 1 - 1/e"):
            DiscrepancyReport(
                divisor_id="E", level=1, witness=(self.STEP,),
                a=Fraction(2, 3), degree=CoverDegree(3, (1, 3)),
                entries=entries)


def check_built_as_constructed(obj):
    """A report or witness step as the engine built it agrees with one the
    constructor builds from its fields, and copies and pickles like it."""
    cls = type(obj)
    values = {field.name: getattr(obj, field.name)
              for field in dataclasses.fields(cls)}
    made = cls(**values)
    for other in (made, dataclasses.replace(obj), copy.deepcopy(obj),
                  pickle.loads(pickle.dumps(obj))):
        assert type(other) is cls
        assert other == obj and obj == other
        assert hash(other) == hash(obj)
        assert repr(other) == repr(obj)
    name = dataclasses.fields(cls)[-1].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, values[name])


class TestBuiltReports:
    """``from_degree`` and the walks build reports and witness steps
    without their constructors; the objects must not tell."""

    def test_arithmetic_sweep(self):
        sweep = TestReportArithmetic()
        for q in range(1, 25):
            for p in range(-40, 41, 7):
                a = Fraction(p, q)
                for candidates in sweep.CANDIDATES:
                    report = sweep.report(a, candidates)
                    check_built_as_constructed(report)
                    # ``replace`` runs the constructor's check
                    with pytest.raises(ValueError, match="breaks"):
                        dataclasses.replace(report, a=a + 1)

    @pytest.mark.parametrize("model,depth", [
        (bad_case, 4), (remark_model, 4),
        (lambda: Model.affine(3, ("x1", "x2", "x3", "x4"), [(0, 1, 1)],
                              extra_degrees={"x4": 3}), 3),
    ], ids=["bad-case-depth4", "remark-depth4", "x1x2+x4^3-depth3"])
    def test_certify_reports(self, model, depth):
        reports = certify(model(), depth).reports
        assert reports
        for report in reports:
            check_built_as_constructed(report)
            for step in report.witness:
                check_built_as_constructed(step)


class TestWeightedInfimum:
    def test_minimum_over_entries(self):
        model = bad_case()
        reports = [brauer_discrepancy(model, c)
                   for c in ((0, 1), (0, 2), (1, 2), (0, 1, 2))]
        assert min(e.weighted for r in reports for e in r.entries) == 0

    def test_candidate_rows_count(self):
        model = Model.affine(3, ("x1", "x2", "x3"), [(0, 1, 1)],
                             extra_degrees={"x3": 3})
        chart_b = model.chart.children((0, 2))[1]
        report = brauer_discrepancy(chart_b, (0, 2))
        # every candidate row counts, and the e = 1 candidate decides the
        # infimum
        assert len(report.entries) > 1
        assert min(e.weighted for e in report.entries) == next(
            e.weighted for e in report.entries if e.e == 1)
