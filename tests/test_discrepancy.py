"""Boundary divisors and one-step discrepancies.

The b-values here were frozen against hand expansion and the toric oracle:
for a boundary with coefficients d_k, the divisor with valuation v has
a = sum v_k (1 - d_k) - 1, and b = a + 1 - 1/e.
"""

from fractions import Fraction

import pytest

from brauer_terminal import discrepancy
from brauer_terminal.discrepancy import (DiscrepancyReport, ReportEntry,
                                         WitnessStep, b_from_a,
                                         boundary_divisor, brauer_discrepancy,
                                         weighted_infimum)
from brauer_terminal.model import CoverDegree, IndeterminateDegreeError, Model

from .oracles import toric_discrepancy


def bad_case():
    return Model.affine(2, ("x1", "x2", "x3"), [(0, 2, 1), (1, 2, 1)])


class TestBoundaryDivisor:
    def test_bad_case_boundary(self):
        boundary = boundary_divisor(bad_case())
        assert boundary.coefficients == (
            ("x1", Fraction(1, 2)),
            ("x2", Fraction(1, 2)),
            ("x3", Fraction(1, 2)),
        )

    def test_trivial_boundary(self):
        boundary = boundary_divisor(Model.affine(2, ("x1", "x2")))
        assert dict(boundary.coefficients) == {"x1": 0, "x2": 0}

    def test_indeterminate_lists_all_offenders(self):
        model = Model.affine(3, ("x1", "x2", "x3"), [(0, 1, 1)],
                             extra_degrees={"x3": 3})
        chart_b = model.blow_up((0, 2)).children[1]
        f_child = chart_b.blow_up((0, 2)).children[0]
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
            model.exceptional_cover((1,))

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

        def counted(model):
            calls.append(model)
            return boundary_divisor(model)

        monkeypatch.setattr(discrepancy, "boundary_divisor", counted)
        report = brauer_discrepancy(bad_case(), (0, 1, 2))
        assert len(calls) == 1
        assert report.a == Fraction(1, 2)

    def test_indeterminate_center_gives_candidate_rows(self):
        model = Model.affine(3, ("x1", "x2", "x3"), [(0, 1, 1)],
                             extra_degrees={"x3": 3})
        chart_b = model.blow_up((0, 2)).children[1]
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


class TestWeightedInfimum:
    def test_minimum_over_entries(self):
        model = bad_case()
        reports = [brauer_discrepancy(model, c)
                   for c in ((0, 1), (0, 2), (1, 2), (0, 1, 2))]
        assert weighted_infimum(reports) == 0

    def test_candidate_rows_count(self):
        model = Model.affine(3, ("x1", "x2", "x3"), [(0, 1, 1)],
                             extra_degrees={"x3": 3})
        chart_b = model.blow_up((0, 2)).children[1]
        report = brauer_discrepancy(chart_b, (0, 2))
        # the e = 1 candidate decides the infimum
        assert weighted_infimum([report]) == min(e.weighted
                                                 for e in report.entries)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_infimum([])
