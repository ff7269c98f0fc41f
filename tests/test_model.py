"""Models: cover degrees and the extra covers on blown-up charts.

Core claims:
    - cover degrees combine the monomial residue order with extra covers
    - an extra cover is exact on its origin and on divisors extracted
      directly out of it, and only a candidate list after an indirect hop
    - a chart's exposures (root valuations at the origin), exact flags and
      degrees match the reference blow-up, which transports the matrix and
      the extra vectors chart by chart
"""

import gc
import importlib
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from brauer_terminal.discrepancy import boundary_divisor
from brauer_terminal.model import (CoverDegree, IndeterminateDegreeError,
                                   Model, candidate_orders)
from brauer_terminal.symbols import SymbolMatrix

from .oracles import blow_up, cover_on, root_chart


def remark_base():
    return Model.affine(3, ("x1", "x2", "x3"), [(0, 1, 1)],
                        extra_degrees={"x3": 3})


class TestAffineValidation:
    def test_extra_on_unknown_label(self):
        with pytest.raises(ValueError):
            Model.affine(2, ("x1", "x2"), extra_degrees={"x9": 2})

    def test_extra_degree_positive(self):
        with pytest.raises(ValueError):
            Model.affine(2, ("x1", "x2"), extra_degrees={"x1": 0})

    def test_degree_one_creates_no_component(self):
        model = Model.affine(2, ("x1", "x2"), extra_degrees={"x1": 1})
        assert model.extras == ()


class TestCoverDegrees:
    def test_pure_monomial(self):
        model = Model.affine(2, ("x1", "x2", "x3"), [(0, 2, 1), (1, 2, 1)])
        assert model.cover_on(2).value == 2
        assert model.cover_on(0).value == 2
        assert boundary_divisor(model).coefficients[2] == ("x3", Fraction(1, 2))

    def test_trivial_class(self):
        model = Model.affine(2, ("x1", "x2"))
        degree = model.cover_on(0)
        assert degree.value == 1
        assert boundary_divisor(model).coefficients[0] == ("x1", 0)

    def test_extra_exact_at_origin(self):
        model = remark_base()
        degree = model.cover_on(2)
        assert degree.monomial_order == 1
        assert degree.value == 3

    def test_extra_composes_with_monomial_by_lcm(self):
        model = Model.affine(2, ("x1", "x2", "x3"), [(0, 2, 1)],
                             extra_degrees={"x2": 3})
        # slot 2 carries the degree-2 residue of the symbol only
        assert model.cover_on(2).value == 2
        # slot 1 carries only its own extra degree-3 cover
        assert model.cover_on(1).value == 3

    def test_value_raises_when_open(self):
        degree = CoverDegree(3, (1, 3), ("x3",))
        assert not degree.determinate
        with pytest.raises(IndeterminateDegreeError):
            degree.value

    def test_candidates_sorted_deduplicated(self):
        assert CoverDegree(1, (3, 1, 3)).candidates == (1, 3)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            CoverDegree(1, ())


class TestCandidateOrders:
    @pytest.mark.parametrize("m,g,expected", [
        (3, 3, (1, 3)),
        (1, 3, (1, 3)),
        (2, 3, (2, 6)),
        (4, 2, (4,)),
        (1, 1, (1,)),
        (6, 4, (3, 6, 12)),
    ])
    def test_values(self, m, g, expected):
        assert candidate_orders(m, g) == expected

    def test_matches_brute_force(self):
        # the divisor walk lists exactly what testing every e up to lcm did
        from math import lcm
        for m in range(1, 41):
            for g in range(1, 41):
                top = lcm(m, g)
                expected = tuple(
                    e for e in range(1, top + 1)
                    if top % e == 0 and lcm(e, g) % m == 0
                )
                assert candidate_orders(m, g) == expected, (m, g)

    def test_monomial_explained(self):
        # every candidate e keeps m | lcm(e, g)
        from math import lcm
        for m in range(1, 7):
            for g in range(1, 7):
                for e in candidate_orders(m, g):
                    assert lcm(e, g) % m == 0
                    assert lcm(m, g) % e == 0


def descend(model, route):
    """The engine's chart and the reference chart at the end of a route of
    (center, child index) steps."""
    chart, reference = model.chart, root_chart(model)
    for center, pick in route:
        chart = chart.children(center)[pick]
        reference = blow_up(reference, center)[pick]
    return chart, reference


def assert_extras_agree(chart, reference):
    """Exposures, exact flags and degrees read off the engine's rows equal
    the reference's transported vectors."""
    labels = chart.model.labels
    assert chart.chart_id == reference.chart_id
    assert chart.divisor_ids == reference.divisor_ids
    for k, divisor_id in enumerate(chart.divisor_ids):
        for flag, extra in zip(chart.exact[k], reference.extras):
            origin = labels.index(extra.origin_id)
            assert chart.rows[k][origin] % extra.modulus == extra.vector[k]
            assert flag == (divisor_id in extra.exact_on)
        assert chart.cover_on(k) == cover_on(reference, k)


class TestExtraTransport:
    def test_direct_exposure_becomes_exact(self):
        chart_b, reference = descend(remark_base(), [((0, 2), 1)])
        assert_extras_agree(chart_b, reference)
        e_slot = chart_b.divisor_ids.index("E(1,0,1)")
        assert [row[2] for row in chart_b.rows] == [0, 0, 1]
        assert chart_b.exact[e_slot] == (True,)
        degree = chart_b.cover_on(e_slot)
        assert degree.monomial_order == 3
        assert degree.value == 3

    def test_indirect_hop_leaves_candidates(self):
        f_child, reference = descend(remark_base(),
                                     [((0, 2), 1), ((0, 2), 0)])
        assert_extras_agree(f_child, reference)
        assert [row[2] for row in f_child.rows] == [1, 0, 1]
        assert f_child.exact[0] == (False,)
        degree = f_child.cover_on(0)
        assert degree.candidates == (1, 3)
        assert degree.monomial_order == 3
        assert degree.sources == ("x3",)

    def test_boundary_raises_on_open_degree(self):
        f_child, _ = descend(remark_base(), [((0, 2), 1), ((0, 2), 0)])
        with pytest.raises(IndeterminateDegreeError) as err:
            boundary_divisor(f_child)
        assert "E(2,0,1)" in err.value.divisor_ids

    def test_untouched_center_keeps_component(self):
        # center avoiding x3 entirely: the component must not gain exposure
        child, reference = descend(remark_base(), [((0, 1), 0)])
        assert_extras_agree(child, reference)
        assert [row[2] for row in child.rows] == [0, 0, 1]
        assert child.exact == ((False,), (False,), (True,))

    def test_modulus_covers_degree_not_dividing_torsion(self):
        # a degree-3 cover on torsion 2: exposures are plain root
        # valuations, where the reference reduces mod lcm(2, 3) = 6
        model = Model.affine(2, ("x1", "x2"), extra_degrees={"x1": 3})
        assert root_chart(model).extras[0].modulus == 6
        assert (model.cover_on(0).value, model.cover_on(1).value) == (3, 1)
        for route in ([((0, 1), 0)], [((0, 1), 1), ((0, 1), 0)]):
            assert_extras_agree(*descend(model, route))


class TestModelBlowUp:
    def test_children_share_root_chart(self):
        model = Model.affine(2, ("x1", "x2", "x3"))
        children = model.chart.children((0, 1))
        assert all(c.model is model for c in children)
        grand = children[0].children((0, 2))
        assert all(c.model is model for c in grand)
        assert model.chart is model.chart

    def test_matrix_moves_with_chart(self):
        model = Model.affine(2, ("x1", "x2", "x3"), [(0, 2, 1), (1, 2, 1)])
        child, reference = descend(model, [((0, 1), 0)])
        assert model.walk.pairing(child.rows[1], child.rows[2]) == 1
        assert reference.matrix.entry(1, 2) == 1
        assert child.cover_on(0).monomial_order == 1
        assert child.cover_on(0) == cover_on(reference, 0)

    def test_stratum_helper_validates(self):
        model = Model.affine(2, ("x1", "x2"))
        with pytest.raises(ValueError):
            model.chart.children((0,))

    def test_dimension_mismatch_rejected(self):
        model = Model.affine(2, ("x1", "x2"))
        with pytest.raises(ValueError):
            Model(labels=model.labels, matrix=SymbolMatrix.zero(2, 3))

    def test_non_alternating_matrix_rejected(self):
        # charts read the class as rows[i] M rows[j], which needs alternation
        model = Model.affine(3, ("x1", "x2"))
        with pytest.raises(ValueError, match="alternating"):
            Model(labels=model.labels, matrix=SymbolMatrix(3, ((0, 1), (1, 0))))
        with pytest.raises(ValueError, match="alternating"):
            Model(labels=model.labels, matrix=SymbolMatrix(3, ((1, 0), (0, 0))))


def _engine_modules():
    return {name: module for name, module in sys.modules.items()
            if name == "brauer_terminal" or name.startswith("brauer_terminal.")}


def _import_fresh():
    for name in _engine_modules():
        del sys.modules[name]
    importlib.import_module("brauer_terminal")
    return importlib.import_module("brauer_terminal.cli")


class TestReimport:
    def test_previous_copy_is_freed(self, capsys):
        # a module-level typing subscript naming an engine class would sit in
        # typing's cache and keep every earlier copy of the engine alive
        saved = _engine_modules()
        try:
            cli = _import_fresh()
            model = Path(__file__).resolve().parents[1] / "models" / \
                "bad-case.model"
            assert cli.main(["boundary", "--model", str(model)]) == 0
            stratum = weakref.ref(sys.modules["brauer_terminal.model"].Stratum)
            del cli
            _import_fresh()
            gc.collect()
            assert stratum() is None
        finally:
            for name in _engine_modules():
                del sys.modules[name]
            sys.modules.update(saved)
