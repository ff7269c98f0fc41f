"""Chart and blow-up combinatorics.

Core claims:
    - the root chart's rows are the identity on its exponent lattice
    - blowing up a codim-c stratum yields exactly c charts, pivot-ordered
    - the pivot chart has the pinned rows
    - all charts of one blow-up share one exceptional divisor id
    - strict transforms and untouched coordinates keep their divisor ids
    - a chart's rows are the reference blow-up's total substitution, so
      they compose and stay unimodular
    - strata enumeration behaves on the boundaries
"""

import pytest

from brauer_terminal.model import Model, Stratum, strata
from brauer_terminal.symbols import SymbolMatrix

from .oracles import (apply_substitution, blow_up as reference_blow_up,
                      compose_substitutions, determinant, root_chart,
                      step_matrix)


def _model3():
    return Model.affine(2, ("x1", "x2", "x3"))


def _root3():
    return _model3().chart


def _pivot(children, center):
    """The pivot slot of each child, read off where the new divisor sits."""
    new = children[0].divisor_ids[center[0]]
    return [next(k for k in center if c.divisor_ids[k] == new)
            for c in children]


class TestRootChart:
    def test_identity_substitution(self):
        root = _root3()
        assert root.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert root.chart_id == "r"
        assert root.rows == root_chart(root.model).total_substitution

    def test_labels_become_divisor_ids(self):
        root = _root3()
        assert root.divisor_ids == ("x1", "x2", "x3")
        assert root.divisor_ids.index("x2") == 1

    @pytest.mark.parametrize("labels", [("x1", "x1", "x3"), ("x1",),
                                        ("x1", "2bad", "x3"),
                                        ("x1", "E(1,0)", "x3")])
    def test_bad_labels_rejected(self, labels):
        with pytest.raises(ValueError):
            Model(labels=labels, matrix=SymbolMatrix.zero(2, 3))


class TestBlowUp:
    def test_codim_two_gives_two_charts(self):
        root = _root3()
        children = root.children((0, 1))
        assert len(children) == 2
        assert _pivot(children, (0, 1)) == [0, 1]

    def test_pinned_pivot_substitution(self):
        # dim 3, center {x1, x2}, chart with pivot x1: x1 = t, x2 = t*y2.
        # Root coordinates pull back along the columns (1,0,0), (1,1,0),
        # (0,0,1), i.e. these rows, which are also the step from the root.
        root = _root3()
        child = root.children(Stratum(root, (0, 1)))[0]
        assert child.rows == ((1, 1, 0), (0, 1, 0), (0, 0, 1))
        reference = reference_blow_up(root_chart(root.model), (0, 1))[0]
        assert step_matrix(reference) == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
        assert child.rows == reference.total_substitution

    def test_shared_exceptional_id(self):
        root = _root3()
        children = root.children((0, 1))
        ids = {c.divisor_ids[p]
               for c, p in zip(children, _pivot(children, (0, 1)))}
        assert ids == {"E(1,1,0)"}

    def test_other_ids_kept(self):
        root = _root3()
        first, second = root.children((0, 1))
        assert first.divisor_ids == ("E(1,1,0)", "x2", "x3")
        assert second.divisor_ids == ("x1", "E(1,1,0)", "x3")
        reference = reference_blow_up(root_chart(root.model), (0, 1))
        assert [c.divisor_ids for c in reference] == [
            first.divisor_ids, second.divisor_ids]

    def test_codim_three_gives_three_charts(self):
        root = _root3()
        children = root.children((0, 1, 2))
        assert len(children) == 3
        assert all(c.divisor_ids[p] == "E(1,1,1)"
                   for c, p in zip(children, (0, 1, 2)))

    def test_chart_ids_encode_route(self):
        root = _root3()
        child = root.children((0, 2))[1]
        assert child.chart_id == "r.1-3p3"
        grand = child.children((0, 1))[0]
        assert grand.chart_id == "r.1-3p3.1-2p1"
        reference = reference_blow_up(
            reference_blow_up(root_chart(root.model), (0, 2))[1], (0, 1))[0]
        assert (grand.chart_id, grand.rows) == (
            reference.chart_id, reference.total_substitution)

    def test_total_substitution_composes(self):
        root = _root3()
        child = root.children((0, 1))[0]
        grand = child.children((1, 2))[1]
        reference = reference_blow_up(
            reference_blow_up(root_chart(root.model), (0, 1))[0], (1, 2))[1]
        expected = compose_substitutions(step_matrix(reference), child.rows)
        assert grand.rows == expected

    def test_substitutions_unimodular(self):
        chart = _root3()
        for center in ((0, 1), (0, 2), (1, 2)):
            chart = chart.children(center)[0]
            det = determinant(chart.rows)
            assert det in (1, -1), f"det {det} at {chart.chart_id}"

    def test_exceptional_valuation_row(self):
        root = _root3()
        child = root.children((0, 2))[0]
        assert child.rows[0] == (1, 0, 1)

    def test_center_must_match_chart(self):
        root = _root3()
        other = _root3()
        with pytest.raises(ValueError):
            root.children(Stratum(other, (0, 1)))

    def test_codim_one_rejected(self):
        root = _root3()
        with pytest.raises(ValueError, match="codimension"):
            root.children(Stratum(root, (1,)))


class TestStrata:
    def test_codim_two_enumeration(self):
        root = _root3()
        found = [s.indices for s in strata(root, 2)]
        assert found == [(0, 1), (0, 2), (1, 2)]

    def test_codim_bounds(self):
        root = _root3()
        with pytest.raises(ValueError):
            strata(root, 1)
        with pytest.raises(ValueError):
            strata(root, 4)

    def test_indices_normalized(self):
        root = _root3()
        assert Stratum(root, (2, 0)).indices == (0, 2)
        with pytest.raises(ValueError):
            Stratum(root, (1, 1))
        with pytest.raises(ValueError):
            Stratum(root, (0, 3))

    def test_divisor_ids(self):
        root = _root3()
        assert Stratum(root, (0, 2)).divisor_ids == ("x1", "x3")


class TestMonomial:
    def test_pullback_along_blow_up(self):
        # out of the root, a child's rows are its step matrix
        child = _root3().children((0, 1))[0]
        # x1 * x2 pulls back to t^2 * y2
        assert apply_substitution(child.rows, (1, 1, 0)) == (2, 1, 0)

    def test_product(self):
        # the pullback of a product of monomials is the product of pullbacks
        child = _root3().children((0, 2))[1]
        u, v = (1, 0, 2), (0, 3, 1)
        both = apply_substitution(child.rows,
                                  tuple(a + b for a, b in zip(u, v)))
        assert both == tuple(
            a + b for a, b in zip(apply_substitution(child.rows, u),
                                  apply_substitution(child.rows, v))
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose_substitutions(((1, 0), (0, 1)),
                                  ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_apply_substitution_shape_check(self):
        with pytest.raises(ValueError):
            apply_substitution(((1, 0), (0, 1)), (1, 2, 3))


class TestChartValidation:
    def test_divisor_id_count(self):
        with pytest.raises(ValueError):
            Model(labels=("x1",), matrix=SymbolMatrix.zero(2, 2))

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            Model(labels=("x1", "x1"), matrix=SymbolMatrix.zero(2, 2))
