"""Chart and blow-up combinatorics.

Core claims:
    - the root chart's rows are the identity on its exponent lattice
    - blowing up a codim-c stratum yields exactly c charts, pivot-ordered
    - the pivot chart has the pinned rows
    - all charts of one blow-up share one exceptional divisor id
    - strict transforms and untouched coordinates keep their divisor ids
    - a chart's rows are the reference blow-up's total substitution, so
      they compose and stay unimodular
    - every public entry that takes a center sorts its slots and rejects
      repeated, out-of-range or fewer than two slots with one message each
"""

import pytest

from brauer_terminal.discrepancy import brauer_discrepancy
from brauer_terminal.model import Model
from brauer_terminal.resolution import check_composition

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
            Model(labels=labels, torsion=2, matrix=((0,) * 3,) * 3)


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
        child = root.children((0, 1))[0]
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

    def test_codim_one_rejected(self):
        root = _root3()
        with pytest.raises(ValueError, match="codimension"):
            root.children((1,))


# Each public entry that takes a center, read as the sorted slots it used.
CENTER_ENTRIES = {
    "center": lambda chart, slots: chart.center(slots),
    "children": lambda chart, slots: [
        c.chart_id.rsplit(".", 1)[1] for c in chart.children(slots)],
    "brauer_discrepancy": lambda chart, slots: brauer_discrepancy(
        chart, slots).witness[0].indices,
    "check_composition": lambda chart, slots: check_composition(
        chart, [(slots, 0)]).reports[0].witness[0].indices,
}


class TestStrata:
    def test_indices_normalized(self):
        root = _root3()
        assert root.center((2, 0)) == (0, 2)
        assert root.center([2, 1, 0]) == (0, 1, 2)

    @pytest.mark.parametrize("entry", CENTER_ENTRIES.values(),
                             ids=CENTER_ENTRIES.keys())
    def test_every_entry_sorts_the_slots(self, entry):
        root = _root3()
        assert entry(root, (2, 0)) == entry(root, (0, 2))
        assert entry(root, (2, 1, 0)) == entry(root, (0, 1, 2))

    @pytest.mark.parametrize("entry", CENTER_ENTRIES.values(),
                             ids=CENTER_ENTRIES.keys())
    @pytest.mark.parametrize("slots,message", [
        ((1, 1), "must be distinct"),
        ((0, 3), "out of range"),
        ((-1, 0), "out of range"),
        ((1,), "codimension at least 2"),
        ((), "at least one coordinate"),
    ])
    def test_every_entry_rejects_bad_centers(self, entry, slots, message):
        with pytest.raises(ValueError, match=message):
            entry(_root3(), slots)

    def test_divisor_ids(self):
        # a center's divisor ids are those of its slots, in slot order
        report = brauer_discrepancy(_model3(), (2, 0))
        assert report.witness[0].center == ("x1", "x3")


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
            Model(labels=("x1",), torsion=2, matrix=((0,) * 2,) * 2)

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            Model(labels=("x1", "x1"), torsion=2, matrix=((0,) * 2,) * 2)
