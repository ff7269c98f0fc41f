"""Chart and blow-up combinatorics.

Core claims:
    - the root chart is the identity on its exponent lattice
    - blowing up a codim-c stratum yields exactly c charts, pivot-ordered
    - the pivot chart has the pinned total substitution
    - all charts of one blow-up share one exceptional divisor id
    - strict transforms and untouched coordinates keep their divisor ids
    - total substitutions compose and stay unimodular
    - strata enumeration behaves on the boundaries
"""

import pytest

from brauer_terminal.charts import (Chart, Stratum, apply_substitution,
                                    blow_up, compose_substitutions,
                                    identity_substitution, new_affine_model,
                                    strata)

from .oracles import determinant, step_matrix


def _root3():
    return new_affine_model(3, ("x1", "x2", "x3"))


class TestRootChart:
    def test_identity_substitution(self):
        root = _root3()
        assert root.total_substitution == identity_substitution(3)
        assert root.chart_id == "r"
        assert root.depth == 0

    def test_labels_become_divisor_ids(self):
        root = _root3()
        assert root.divisor_ids == ("x1", "x2", "x3")
        assert root.divisor_ids.index("x2") == 1

    @pytest.mark.parametrize("labels", [("x1", "x1", "x3"), ("x1",),
                                        ("x1", "2bad", "x3"),
                                        ("x1", "E(1,0)", "x3")])
    def test_bad_labels_rejected(self, labels):
        with pytest.raises(ValueError):
            new_affine_model(3, labels)


class TestBlowUp:
    def test_codim_two_gives_two_charts(self):
        root = _root3()
        children = blow_up(root, Stratum(root, (0, 1)))
        assert len(children) == 2
        assert [c.pivot for c in children] == [0, 1]

    def test_pinned_pivot_substitution(self):
        # dim 3, center {x1, x2}, chart with pivot x1: x1 = t, x2 = t*y2.
        # Root coordinates pull back along the columns (1,0,0), (1,1,0),
        # (0,0,1), i.e. these rows, which are also the step from the root.
        root = _root3()
        child = blow_up(root, Stratum(root, (0, 1)))[0]
        assert child.total_substitution == ((1, 1, 0), (0, 1, 0), (0, 0, 1))
        assert step_matrix(child) == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]

    def test_shared_exceptional_id(self):
        root = _root3()
        children = blow_up(root, Stratum(root, (0, 1)))
        ids = {c.divisor_ids[c.pivot] for c in children}
        assert ids == {"E(1,1,0)"}

    def test_other_ids_kept(self):
        root = _root3()
        first, second = blow_up(root, Stratum(root, (0, 1)))
        assert first.divisor_ids == ("E(1,1,0)", "x2", "x3")
        assert second.divisor_ids == ("x1", "E(1,1,0)", "x3")

    def test_codim_three_gives_three_charts(self):
        root = _root3()
        children = blow_up(root, Stratum(root, (0, 1, 2)))
        assert len(children) == 3
        assert all(c.divisor_ids[c.pivot] == "E(1,1,1)" for c in children)

    def test_chart_ids_encode_route(self):
        root = _root3()
        child = blow_up(root, Stratum(root, (0, 2)))[1]
        assert child.chart_id == "r.1-3p3"
        grand = blow_up(child, Stratum(child, (0, 1)))[0]
        assert grand.chart_id == "r.1-3p3.1-2p1"
        assert grand.depth == 2

    def test_total_substitution_composes(self):
        root = _root3()
        child = blow_up(root, Stratum(root, (0, 1)))[0]
        grand = blow_up(child, Stratum(child, (1, 2)))[1]
        expected = compose_substitutions(step_matrix(grand),
                                         child.total_substitution)
        assert grand.total_substitution == expected

    def test_substitutions_unimodular(self):
        root = _root3()
        chart = root
        for center in ((0, 1), (0, 2), (1, 2)):
            chart = blow_up(chart, Stratum(chart, center))[0]
            det = determinant(chart.total_substitution)
            assert det in (1, -1), f"det {det} at {chart.chart_id}"

    def test_exceptional_valuation_row(self):
        root = _root3()
        child = blow_up(root, Stratum(root, (0, 2)))[0]
        assert child.total_substitution[child.pivot] == (1, 0, 1)

    def test_center_must_match_chart(self):
        root = _root3()
        other = _root3()
        with pytest.raises(ValueError):
            blow_up(root, Stratum(other, (0, 1)))

    def test_codim_one_rejected(self):
        root = _root3()
        with pytest.raises(ValueError):
            blow_up(root, Stratum(root, (1,)))


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
        root = _root3()
        child = blow_up(root, Stratum(root, (0, 1)))[0]
        # x1 * x2 pulls back to t^2 * y2
        assert apply_substitution(step_matrix(child), (1, 1, 0)) == (2, 1, 0)

    def test_product(self):
        # the pullback of a product of monomials is the product of pullbacks
        root = _root3()
        child = blow_up(root, Stratum(root, (0, 2)))[1]
        u, v = (1, 0, 2), (0, 3, 1)
        both = apply_substitution(step_matrix(child),
                                  tuple(a + b for a, b in zip(u, v)))
        assert both == tuple(
            a + b for a, b in zip(apply_substitution(step_matrix(child), u),
                                  apply_substitution(step_matrix(child), v))
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose_substitutions(identity_substitution(2),
                                  identity_substitution(3))

    def test_apply_substitution_shape_check(self):
        with pytest.raises(ValueError):
            apply_substitution(((1, 0), (0, 1)), (1, 2, 3))


class TestChartValidation:
    def test_divisor_id_count(self):
        with pytest.raises(ValueError):
            Chart(dim=2, divisor_ids=("x1",),
                  total_substitution=identity_substitution(2))

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            Chart(dim=2, divisor_ids=("x1", "x1"),
                  total_substitution=identity_substitution(2))
