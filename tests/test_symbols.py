"""The class of a model, its residues, and the class on blown-up charts.

Expected values for the two pinned transforms and the residue read were
frozen from the naive symbol-expansion oracle in tests/oracles.py. A
blown-up chart keeps the root's matrix: the engine reads its entry (i, j)
as rows[i] M rows[j] mod r and the residue order on slot i as
r/gcd(r, rows[i] M), and both must match the reference pushforward.
"""

from math import lcm

import pytest

from brauer_terminal.model import Model, residue_order

from .oracles import (SymbolClass, blow_up, naive_matrix, naive_residue,
                      root_chart, step_matrix, substitute_symbols, transform)

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
X3 = ("x1", "x2", "x3")


def matrix_of(torsion, dim, symbols):
    """The matrix ``Model.affine`` accumulates from (i, j, m) symbols."""
    labels = tuple(f"x{k + 1}" for k in range(dim))
    return Model.affine(torsion, labels, symbols).matrix


def broken_message(labels, strata):
    """``Model``'s error for a matrix that is not alternating on these
    strata, given as slot tuples: slots first, then pairs i < j."""
    return "symbol matrix must be alternating, broken on " + " ".join(
        "{" + ",".join(labels[k] for k in s) + "}" for s in strata)


class TestSymbolMatrix:
    def test_accumulation_is_antisymmetric(self):
        m = matrix_of(5, 3, [(0, 1, 2), (1, 0, 1)])
        assert m[0][1] == 1
        assert m[1][0] == 4
        assert Model(X3, 5, m).matrix == m

    def test_matches_naive_expansion(self):
        symbols = [(E1, E3, 1), (E2, E3, 1)]
        expected = naive_matrix(3, 2, symbols)
        built = matrix_of(2, 3, [(0, 2, 1), (1, 2, 1)])
        assert [list(row) for row in built] == expected

    def test_entries_normalized(self):
        m = Model(X3, 3, ((0, -1, 0), (1, 0, 0), (0, 0, 3))).matrix
        assert m[0][1] == 2
        assert m[2][2] == 0

    def test_self_symbol_rejected(self):
        with pytest.raises(ValueError, match="two distinct slots"):
            Model.affine(2, X3, [(1, 1, 1)])

    @pytest.mark.parametrize("slots", [(0, 3), (-1, 0), (3, 5)])
    def test_slot_out_of_range_rejected(self, slots):
        with pytest.raises(ValueError, match="slot out of range"):
            Model.affine(2, X3, [(*slots, 1)])

    def test_square_required(self):
        with pytest.raises(ValueError, match="must be 2x2"):
            Model(("x1", "x2"), 2, ((0, 1), (1,)))
        with pytest.raises(ValueError, match="must be 2x2"):
            Model(("x1", "x2"), 2, ((0, 1, 0), (1, 0, 0), (0, 0, 0)))

    @pytest.mark.parametrize("torsion", [0, 1, -2])
    @pytest.mark.parametrize("symbols", [(), [(0, 1, 1)]])
    def test_torsion_below_two_rejected(self, torsion, symbols):
        # checked before any entry is reduced mod r
        with pytest.raises(ValueError) as err:
            Model.affine(torsion, X3, symbols)
        assert str(err.value) == "torsion must be at least 2"
        with pytest.raises(ValueError, match="torsion must be at least 2"):
            Model(X3, torsion, ((0,) * 3,) * 3)


class TestResidue:
    def test_row_read_pinned(self):
        # (x1, x3) + (x2, x3) mod 2: along x3 the residue is x1 * x2.
        m = matrix_of(2, 3, [(0, 2, 1), (1, 2, 1)])
        assert m[2] == (1, 1, 0)
        assert residue_order(2, m[2]) == 2

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_matches_oracle(self, slot):
        symbols = [(E1, E3, 1), (E2, E3, 1), (E1, E2, 3)]
        m = matrix_of(4, 3, [(0, 2, 1), (1, 2, 1), (0, 1, 3)])
        row = m[slot]
        assert row[slot] == 0
        assert row[:slot] + row[slot + 1:] == naive_residue(3, 4, symbols,
                                                            slot)

    def test_order(self):
        assert residue_order(4, (2, 0)) == 2
        assert residue_order(4, (1, 2)) == 4
        assert residue_order(4, (0, 0)) == 1


class TestCoverDegree:
    # The cover degree over an original divisor is the residue order combined
    # with the divisor's own extra cover by lcm, wherever that lcm is forced
    # (prime torsion, trivial residue, or coprime orders).
    def test_lcm_with_extra(self):
        cases = [
            (3, [(2, 0, 1)], 3, 3),  # prime torsion, orders 3 and 3
            (2, [(2, 0, 1)], 3, 6),  # coprime orders 2 and 3
            (6, [], 3, 3),           # trivial residue
        ]
        for torsion, symbols, extra, expected in cases:
            model = Model.affine(torsion, X3, symbols,
                                 extra_degrees={"x3": extra})
            order = residue_order(torsion, model.matrix[2])
            assert lcm(order, extra) == expected
            assert model.cover_on(2).value == expected

    def test_no_extra(self):
        model = Model.affine(2, X3, [(0, 1, 1)])
        assert residue_order(2, model.matrix[0]) == 2
        assert model.cover_on(0).value == 2
        assert model.cover_on(2).value == 1


class TestRamifiesOn:
    def test_pairing(self):
        # the residue along slot i involves slot j iff M[i][j] != 0
        m = matrix_of(2, 3, [(0, 2, 1)])
        assert m[0][2] != 0
        assert m[2][0] != 0
        assert m[0][1] == 0


class TestCheckComplex:
    """``Model`` accepts exactly the alternating matrices and names the
    strata where residues fail to cancel."""

    def test_constructed_matrix_passes(self):
        labels = ("x1", "x2", "x3", "x4")
        m = Model.affine(3, labels, [(0, 1, 2), (2, 3, 1)]).matrix
        assert Model(labels, 3, m).matrix == m

    def test_single_entry_mutation_caught(self):
        rows = [list(row) for row in matrix_of(3, 3, [(0, 1, 1)])]
        rows[0][1] = (rows[0][1] + 1) % 3
        with pytest.raises(ValueError) as err:
            Model(X3, 3, rows)
        assert str(err.value) == broken_message(X3, [(0, 1)])

    def test_diagonal_violation(self):
        with pytest.raises(ValueError) as err:
            Model(("x1", "x2"), 3, ((1, 0), (0, 0)))
        assert str(err.value) == broken_message(("x1", "x2"), [(0,)])

    def test_strata_named_slots_first(self):
        # diagonal slots in order, then the pairs i < j in order
        with pytest.raises(ValueError) as err:
            Model(X3, 4, ((0, 1, 2), (3, 1, 0), (0, 1, 2)))
        assert str(err.value) == broken_message(
            X3, [(1,), (2,), (0, 2), (1, 2)])
        assert str(err.value).endswith("{x2} {x3} {x1,x3} {x2,x3}")


def chart_matrix(chart):
    """The engine's reading of a chart's symbol matrix, entry by entry."""
    walk, rows = chart.model.walk, chart.rows
    return SymbolClass(chart.model.torsion, tuple(
        tuple(walk.pairing(u, v) for v in rows) for u in rows))


def as_model(matrix):
    """A model on labels y1, ... holding a class; ``Model`` raises unless
    the class is alternating."""
    labels = tuple(f"y{k + 1}" for k in range(len(matrix.entries)))
    return Model(labels, matrix.r, matrix.entries)


class TestTransform:
    def test_pinned_single_symbol(self):
        # (x1, x2), blow up V(x1, x2), chart x1 = t, x2 = t*y2:
        # (t, t*y2) = (t, t)(t, y2) and the result pairs t with y2 once.
        model = Model.affine(2, X3, [(0, 1, 1)])
        chart = model.chart.children((0, 1))[0]
        moved = chart_matrix(chart)
        assert moved.entries[0][1] == 1
        assert moved.entries[1][0] == 1
        assert as_model(moved).matrix == moved.entries
        assert moved == transform(SymbolClass.of(model), chart.rows)

    def test_pinned_doubled_residue_cancels(self):
        # (x1, x3) + (x2, x3) mod 2 in the same chart: both symbols now run
        # through t, so the residue along t is x3^2 = trivial, and only
        # (y2, x3) survives.
        model = Model.affine(2, X3, [(0, 2, 1), (1, 2, 1)])
        chart = model.chart.children((0, 1))[0]
        moved = chart_matrix(chart)
        assert moved.entries[0] == (0, 0, 0)
        assert chart.cover_on(0).monomial_order == 1
        assert moved.entries[1][2] == 1

    @pytest.mark.parametrize("center,pick", [((0, 1), 0), ((0, 1), 1),
                                             ((0, 2), 0), ((0, 1, 2), 2)])
    def test_matches_substituted_oracle(self, center, pick):
        symbols = [(E1, E3, 1), (E2, E3, 2), (E1, E2, 1)]
        model = Model.affine(5, X3, [(0, 2, 1), (1, 2, 2), (0, 1, 1)])
        chart = model.chart.children(center)[pick]
        expected = naive_matrix(3, 5, substitute_symbols(symbols, chart.rows))
        assert [list(row) for row in chart_matrix(chart).entries] == expected
        for slot in range(3):
            assert chart.cover_on(slot).monomial_order == residue_order(
                5, naive_residue(3, 5, substitute_symbols(symbols, chart.rows),
                                 slot))

    def test_two_steps_compose(self):
        model = Model.affine(3, ("a", "b", "c"), [(0, 1, 1), (1, 2, 2)])
        root = SymbolClass.of(model)
        first = model.chart.children((0, 1))[0]
        second = first.children((1, 2))[1]
        reference = blow_up(blow_up(root_chart(model), (0, 1))[0], (1, 2))[1]
        stepwise = transform(transform(root, step_matrix(reference.parent)),
                             step_matrix(reference))
        assert chart_matrix(second) == stepwise == reference.matrix
        assert chart_matrix(second) == transform(root, second.rows)
