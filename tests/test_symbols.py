"""Symbol matrices, residues, and the class on blown-up charts.

Expected values for the two pinned transforms and the residue read were
frozen from the naive symbol-expansion oracle in tests/oracles.py. A
blown-up chart keeps the root's matrix: the engine reads its entry (i, j)
as rows[i] M rows[j] mod r and the residue order on slot i as
r/gcd(r, rows[i] M), and both must match the reference pushforward.
"""

from math import lcm

import pytest

from brauer_terminal.model import Model
from brauer_terminal.symbols import SymbolMatrix, check_complex, residue_order

from .oracles import (blow_up, naive_matrix, naive_residue, root_chart,
                      step_matrix, substitute_symbols, transform)

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


class TestSymbolMatrix:
    def test_accumulation_is_antisymmetric(self):
        m = SymbolMatrix.from_symbols(5, 3, [(0, 1, 2), (1, 0, 1)])
        assert m.entries[0][1] == 1
        assert m.entries[1][0] == 4
        assert not check_complex(m)

    def test_matches_naive_expansion(self):
        symbols = [(E1, E3, 1), (E2, E3, 1)]
        expected = naive_matrix(3, 2, symbols)
        built = SymbolMatrix.from_symbols(2, 3, [(0, 2, 1), (1, 2, 1)])
        assert [list(row) for row in built.entries] == expected

    def test_entries_normalized(self):
        m = SymbolMatrix(3, ((0, -1, 0), (1, 0, 0), (0, 0, 3)))
        assert m.entries[0][1] == 2
        assert m.entries[2][2] == 0

    def test_self_symbol_rejected(self):
        with pytest.raises(ValueError):
            SymbolMatrix.from_symbols(2, 3, [(1, 1, 1)])

    def test_square_required(self):
        with pytest.raises(ValueError):
            SymbolMatrix(2, ((0, 1), (1,)))


class TestResidue:
    def test_row_read_pinned(self):
        # (x1, x3) + (x2, x3) mod 2: along x3 the residue is x1 * x2.
        m = SymbolMatrix.from_symbols(2, 3, [(0, 2, 1), (1, 2, 1)])
        assert m.entries[2] == (1, 1, 0)
        assert residue_order(m.r, m.entries[2]) == 2

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_matches_oracle(self, slot):
        symbols = [(E1, E3, 1), (E2, E3, 1), (E1, E2, 3)]
        m = SymbolMatrix.from_symbols(4, 3, [(0, 2, 1), (1, 2, 1), (0, 1, 3)])
        row = m.entries[slot]
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
            model = Model.affine(torsion, ("x1", "x2", "x3"), symbols,
                                 extra_degrees={"x3": extra})
            order = residue_order(torsion, model.matrix.entries[2])
            assert lcm(order, extra) == expected
            assert model.cover_on(2).value == expected

    def test_no_extra(self):
        model = Model.affine(2, ("x1", "x2", "x3"), [(0, 1, 1)])
        assert residue_order(2, model.matrix.entries[0]) == 2
        assert model.cover_on(0).value == 2
        assert model.cover_on(2).value == 1


class TestRamifiesOn:
    def test_pairing(self):
        # the residue along slot i involves slot j iff M[i][j] != 0
        m = SymbolMatrix.from_symbols(2, 3, [(0, 2, 1)])
        assert m.entries[0][2] != 0
        assert m.entries[2][0] != 0
        assert m.entries[0][1] == 0


class TestCheckComplex:
    def test_constructed_matrix_passes(self):
        m = SymbolMatrix.from_symbols(3, 4, [(0, 1, 2), (2, 3, 1)])
        assert check_complex(m) == ()

    def test_single_entry_mutation_caught(self):
        m = SymbolMatrix.from_symbols(3, 3, [(0, 1, 1)])
        rows = [list(row) for row in m.entries]
        rows[0][1] = (rows[0][1] + 1) % 3
        mutated = SymbolMatrix(3, tuple(tuple(row) for row in rows))
        assert check_complex(mutated) == ((0, 1),)

    def test_diagonal_violation(self):
        mutated = SymbolMatrix(3, ((1, 0), (0, 0)))
        assert check_complex(mutated) == ((0,),)


def chart_matrix(chart):
    """The engine's reading of a chart's symbol matrix, entry by entry."""
    walk, rows = chart.model.walk, chart.rows
    return SymbolMatrix(chart.model.torsion, tuple(
        tuple(walk.pairing(u, v) for v in rows) for u in rows))


class TestTransform:
    def _pivot_chart(self, m, center, pick=0):
        model = Model(labels=("x1", "x2", "x3"), matrix=m)
        return model.chart.children(center)[pick]

    def test_pinned_single_symbol(self):
        # (x1, x2), blow up V(x1, x2), chart x1 = t, x2 = t*y2:
        # (t, t*y2) = (t, t)(t, y2) and the result pairs t with y2 once.
        m = SymbolMatrix.from_symbols(2, 3, [(0, 1, 1)])
        chart = self._pivot_chart(m, (0, 1))
        moved = chart_matrix(chart)
        assert moved.entries[0][1] == 1
        assert moved.entries[1][0] == 1
        assert not check_complex(moved)
        assert moved == transform(m, chart.rows)

    def test_pinned_doubled_residue_cancels(self):
        # (x1, x3) + (x2, x3) mod 2 in the same chart: both symbols now run
        # through t, so the residue along t is x3^2 = trivial, and only
        # (y2, x3) survives.
        m = SymbolMatrix.from_symbols(2, 3, [(0, 2, 1), (1, 2, 1)])
        chart = self._pivot_chart(m, (0, 1))
        moved = chart_matrix(chart)
        assert moved.entries[0] == (0, 0, 0)
        assert chart.cover_on(0).monomial_order == 1
        assert moved.entries[1][2] == 1

    @pytest.mark.parametrize("center,pick", [((0, 1), 0), ((0, 1), 1),
                                             ((0, 2), 0), ((0, 1, 2), 2)])
    def test_matches_substituted_oracle(self, center, pick):
        symbols = [(E1, E3, 1), (E2, E3, 2), (E1, E2, 1)]
        m = SymbolMatrix.from_symbols(5, 3, [(0, 2, 1), (1, 2, 2), (0, 1, 1)])
        chart = self._pivot_chart(m, center, pick)
        expected = naive_matrix(3, 5, substitute_symbols(symbols, chart.rows))
        assert [list(row) for row in chart_matrix(chart).entries] == expected
        for slot in range(3):
            assert chart.cover_on(slot).monomial_order == residue_order(
                5, naive_residue(3, 5, substitute_symbols(symbols, chart.rows),
                                 slot))

    def test_two_steps_compose(self):
        m = SymbolMatrix.from_symbols(3, 3, [(0, 1, 1), (1, 2, 2)])
        model = Model(labels=("a", "b", "c"), matrix=m)
        first = model.chart.children((0, 1))[0]
        second = first.children((1, 2))[1]
        reference = blow_up(blow_up(root_chart(model), (0, 1))[0], (1, 2))[1]
        stepwise = transform(transform(m, step_matrix(reference.parent)),
                             step_matrix(reference))
        assert chart_matrix(second) == stepwise == reference.matrix
        assert chart_matrix(second) == transform(m, second.rows)
