"""Acceptance checks, one printed [PASS]/[FAIL] line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria execute. Everything is exact rational arithmetic; "tolerance"
below always means equality, not closeness. The random corpus is seeded,
so reruns check the same 200 models.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from brauer_terminal.cli import main
from brauer_terminal.discrepancy import boundary_divisor, brauer_discrepancy
from brauer_terminal.model import Model, strata
from brauer_terminal.resolution import (certify, check_composition,
                                        find_bad_strata, level_one_fixup,
                                        run_remark)
from brauer_terminal.symbols import SymbolMatrix, check_complex

from .oracles import toric_discrepancy

SEED = 20260814
CORPUS_SIZE = 200

MODELS = Path(__file__).resolve().parents[1] / "models"


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {name}")
        raise
    print(f"[PASS] criterion {number}: {name}")


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(SEED)
    models = []
    for _ in range(CORPUS_SIZE):
        dim = rng.choice((3, 4))
        labels = tuple(f"x{k + 1}" for k in range(dim))
        symbols = [
            (*rng.sample(range(dim), 2), 1)
            for _ in range(rng.randint(0, 4))
        ]
        models.append(Model.affine(2, labels, symbols))
    return models


def all_strata(model, min_codim=2):
    for codim in range(min_codim, model.dim + 1):
        yield from strata(model.chart, codim)


def test_criterion_1_formula_consistency(corpus):
    with criterion(1, "b equals a + 1 - 1/e on every stratum, exactly"):
        checked = 0
        for model in corpus:
            boundary = [c for _, c in boundary_divisor(model).coefficients]
            for center in all_strata(model):
                report = brauer_discrepancy(model, center)
                a = toric_discrepancy(
                    [int(k in center.indices) for k in range(model.dim)],
                    boundary)
                assert report.a == a
                for entry in report.entries:
                    assert entry.b == a + 1 - Fraction(1, entry.e)
                    checked += 1
        assert checked >= CORPUS_SIZE


def test_criterion_2_codim_three_positivity(corpus):
    with criterion(2, "every stratum of codim >= 3 has b > 0"):
        for model in corpus:
            for center in all_strata(model, min_codim=3):
                report = brauer_discrepancy(model, center)
                assert report.worst_weighted() > 0, report.divisor_id


def test_criterion_3_classical_nonnegativity(corpus):
    with criterion(3, "every one-step blow-up has a >= 0"):
        for model in corpus:
            for center in all_strata(model):
                assert brauer_discrepancy(model, center).a >= 0


def test_criterion_4_bad_case_lifecycle():
    with criterion(4, "degenerate stratum found, fixed in one blow-up, "
                      "then certified terminal"):
        model = Model.affine(2, ("x1", "x2", "x3"), ((0, 2, 1), (1, 2, 1)))

        report = brauer_discrepancy(model, (0, 1))
        assert report.degree.value == 1
        assert report.entries[0].b == 0
        assert [s.divisor_ids for s in find_bad_strata(model)] == [("x1", "x2")]

        fixup = level_one_fixup(model)
        assert fixup.rounds == 1
        assert len({edge.exceptional for edge in fixup.tree.edges}) == 1

        cert = certify(model, depth=3)
        assert cert.verdict == "terminal-certified"
        assert cert.min_weighted is not None and cert.min_weighted > 0
        assert cert.complete


def test_criterion_5_undetermined_degree_family():
    with criterion(5, "torsion-3 family: b(E) = 1/3, b(F) = 1 - 1/e per "
                      "candidate, additivity exact, weighted floor 0"):
        report = run_remark()
        assert report.b_e == Fraction(1, 3)
        assert tuple(c.e_f for c in report.candidates) == (1, 3)
        for cand in report.candidates:
            assert cand.b_f_on_x == 1 - Fraction(1, cand.e_f)
            assert cand.b_f_on_y is not None
            assert cand.b_f_on_x == cand.b_f_on_y + report.b_e
            assert cand.additivity_ok
        floor = min(c.weighted for c in report.candidates)
        assert floor == 0


def test_criterion_6_toric_oracle_equivalence(corpus):
    with criterion(6, "telescoped a matches the toric valuation formula on "
                      "50 random blow-up sequences"):
        rng = random.Random(SEED + 6)
        for _ in range(50):
            base = rng.choice(corpus)
            boundary = boundary_divisor(base)
            coeffs = tuple(dict(boundary.coefficients)[label]
                           for label in base.chart.divisor_ids)
            sequence = []
            chart = base.chart
            for _ in range(rng.randint(1, 3)):
                codim = rng.randint(2, chart.dim)
                center = tuple(sorted(rng.sample(range(chart.dim), codim)))
                pick = rng.randrange(codim)
                sequence.append((center, pick))
                chart = chart.children(center)[pick]
            valuation = chart.rows[center[pick]]
            check = check_composition(base, sequence)
            assert len(check.candidates) == 1
            cand = check.candidates[0]
            a_engine = cand.b_on_base - 1 + Fraction(1, cand.e)
            assert a_engine == toric_discrepancy(valuation, coeffs)


def test_criterion_7_complex_cancellation(corpus):
    with criterion(7, "residues cancel on every constructed and transformed "
                      "matrix; one-entry mutations are always caught"):
        rng = random.Random(SEED + 7)

        def mutated(matrix):
            i, j = rng.sample(range(matrix.dim), 2)
            entries = [list(row) for row in matrix.entries]
            entries[i][j] = (entries[i][j] + 1) % matrix.r
            broken = SymbolMatrix(matrix.r, tuple(map(tuple, entries)))
            verdict = check_complex(broken)
            key = (i, j) if i < j else (j, i)
            assert not verdict.ok
            assert key in verdict.violations

        for model in corpus:
            assert check_complex(model.matrix).ok
            mutated(model.matrix)
            codim = rng.randint(2, model.dim)
            center = tuple(sorted(rng.sample(range(model.dim), codim)))
            for child in model.chart.children(center):
                walk, rows = model.walk, child.rows
                matrix = SymbolMatrix(model.torsion, tuple(
                    tuple(walk.pairing(u, v) for v in rows) for u in rows))
                assert check_complex(matrix).ok
                mutated(matrix)


def test_criterion_8_byte_identical_machine_output(tmp_path, capsys):
    with criterion(8, "repeated certify runs write byte-identical output"):
        for name in ("bad-case.model", "remark.model"):
            first = tmp_path / f"{name}.1.jsonl"
            second = tmp_path / f"{name}.2.jsonl"
            argv = ["certify", "--model", str(MODELS / name)]
            code1 = main(argv + ["--out", str(first)])
            code2 = main(argv + ["--out", str(second)])
            assert code1 == code2
            assert first.read_bytes() == second.read_bytes()
            assert first.stat().st_size > 0
