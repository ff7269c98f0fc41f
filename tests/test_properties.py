"""Randomized consistency sweeps over models, walks, and transforms.

Each test draws from a seeded generator, so failures replay exactly.
The naive symbol oracle from oracles.py is the independent reference
for everything the transform and residue code computes.
"""

import random
from fractions import Fraction
from itertools import chain

from brauer_terminal.charts import (apply_substitution, compose_substitutions,
                                   strata)
from brauer_terminal.discrepancy import (b_from_a, boundary_divisor,
                                         brauer_discrepancy, weighted_infimum)
from brauer_terminal.model import IndeterminateDegreeError, Model
from brauer_terminal.modelfile import ModelSpec, format_model, parse_model
from brauer_terminal.enumeration import _RowWalk, enumerate_divisors
from brauer_terminal.resolution import (certify, find_bad_strata,
                                        level_one_fixup)
from brauer_terminal.symbols import check_complex, residue, transform

from .oracles import (determinant, monomial_order, naive_matrix,
                      naive_residue, step_matrix, substitute_symbols,
                      toric_discrepancy)


def unit(dim, slot):
    return tuple(1 if k == slot else 0 for k in range(dim))


def random_model(rng, torsions=(2, 3, 4, 5), dims=(2, 3, 4), max_symbols=4,
                 extras=False):
    r = rng.choice(torsions)
    dim = rng.choice(dims)
    labels = tuple(f"x{k + 1}" for k in range(dim))
    symbols = []
    for _ in range(rng.randint(0, max_symbols)):
        i, j = rng.sample(range(dim), 2)
        symbols.append((i, j, rng.randrange(1, r)))
    degrees = {}
    if extras and rng.random() < 0.6:
        degrees[labels[rng.randrange(dim)]] = rng.choice((2, 3))
    return Model.affine(r, labels, symbols, degrees)


def random_center(rng, dim, max_codim=None):
    codim = rng.randint(2, min(dim, max_codim or dim))
    return tuple(sorted(rng.sample(range(dim), codim)))


def random_walk(rng, model, steps):
    """Follow one random chain of blow-ups; yields each model visited."""
    yield model
    for _ in range(steps):
        center = random_center(rng, model.dim)
        blow = model.blow_up(center)
        model = blow.children[rng.randrange(len(blow.children))]
        yield model


def model_with_extras(rng, max_dim=5):
    """Random model in dimension 2 to ``max_dim`` with zero to two extras."""
    r = rng.choice((2, 3, 4, 6))
    dim = rng.randint(2, max_dim)
    labels = tuple(f"x{k + 1}" for k in range(dim))
    symbols = [(*rng.sample(range(dim), 2), rng.randrange(1, r))
               for _ in range(rng.randint(0, 5))]
    degrees = {label: rng.choice((2, 3, 4))
               for label in rng.sample(labels, rng.randint(0, 2))}
    return Model.affine(r, labels, symbols, degrees)


def blow_ups(seed, count, steps=3):
    """(parent, center, blow-up) along random walks of random models."""
    rng = random.Random(seed)
    for _ in range(count):
        model = model_with_extras(rng)
        for _ in range(steps):
            center = random_center(rng, model.dim)
            blow = model.blow_up(center)
            yield model, center, blow
            model = blow.children[rng.randrange(len(blow.children))]


def vector_symbols(model):
    """The root symbol list in exponent-vector form for the naive oracle."""
    dim = model.dim
    out = []
    for i in range(dim):
        for j in range(i + 1, dim):
            m = model.matrix.entry(i, j)
            if m:
                out.append((unit(dim, i), unit(dim, j), m))
    return out


class TestTransformSweeps:
    def test_alternation_preserved_along_walks(self):
        rng = random.Random(101)
        for _ in range(40):
            model = random_model(rng, extras=True)
            for step in random_walk(rng, model, 3):
                verdict = check_complex(step.matrix)
                assert verdict.ok, (step.chart.chart_id, verdict.violations)

    def test_matches_naive_oracle_along_walks(self):
        rng = random.Random(102)
        for _ in range(40):
            model = random_model(rng)
            symbols = vector_symbols(model)
            for step in random_walk(rng, model, 3):
                moved = substitute_symbols(symbols, step.chart.total_substitution)
                expected = naive_matrix(step.dim, step.torsion, moved)
                assert [list(row) for row in step.matrix.entries] == expected

    def test_functorial_in_the_total_substitution(self):
        rng = random.Random(103)
        for _ in range(40):
            model = random_model(rng)
            root_matrix = model.matrix
            for step in random_walk(rng, model, 3):
                direct = transform(root_matrix, step.chart.total_substitution)
                assert direct.entries == step.matrix.entries

    def test_residue_matches_naive_oracle(self):
        rng = random.Random(104)
        for _ in range(30):
            model = random_model(rng)
            symbols = vector_symbols(model)
            for step in random_walk(rng, model, 2):
                moved = substitute_symbols(symbols, step.chart.total_substitution)
                for slot in range(step.dim):
                    got = residue(step.matrix, slot)
                    want = naive_residue(step.dim, step.torsion, moved, slot)
                    assert got.exponents == want, (step.chart.chart_id, slot)

    def test_substitutions_stay_unimodular(self):
        rng = random.Random(105)
        for _ in range(40):
            model = random_model(rng)
            for step in random_walk(rng, model, 3):
                assert determinant(step.chart.total_substitution) in (1, -1)


class TestDiscrepancySweeps:
    def test_b_is_a_plus_one_minus_inverse_e(self):
        rng = random.Random(201)
        for _ in range(60):
            model = random_model(rng, torsions=(2,), dims=(3, 4))
            for codim in range(2, model.dim + 1):
                for center in strata(model.chart, codim):
                    report = brauer_discrepancy(model, center)
                    for entry in report.entries:
                        assert entry.b == b_from_a(report.a, entry.e)
                        assert entry.weighted == entry.e * entry.b

    def test_codim_three_and_up_strictly_positive(self):
        rng = random.Random(202)
        for _ in range(60):
            model = random_model(rng, torsions=(2,), dims=(3, 4))
            for codim in range(3, model.dim + 1):
                for center in strata(model.chart, codim):
                    report = brauer_discrepancy(model, center)
                    assert report.worst_weighted() > 0, report.divisor_id

    def test_one_step_classical_discrepancy_nonnegative(self):
        rng = random.Random(203)
        for _ in range(60):
            model = random_model(rng, torsions=(2,), dims=(3, 4))
            for codim in range(2, model.dim + 1):
                for center in strata(model.chart, codim):
                    assert brauer_discrepancy(model, center).a >= 0

    def test_telescoped_a_matches_toric_oracle(self):
        rng = random.Random(204)
        for _ in range(25):
            model = random_model(rng, torsions=(2, 3), dims=(2, 3))
            boundary = boundary_divisor(model)
            coeffs = tuple(dict(boundary.coefficients)[label]
                           for label in model.chart.divisor_ids)
            for report in enumerate_divisors(model, depth=2).reports:
                valuation = tuple(
                    int(part) for part in report.divisor_id[2:-1].split(",")
                )
                assert report.a == toric_discrepancy(valuation, coeffs)

    def test_monomial_order_matches_oracle(self):
        rng = random.Random(206)
        checked = 0
        for _ in range(40):
            model = random_model(rng, torsions=(2, 3, 4, 6), dims=(2, 3),
                                 extras=True)
            lift = naive_matrix(model.dim, model.torsion, vector_symbols(model))
            try:
                reports = enumerate_divisors(model, depth=2).reports
            except IndeterminateDegreeError:
                continue  # undetermined base boundary, nothing to telescope
            for report in reports:
                valuation = tuple(
                    int(part) for part in report.divisor_id[2:-1].split(",")
                )
                assert report.degree.monomial_order == monomial_order(
                    valuation, lift, model.torsion), report.divisor_id
                checked += 1
        assert checked >= 200

    def test_sibling_charts_agree_on_exceptional_degree(self):
        rng = random.Random(205)
        roots = []
        for _ in range(50):
            model = random_model(rng, extras=True)
            center = random_center(rng, model.dim)
            roots.append((model, center, model.blow_up(center)))
        for parent, center, blow in chain(roots, blow_ups(207, 50)):
            degrees = {
                child.cover_on(child.chart.pivot) for child in blow.children
            }
            assert len(degrees) == 1, blow.exceptional_id
            # the direct read from the parent builds no child
            assert parent.exceptional_cover(center) == (
                blow.exceptional_id, degrees.pop())


class TestRowUpdateSweeps:
    """The blow-up step as a row update, against the generic products."""

    def test_matrix_matches_transform(self):
        for parent, _, blow in blow_ups(601, 40):
            for child in blow.children:
                expected = transform(parent.matrix, step_matrix(child.chart))
                assert child.matrix.entries == expected.entries, \
                    child.chart.chart_id

    def test_total_substitution_matches_product(self):
        for parent, _, blow in blow_ups(602, 40):
            for child in blow.children:
                assert child.chart.total_substitution == compose_substitutions(
                    step_matrix(child.chart), parent.chart.total_substitution)

    def test_extras_match_generic_substitution(self):
        checked = 0
        for parent, _, blow in blow_ups(603, 40):
            for child in blow.children:
                step = step_matrix(child.chart)
                for old, new in zip(parent.extras, child.extras):
                    assert new.vector == tuple(
                        v % old.modulus
                        for v in apply_substitution(step, old.vector))
                    checked += 1
        assert checked >= 100


class TestResolutionSweeps:
    def test_fixup_leaves_are_clean_and_level_one_terminal(self):
        rng = random.Random(301)
        for _ in range(30):
            model = random_model(rng, torsions=(2,), dims=(3,))
            result = level_one_fixup(model)
            for leaf in result.models:
                assert find_bad_strata(leaf) == ()
            reports = enumerate_divisors(result.models, depth=1).reports
            assert weighted_infimum(reports) > 0

    def test_enumeration_reports_are_internally_consistent(self):
        rng = random.Random(302)
        for _ in range(15):
            model = random_model(rng, torsions=(2, 3, 5), dims=(2, 3),
                                 extras=True)
            outcome = enumerate_divisors(model, depth=2)
            assert outcome.complete
            seen = set()
            for report in outcome.reports:
                assert report.divisor_id not in seen
                seen.add(report.divisor_id)
                assert report.degree.candidates == tuple(
                    sorted(set(report.degree.candidates))
                )
                for entry in report.entries:
                    assert entry.weighted == entry.e * entry.b

    def test_torsion_two_bound_on_the_valuation(self):
        # Torsion 2 without extras: b(E_v) = sum v_k / e_k - 1 / e_v with
        # every e in {1, 2}, so b >= |v|_1 / 2 - 1, and b > 0 once
        # |v|_1 >= 3. This is the paper's theorem in this local model.
        rng = random.Random(901)
        checked = tight = 0
        for _ in range(30):
            model = random_model(rng, torsions=(2,), dims=(2, 3))
            for report in certify(model, depth=3).reports:
                v = [int(part) for part in report.divisor_id[2:-1].split(",")]
                floor = Fraction(sum(v), 2) - 1
                for entry in report.entries:
                    assert entry.b >= floor, report.divisor_id
                    if sum(v) >= 3:
                        assert entry.b > 0, report.divisor_id
                    checked += 1
                    tight += entry.b == floor
        assert checked >= 1000
        assert tight >= 50


def step_outcomes(walk, chart):
    """Uncached step of every center of a row-walk chart."""
    slots = walk.slots(chart)
    return [walk.step(chart, slots, center) for center in walk.centers]


class TestStateKeySweeps:
    """Enumeration reuses the steps of the first chart with a state key."""

    def test_equal_keys_mean_equal_states_and_steps(self):
        # Two BFS levels of the row walk on seeded models with extras;
        # within a level, any two charts with one key must agree on
        # everything a step reads and on every step's outcome.
        rng = random.Random(701)
        repeats = separated = 0
        for _ in range(12):
            model = model_with_extras(rng, max_dim=4)
            try:
                walk = _RowWalk([model])
            except IndeterminateDegreeError:
                continue  # undetermined base boundary, nothing to telescope
            level = walk.charts
            for _ in range(2):
                level = [child for chart in level
                         for center, step in zip(walk.centers,
                                                 step_outcomes(walk, chart))
                         for child in walk.children(chart, center, step, ())]
                groups = {}
                for chart in level:
                    groups.setdefault(chart.key, []).append(chart)
                ids = [key[1] for key in groups]
                separated += len(ids) - len(set(ids))
                for group in groups.values():
                    first = group[0]
                    expected = step_outcomes(walk, first)
                    for other in group[1:]:
                        repeats += 1
                        assert (other.rows, other.roots, other.abar) == (
                            first.rows, first.roots, first.abar)
                        assert step_outcomes(walk, other) == expected, (
                            first.chart_id, other.chart_id)
        # keys that differ only in exact flags occur, so the sweep sees them
        assert repeats >= 400
        assert separated >= 150


class TestModelFileSweeps:
    def test_random_specs_round_trip(self):
        rng = random.Random(401)
        for _ in range(80):
            r = rng.choice((2, 3, 4, 5, 6))
            dim = rng.randint(2, 5)
            labels = tuple(f"d{k}" for k in range(dim))
            symbols = [
                (*rng.sample(range(dim), 2), rng.randrange(1, r))
                for _ in range(rng.randint(0, 5))
            ]
            extras = [
                (labels[slot], rng.randint(2, 4))
                for slot in rng.sample(range(dim), rng.randint(0, dim))
            ]
            spec = ModelSpec.create(r, labels, symbols, extras)
            parsed, warnings = parse_model(format_model(spec))
            assert parsed == spec
            assert warnings == ()


class TestBoundarySweeps:
    def test_coefficients_lie_in_the_unit_interval(self):
        # prime torsion keeps root degrees determinate even with extras
        rng = random.Random(501)
        for _ in range(40):
            model = random_model(rng, torsions=(2, 3, 5), extras=True)
            boundary = boundary_divisor(model)
            for slot, label in enumerate(model.chart.divisor_ids):
                coeff = dict(boundary.coefficients)[label]
                assert 0 <= coeff < 1
                e = model.cover_on(slot).value
                assert coeff == Fraction(e - 1, e)
