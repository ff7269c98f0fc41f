"""Randomized consistency sweeps over models, walks, and transforms.

Each test draws from a seeded generator, so failures replay exactly.
The naive symbol oracle and the reference blow-up from oracles.py are the
independent references for everything the engine reads off a chart's
root valuation rows: pairing entries, residue orders, exposures, exact
flags and degrees.
"""

import random
from fractions import Fraction
from itertools import chain

from brauer_terminal.discrepancy import (b_from_a, boundary_divisor,
                                         brauer_discrepancy, weighted_infimum)
from brauer_terminal.model import (IndeterminateDegreeError, Model, _centers,
                                   _put, strata)
from brauer_terminal.modelfile import ModelSpec, format_model, parse_model
from brauer_terminal.enumeration import enumerate_divisors
from brauer_terminal.resolution import (certify, find_bad_strata,
                                        level_one_fixup)
from brauer_terminal.symbols import SymbolMatrix, check_complex, residue_order

from .oracles import (accumulate_symbols, blow_up, compose_substitutions,
                      cover_on, determinant, monomial_order, naive_matrix,
                      naive_residue, root_chart, step_matrix,
                      substitute_symbols, toric_discrepancy, transform)
from .test_symbols import chart_matrix


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
    """Follow one random chain of blow-ups; yields each chart visited."""
    chart = model.chart
    yield chart
    for _ in range(steps):
        center = random_center(rng, chart.dim)
        children = chart.children(center)
        chart = children[rng.randrange(len(children))]
        yield chart


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
    """(parent, center, children) along random walks of random models, with
    the reference parent and children of the same route."""
    rng = random.Random(seed)
    for _ in range(count):
        model = model_with_extras(rng)
        chart, reference = model.chart, root_chart(model)
        for _ in range(steps):
            center = random_center(rng, model.dim)
            children = chart.children(center)
            references = blow_up(reference, center)
            yield chart, center, children, reference, references
            pick = rng.randrange(len(children))
            chart, reference = children[pick], references[pick]


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
                verdict = check_complex(chart_matrix(step))
                assert verdict.ok, (step.chart_id, verdict.violations)

    def test_matches_naive_oracle_along_walks(self):
        rng = random.Random(102)
        for _ in range(40):
            model = random_model(rng)
            symbols = vector_symbols(model)
            for step in random_walk(rng, model, 3):
                moved = substitute_symbols(symbols, step.rows)
                expected = naive_matrix(step.dim, model.torsion, moved)
                assert [list(row) for row in chart_matrix(step).entries] \
                    == expected

    def test_functorial_in_the_total_substitution(self):
        rng = random.Random(103)
        for _ in range(40):
            model = random_model(rng)
            root_matrix = model.matrix
            for step in random_walk(rng, model, 3):
                direct = transform(root_matrix, step.rows)
                assert direct == chart_matrix(step)

    def test_residue_matches_naive_oracle(self):
        rng = random.Random(104)
        for _ in range(30):
            model = random_model(rng)
            symbols = vector_symbols(model)
            for step in random_walk(rng, model, 2):
                moved = substitute_symbols(symbols, step.rows)
                for slot in range(step.dim):
                    want = naive_residue(step.dim, model.torsion, moved, slot)
                    assert step.cover_on(slot).monomial_order == \
                        residue_order(model.torsion, want), (step.chart_id,
                                                             slot)

    def test_substitutions_stay_unimodular(self):
        rng = random.Random(105)
        for _ in range(40):
            model = random_model(rng)
            for step in random_walk(rng, model, 3):
                assert determinant(step.rows) in (1, -1)


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
            reference = root_chart(model)
            roots.append((model.chart, center, model.chart.children(center),
                          reference, blow_up(reference, center)))
        for parent, center, children, _, references in chain(
                roots, blow_ups(207, 50)):
            degrees = {child.cover_on(p) for child, p in zip(children, center)}
            assert len(degrees) == 1, children[0].chart_id
            assert degrees == {cover_on(r, r.pivot) for r in references}
            # the step reads it from the parent and builds no child
            walk = parent.model.walk
            slots = walk.slots(parent)
            step = walk.step(parent, slots, center, slots[0])
            assert (step.divisor_id, step.degree) == (
                children[0].divisor_ids[center[0]], degrees.pop())


class TestRowUpdateSweeps:
    """The blow-up step on root rows, against the generic products."""

    def test_matrix_matches_transform(self):
        for _, _, children, reference, references in blow_ups(601, 40):
            for child, expected in zip(children, references):
                assert chart_matrix(child) == transform(
                    reference.matrix, step_matrix(expected)), child.chart_id
                assert child.chart_id == expected.chart_id

    def test_total_substitution_matches_product(self):
        for parent, _, children, _, references in blow_ups(602, 40):
            for child, expected in zip(children, references):
                assert child.rows == compose_substitutions(
                    step_matrix(expected), parent.rows)

    def test_extras_match_generic_substitution(self):
        checked = 0
        for _, _, children, _, references in blow_ups(603, 40):
            for child, expected in zip(children, references):
                labels = child.model.labels
                for k, divisor_id in enumerate(child.divisor_ids):
                    for flag, extra in zip(child.exact[k], expected.extras):
                        row = child.rows[k][labels.index(extra.origin_id)]
                        assert row % extra.modulus == extra.vector[k]
                        assert flag == (divisor_id in extra.exact_on)
                        checked += 1
                    assert child.cover_on(k) == cover_on(expected, k)
        assert checked >= 100


class TestResolutionSweeps:
    def test_fixup_leaves_are_clean_and_level_one_terminal(self):
        rng = random.Random(301)
        for _ in range(30):
            model = random_model(rng, torsions=(2,), dims=(3,))
            result = level_one_fixup(model)
            for leaf in result.charts:
                assert find_bad_strata(leaf) == ()
            reports = enumerate_divisors(result.charts, depth=1).reports
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


def step_outcomes(walk, chart, abar):
    """Uncached step of every center of a chart."""
    slots = walk.slots(chart)
    return [walk.step(chart, slots, center, abar)
            for center in _centers(chart.dim)]


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
            walk = model.walk
            try:
                level = [(model.chart, walk.base_row(model.chart))]
            except IndeterminateDegreeError:
                continue  # undetermined base boundary, nothing to telescope
            for _ in range(2):
                level = [
                    (child, _put(abar, p, -step.a))
                    for chart, abar in level
                    for center, step in zip(_centers(model.dim),
                                            step_outcomes(walk, chart, abar))
                    for p, child in zip(center,
                                        walk.children(chart, center, step))]
                groups = {}
                for chart, abar in level:
                    groups.setdefault((chart.divisor_ids, chart.exact),
                                      []).append((chart, abar))
                ids = [key[0] for key in groups]
                separated += len(ids) - len(set(ids))
                for group in groups.values():
                    first, first_abar = group[0]
                    expected = step_outcomes(walk, first, first_abar)
                    for other, other_abar in group[1:]:
                        repeats += 1
                        assert (other.rows, other_abar) == (first.rows,
                                                            first_abar)
                        assert step_outcomes(walk, other, other_abar) \
                            == expected, (first.chart_id, other.chart_id)
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


    def test_create_matches_dict_accumulation(self):
        # self-pairs, reversed pairs, negative exponents and multiples of r
        rng = random.Random(403)
        for _ in range(200):
            r = rng.choice((2, 3, 4, 6, 12))
            dim = rng.randint(1, 5)
            labels = tuple(f"d{k}" for k in range(dim))
            symbols = [(rng.randrange(dim), rng.randrange(dim),
                        rng.choice((rng.randint(-2 * r, 2 * r),
                                    r * rng.randint(-2, 2))))
                       for _ in range(rng.randint(0, 8))]
            spec = ModelSpec.create(r, labels, symbols)
            assert spec.symbols == accumulate_symbols(r, symbols), symbols


class TestAlternationSweeps:
    def test_model_rejects_exactly_what_check_complex_flags(self):
        rng = random.Random(409)
        flagged = 0
        for _ in range(300):
            r = rng.choice((2, 3, 4, 6))
            dim = rng.randint(1, 4)
            matrix = SymbolMatrix.from_symbols(
                r, dim, [(*rng.sample(range(dim), 2), rng.randrange(r))
                         for _ in range(rng.randint(0, 4)) if dim > 1])
            entries = [list(row) for row in matrix.entries]
            for _ in range(rng.choice((0, 0, 1, 2))):  # break some
                entries[rng.randrange(dim)][rng.randrange(dim)] = \
                    rng.randrange(r)
            matrix = SymbolMatrix(r, tuple(map(tuple, entries)))
            labels = tuple(f"x{k + 1}" for k in range(dim))
            try:
                Model(labels=labels, matrix=matrix)
                rejected = False
            except ValueError as exc:
                assert "alternating" in str(exc)
                rejected = True
            assert rejected == (not check_complex(matrix).ok), entries
            flagged += rejected
        assert 50 <= flagged <= 250


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
