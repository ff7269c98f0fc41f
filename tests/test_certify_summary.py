"""``certify``'s one-pass summary against the multi-pass reference.

``certify`` reads the least weighted discrepancy, its witness, level-one
positivity, the b >= 0 side conditions with their failure lines and the
verdict in one loop, from numerator signs and integer cross-products.
``oracles.certify_summary`` reads the same enumeration one pass per number
with Fraction operators. The enumeration ``certify`` used is captured by
wrapping both walks, so the two sides read the same reports and side
checks.
"""

import random
from fractions import Fraction

import pytest

from brauer_terminal import enumeration, resolution
from brauer_terminal.enumeration import SideCheck
from brauer_terminal.model import IndeterminateDegreeError, Model
from brauer_terminal.resolution import certify, remark_model

from .oracles import certify_summary


def certified(monkeypatch, model, depth, **kwargs):
    """``certify``'s certificate and the reference summary of its walk."""
    seen = []
    for name in ("enumerate_divisors", "_valuation_walk"):
        walk = getattr(resolution, name)

        def captured(*args, _walk=walk, **kw):
            seen.append(_walk(*args, **kw))
            return seen[-1]

        monkeypatch.setattr(resolution, name, captured)
    cert = certify(model, depth, **kwargs)
    monkeypatch.undo()
    (enum,) = seen
    assert cert.reports == enum.reports
    return cert, certify_summary(enum.reports, enum.side_checks,
                                 enum.complete, cert.bad_strata,
                                 model.torsion, kwargs.get("fixup", True))


def summary(cert):
    side = cert.side_conditions
    return {
        "min_weighted": cert.min_weighted,
        "min_witness": cert.min_witness,
        "level1_terminal": cert.level1_terminal,
        "level1_b_nonnegative": side.level1_b_nonnegative,
        "exceptional_b_nonnegative": side.exceptional_b_nonnegative,
        "one_step_a_nonnegative": side.one_step_a_nonnegative,
        "failures": side.failures,
        "verdict": cert.verdict,
    }


def corpus(seed=4242, count=400):
    """(model, depth, keyword arguments): torsion 2-6, dimension 2-4, zero
    to two extras, depth 1-3 (1-2 on dimension 4), some walks cut by the
    probe budget and some torsion-2 ones left unfixed."""
    rng = random.Random(seed)
    for k in range(count):
        r = rng.randint(2, 6)
        dim = rng.randint(2, 4)
        labels = tuple(f"x{i + 1}" for i in range(dim))
        symbols = [(*rng.sample(range(dim), 2), rng.randrange(1, r))
                   for _ in range(rng.randint(0, 3))]
        degrees = {label: rng.choice((2, 3, 4, r))
                   for label in rng.sample(labels, k % 3)}
        depth = rng.randint(1, 3 if dim < 4 else 2)
        kwargs = {"max_probes": rng.choice((200000, 200000, 3, 40)),
                  "fixup": rng.random() < 0.7}
        yield Model.affine(r, labels, symbols, degrees), depth, kwargs


def test_summary_matches_the_reference_on_a_seeded_corpus(monkeypatch):
    verdicts, failing, undetermined, level1_bad = {}, 0, 0, 0
    for model, depth, kwargs in corpus():
        try:
            cert, expected = certified(monkeypatch, model, depth, **kwargs)
        except IndeterminateDegreeError:
            undetermined += 1
            continue
        assert summary(cert) == expected, (model.torsion, model.dim, depth,
                                           kwargs)
        verdicts[cert.verdict] = verdicts.get(cert.verdict, 0) + 1
        failing += bool(expected["failures"])
        level1_bad += not expected["level1_terminal"]
    assert len(verdicts) == 3 and min(verdicts.values()) >= 10, verdicts
    assert failing >= 100 and level1_bad >= 50 and undetermined >= 20


@pytest.mark.parametrize("fixup", [True, False])
def test_bad_case(monkeypatch, fixup):
    model = Model.affine(2, ("x1", "x2", "x3"), [(0, 2, 1), (1, 2, 1)])
    cert, expected = certified(monkeypatch, model, 3, fixup=fixup)
    assert summary(cert) == expected
    assert cert.verdict == ("terminal-certified" if fixup
                            else "bad-stratum-found")


def test_remark_depth_four(monkeypatch):
    # certify reads the failing side checks off the walk's blocks and
    # builds no SideCheck; a later read of the walk's checks builds them
    made, walks = [], []

    def counted(*args, **kw):
        made.append(args)
        return SideCheck(*args, **kw)

    def walked(*args, _walk=resolution.enumerate_divisors, **kw):
        walks.append(_walk(*args, **kw))
        return walks[-1]

    monkeypatch.setattr(enumeration, "SideCheck", counted)
    monkeypatch.setattr(resolution, "enumerate_divisors", walked)
    cert, expected = certified(monkeypatch, remark_model(), 4)
    assert made == []
    assert summary(cert) == expected
    side = [f for f in cert.side_conditions.failures if f.startswith("a(")]
    assert len(side) == 980
    assert len(walks[0].side_checks) == 3280
    assert len(list(walks[0].side_checks)) == 3280


def test_two_extras_without_symbols(monkeypatch):
    # every level-one center of x1, x2 meets both degree-3 extras
    model = Model.affine(3, ("x1", "x2", "x3"), [],
                         extra_degrees={"x1": 3, "x2": 3})
    cert, expected = certified(monkeypatch, model, 2)
    assert summary(cert) == expected
    assert cert.verdict == "indeterminate"
    assert (cert.min_weighted, cert.min_witness) == (Fraction(-1, 3),
                                                     "E(1,1,0)")
    failures = cert.side_conditions.failures
    assert len(failures) == 12 and failures[0] == "level-1 b < 0"
