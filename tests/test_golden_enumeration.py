"""Golden enumerations: the whole ``EnumerationResult``, pinned by digest.

``test_golden.py`` pins the ``--out`` bytes of default-depth runs, which
carry reports but no side checks. These cases pin a canonical dump of
everything ``enumerate_divisors`` returns: every report with its witness,
candidates and sources, every side check with its divisor id, chart id,
center and value, ``probes``, ``complete`` and the indeterminate divisors.
The digests were taken before enumeration started reusing the steps of
repeated chart states, so any output that reuse moves shows up here.
The ``stratum_discrepancies`` case pins the one-step reports of every
stratum over a seeded corpus; it was taken while those reports still
computed b by their own formula, before they came from the walks' step.
The ``certify`` cases pin its reports and how it ended at the budget edges
of a depth-4 run; they were taken from the chart walk, before ``certify``
moved torsion 2 without extras to the valuation walk.
Re-pin only for an intended change of the enumeration, and say so in the
change log.
"""

import hashlib
import json
import random

import pytest

from brauer_terminal.discrepancy import stratum_discrepancies
from brauer_terminal.model import IndeterminateDegreeError, Model
from brauer_terminal.resolution import (certify, enumerate_divisors,
                                        level_one_fixup, remark_model)


def _fraction(value):
    return None if value is None else str(value)


def report_dumps(reports):
    return [
        {
            "divisor_id": r.divisor_id,
            "level": r.level,
            "witness": [[s.chart_id, list(s.indices), list(s.center)]
                        for s in r.witness],
            "a": _fraction(r.a),
            "monomial_order": r.degree.monomial_order,
            "candidates": list(r.degree.candidates),
            "sources": list(r.degree.sources),
            "entries": [[e.e, _fraction(e.b), _fraction(e.weighted)]
                        for e in r.entries],
        }
        for r in reports
    ]


def canonical_dump(result):
    """Deterministic JSON text of an enumeration result."""
    reports = report_dumps(result.reports)
    checks = [
        [c.divisor_id, c.chart_id, list(c.center), _fraction(c.value)]
        for c in result.side_checks
    ]
    return json.dumps({
        "reports": reports,
        "side_checks": checks,
        "indeterminate_divisors": list(result.indeterminate_divisors),
        "complete": result.complete,
        "probes": result.probes,
    }, separators=(",", ":"))


def bad_case_bases():
    model = Model.affine(2, ("x1", "x2", "x3"), [(0, 2, 1), (1, 2, 1)])
    return level_one_fixup(model).charts


def dim4_plain():
    return Model.affine(2, ("x1", "x2", "x3", "x4"), [(0, 2, 1), (1, 3, 1)])


def dim4_extra():
    return Model.affine(3, ("x1", "x2", "x3", "x4"), [(0, 1, 1)],
                        extra_degrees={"x4": 3})


GOLDEN = [
    ("bad-case", bad_case_bases, 1, 200000,
     "b3425d2ad78a78bb9cb67175898e4bbe6559462e3204fed2a6792ca93464c1e8"),
    ("bad-case", bad_case_bases, 2, 200000,
     "3e5eef55cbca18c9ca6ebc64a9a1aecadb7e9bc417a4cb0a4cba3c15c9051368"),
    ("bad-case", bad_case_bases, 3, 200000,
     "98549de1ba2645b90b8e9793eb36e68ad0d606a1037ea72d2fb1ec042f7e4760"),
    ("bad-case", bad_case_bases, 4, 200000,
     "87f6b7dd3d1c10ea1af6a526e79148e40edf4f52012d9b7940355e111e07074a"),
    ("remark", remark_model, 1, 200000,
     "b819be3f8873b2aae6582752b06581013a8c82f5190c470fa151e404bbcea428"),
    ("remark", remark_model, 2, 200000,
     "e530843c5661865c9a31654e0f38d84be2a674e331bc8f6044bc45e9ed1b5dc0"),
    ("remark", remark_model, 3, 200000,
     "9760710cf2999d5910064693a561a6db00a2851be9d991690ca48007371e27a6"),
    ("remark", remark_model, 4, 200000,
     "10c2e6e480c188b7405671a9bdcd15855eb57ea0e15b6dc9da26252e31d4e691"),
    # the budget runs out part way through the third level
    ("x1x3+x2x4", dim4_plain, 3, 3001,
     "056ac7a1eeda3d3a133be71501391124b81e2d1aff7ad906c00e33197b061f9c"),
    ("x1x2+x4^3", dim4_extra, 2, 200000,
     "1c36a508720a6ff1e4f3afe4dcaab63192f9436216a7a48960e1fcc6835c6e70"),
    # depth 3 is the depth the benchmark certifies this model at; these two
    # digests were taken before children inherited their parent's steps
    ("x1x2+x4^3", dim4_extra, 3, 200000,
     "a192c3421a38f41558b2923cc6355dc4f8dbdd8d3f7f282621b6b34abe12068c"),
    # the budget runs out part way through the third level
    ("x1x2+x4^3", dim4_extra, 3, 3001,
     "9646e919c7ee3cd024b64d8ee835fde9b5ce0e8930b0bba8ee5d6aafb580b5a0"),
]


@pytest.mark.parametrize(
    "name,bases,depth,max_probes,digest", GOLDEN,
    ids=[f"{name}-depth{depth}-max{max_probes}"
         for name, _, depth, max_probes, _ in GOLDEN])
def test_enumeration_pinned(name, bases, depth, max_probes, digest):
    result = enumerate_divisors(bases(), depth, max_probes=max_probes)
    text = canonical_dump(result)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def certificate_dump(cert):
    """The same for a certificate: its reports and how the audit ended."""
    return json.dumps({
        "reports": report_dumps(cert.reports),
        "complete": cert.complete,
        "verdict": cert.verdict,
        "min_weighted": _fraction(cert.min_weighted),
        "min_witness": cert.min_witness,
        "failures": list(cert.side_conditions.failures),
    }, separators=(",", ":"))


# Dim-4 x1x3+x2x4 at depth 4 needs 11 (1 + 28 + 784 + 21952) = 250415
# probes. Pinned from the chart walk.
CERTIFY_GOLDEN = [
    (200000, 2150,
     "04efaddd04abd76171354d580b72155bf561d28e0543623224b9254809b33a5a"),
    (250414, 2484,
     "1f019b09d18dddd74a35c62efd9ca2755dd869c54b9101f46e96a69dee2084a4"),
    (250415, 2485,
     "f1ecb3c8275de26c294283da92bbe2d3bd2bb9aa16e892ecdea4838fb716b5fe"),
]


@pytest.mark.parametrize("max_probes,reports,digest", CERTIFY_GOLDEN,
                         ids=[f"max{case[0]}" for case in CERTIFY_GOLDEN])
def test_certify_at_the_budget_edges_pinned(max_probes, reports, digest):
    cert = certify(dim4_plain(), depth=4, max_probes=max_probes)
    assert len(cert.reports) == reports
    assert cert.complete is (max_probes == 250415)
    text = certificate_dump(cert)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def stratum_corpus(seed=8101, count=300):
    """Seeded models: torsion 2-12, dimension 2-5, every other one with
    extras, and a third each on the root, a child and a grandchild chart."""
    rng = random.Random(seed)
    for k in range(count):
        r = rng.randint(2, 12)
        dim = rng.randint(2, 5)
        labels = tuple(f"x{i + 1}" for i in range(dim))
        symbols = [(*rng.sample(range(dim), 2), rng.randrange(1, r))
                   for _ in range(rng.randint(0, 4))]
        degrees = {} if k % 2 else {
            label: rng.randint(2, 6)
            for label in rng.sample(labels, rng.randint(1, 2))}
        chart = Model.affine(r, labels, symbols, degrees).chart
        for _ in range(k % 3):
            center = tuple(sorted(rng.sample(range(dim), rng.randint(2, dim))))
            children = chart.children(center)
            chart = children[rng.randrange(len(children))]
        yield chart


def stratum_dump(chart):
    """Reports of every stratum, or the divisors an undetermined boundary
    names."""
    try:
        return {"reports": report_dumps(stratum_discrepancies(chart))}
    except IndeterminateDegreeError as exc:
        return {"undetermined": list(exc.divisor_ids)}


def test_stratum_discrepancies_pinned():
    dumps = [[c.chart_id, stratum_dump(c)] for c in stratum_corpus()]
    assert sum("undetermined" in d for _, d in dumps) >= 50
    assert sum("reports" in d for _, d in dumps) >= 200
    text = json.dumps(dumps, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d46984afa8eaa2265e282e30716f3991b0c0b370db7a9baa3713fc0b22478268")
