"""The ``report`` lines of ``--out`` against the generic canonical encoder.

``cli._report_lines`` puts each line together from fragments it reuses
across reports. Every line must equal ``oracles.report_line``: the old dict
shape of a report through ``json.JSONEncoder(sort_keys=True,
separators=(",", ":"))``.
"""

import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from brauer_terminal import cli
from brauer_terminal.cli import main
from brauer_terminal.discrepancy import (DiscrepancyReport, ReportEntry,
                                         WitnessStep, stratum_discrepancies)
from brauer_terminal.model import CoverDegree, IndeterminateDegreeError
from brauer_terminal.modelfile import load_model, parse_model
from brauer_terminal.resolution import certify

from .oracles import report_line
from .test_golden import GOLDEN, GOLDEN_IDS, MODELS, golden_argv
from .test_properties import random_model


TWO_SLOT = ("[model]\ntorsion = 2\ndimension = 2\nlabels = x1,x2\n"
            "[symbols]\nx1 x2 1\n")


def lines(reports):
    return list(cli._report_lines(reports))


@pytest.mark.parametrize("model,command,code,digest",
                         [case[:4] for case in GOLDEN], ids=GOLDEN_IDS)
def test_golden_report_lines(monkeypatch, tmp_path, capsys, model, command,
                             code, digest):
    seen = []
    writer = cli._report_lines

    def recorded(reports):
        reports = tuple(reports)
        seen.extend(reports)
        return writer(reports)

    monkeypatch.setattr(cli, "_report_lines", recorded)
    out = tmp_path / "out.jsonl"
    assert main([*golden_argv(model, command), "--out", str(out)]) == code
    written = [] if digest is None else [
        line for line in out.read_text().splitlines()
        if json.loads(line)["type"] == "report"]
    assert written == [report_line(report) for report in seen]


def test_seeded_reports_with_candidates_and_negative_values():
    rng = random.Random(2603)
    reports = []
    for _ in range(40):
        model = random_model(rng, extras=True)
        try:
            reports.extend(certify(model, depth=2, fixup=False).reports)
        except IndeterminateDegreeError:
            continue
    # the sweep reaches every shape of a line
    assert any(len(r.degree.candidates) > 1 for r in reports)
    assert any(r.a < 0 for r in reports)
    assert any(entry.b < 0 for r in reports for entry in r.entries)
    assert lines(reports) == [report_line(r) for r in reports]


def test_deep_routes():
    # every center of the 2-slot model is the same slot pair, so only the
    # chart ids tell the steps of two routes apart
    model, _ = parse_model(TWO_SLOT)
    reports = certify(model, depth=8).reports
    assert lines(reports) == [report_line(r) for r in reports]


def test_non_ascii_labels_escaped():
    model = load_model(MODELS / "non-ascii.model").model
    for reports in (stratum_discrepancies(model),
                    certify(model, depth=3).reports):
        written = lines(reports)
        assert written == [report_line(r) for r in reports]
        assert all(line.isascii() for line in written)
        assert any("x\\u00e9" in line for line in written)


def test_reports_built_directly():
    entries = (ReportEntry(1, Fraction(-1, 2), Fraction(-1, 2)),
               ReportEntry(2, Fraction(0), Fraction(0)))
    degree = CoverDegree(2, (1, 2))
    root = WitnessStep("r", (0, 1), ("x", "y"))
    child = WitnessStep("r.1-2p1", (0, 1), ("x", "y"))
    sibling = WitnessStep("r.1-2p2", (0, 1), ("x", "y"))
    reports = [
        DiscrepancyReport("E(1,1)", 1, (root,), Fraction(-1, 2), degree,
                          entries),
        # the same entries under another monomial order
        DiscrepancyReport("E(1,2)", 2, (root, child), Fraction(-1, 2),
                          CoverDegree(4, (1, 2)), entries),
        # equal steps that are other objects, and equal entries that are
        # another tuple
        DiscrepancyReport("E(1,2)", 2, (WitnessStep("r", (0, 1), ("x", "y")),
                                        child),
                          Fraction(-1, 2), degree, tuple(list(entries))),
        # a step with the same center on another chart
        DiscrepancyReport("E(2,1)", 2, (root, sibling), Fraction(-1, 2),
                          degree, entries),
        # a shorter witness after a longer one
        DiscrepancyReport("E(1,1)", 1, (root,), Fraction(-1, 2), degree,
                          entries),
    ]
    assert lines(reports) == [report_line(r) for r in reports]


def test_zero_reports():
    assert lines(()) == []


def test_writer_memory_above_certificate():
    model, _ = parse_model(TWO_SLOT)
    cert = certify(model, depth=14)
    assert len(cert.reports) == 2 ** 14 - 1
    tracemalloc.start()
    try:
        for _ in cli._report_lines(cert.reports):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # fragments per (monomial order, entries tuple) and one text per step
    # of the current witness; a cache per degree object read 7.4 MB here
    assert peak < 1 << 20
