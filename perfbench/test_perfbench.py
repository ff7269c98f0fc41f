"""Tests of the benchmark itself: the gate must be able to fail, and a
short run of each workload must print every metric it declares.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import calibrate
import gate
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from brauer_terminal import certify, load_model  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PINNED = json.loads((HERE / "pinned.json").read_text())


@pytest.fixture(scope="module")
def remark_case(tmp_path_factory):
    """Seeded remark model at the small depth, with its gate context."""
    item = inputs.DEEP["deep-extras"][0]
    spec, order = inputs.relabel(item.spec, random.Random(7))
    path = tmp_path_factory.mktemp("deep") / "remark.model"
    path.write_text(inputs.render(spec, random.Random(7)))
    cert = certify(load_model(path).model, item.small_depth)
    return cert, spec, order, PINNED["deep"][item.key(small=True)]


def test_gate_passes_seeded_relabelled_input(remark_case):
    cert, spec, order, pinned = remark_case
    outcome = gate.check_certificate(cert, spec, order, pinned)
    assert outcome.failed == 0
    assert outcome.attempted == len(cert.reports) + 1


def _corrupt(cert, change):
    reports = list(cert.reports)
    reports[3] = change(reports[3])
    return dataclasses.replace(cert, reports=tuple(reports))


def _shift_a(report):
    """A self-consistent report whose a is off by 1/2."""
    return type(report).from_degree(report.divisor_id, report.level,
                                    report.witness, report.a + Fraction(1, 2),
                                    report.degree)


def _change_order(report):
    degree = dataclasses.replace(report.degree,
                                 monomial_order=report.degree.monomial_order + 1)
    return dataclasses.replace(report, degree=degree)


@pytest.mark.parametrize("change", [_shift_a, _change_order],
                         ids=["a-shifted-by-half", "monomial-order-changed"])
def test_gate_counts_a_corrupted_report(remark_case, change):
    cert, spec, order, pinned = remark_case
    outcome = gate.check_certificate(_corrupt(cert, change), spec, order, pinned)
    # the report fails its closed form and the call summary its digest
    assert outcome.failed == 2
    assert outcome.failed / outcome.attempted > 0


def test_gate_counts_a_changed_cli_output(tmp_path):
    out = tmp_path / "out.jsonl"
    out.write_text('{"type":"boundary"}\n')
    expected = gate.out_digest(0, out)[0]
    assert gate.check_cli(0, out, expected).failed == 0
    out.write_text('{"type":"boundary "}\n')
    assert gate.check_cli(0, out, expected).failed == 1
    assert gate.check_cli(2, out, "2:-").failed == 0  # a pinned verdict


def test_corpus_is_seeded():
    assert inputs.corpus(5, "small") == inputs.corpus(5, "small")
    assert inputs.corpus(5, "small") != inputs.corpus(6, "small")
    full = inputs.corpus(5, "full")
    assert full != inputs.corpus(6, "full")
    # the seed changes order and text, never which models a run covers
    assert sorted(i for i, _ in full) == list(range(inputs.POOL_SIZE))


def test_calibration_leaves_out_kernel_time_and_scales():
    calibrator = calibrate.Calibrator()
    calibrator.starts, calibrator.durations = [0.0, 1.0], [0.1, 0.3]
    raw, reference = calibrator.measure(0.05, 1.05)
    # only the gap from 0.1 to 1.0 is engine time; its kernel mean is 0.2 s
    assert raw == pytest.approx(0.9)
    assert reference == pytest.approx(0.9 * calibrate.REFERENCE_S / 0.2)


def test_calibration_samples_inside_a_long_call():
    with calibrate.Calibrator() as calibrator:
        start = time.perf_counter()
        while time.perf_counter() - start < 5 * calibrate.EVERY_S:
            pass
        end = time.perf_counter()
    inside = [s for s in calibrator.starts if start < s < end]
    assert len(inside) >= 3
    raw, _ = calibrator.measure(start, end)
    assert raw == pytest.approx(end - start - sum(
        d for s, d in zip(calibrator.starts, calibrator.durations)
        if start < s < end))


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "deep-plain", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
