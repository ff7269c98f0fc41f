"""End-to-end command line checks, driven through main()."""

import argparse
import hashlib
import inspect
import json
import time
import tracemalloc
from pathlib import Path

import pytest

from brauer_terminal import cli
from brauer_terminal.cli import main
from brauer_terminal.model import _RowWalk
from brauer_terminal.modelfile import load_model
from brauer_terminal.resolution import certify

from .test_golden import GOLDEN, GOLDEN_IDS, golden_argv

MODELS = Path(__file__).resolve().parents[1] / "models"
BAD = str(MODELS / "bad-case.model")
REMARK = str(MODELS / "remark.model")


def read_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestBoundary:
    def test_exit_and_table(self, capsys):
        assert main(["boundary", "--model", BAD]) == 0
        out = capsys.readouterr().out
        assert "divisor" in out
        assert "x1" in out and "1/2" in out

    def test_machine_output(self, tmp_path, capsys):
        out = tmp_path / "b.jsonl"
        assert main(["boundary", "--model", REMARK, "--out", str(out)]) == 0
        lines = read_lines(out)
        assert [l["divisor"] for l in lines] == ["x1", "x2", "x3"]
        assert all(l["type"] == "boundary" for l in lines)
        assert lines[0]["coefficient"] == [2, 3]
        assert lines[2]["extra_degree"] == 3
        assert lines[2]["e"] == 3

    def test_kinds_and_extra_degrees(self, tmp_path, capsys):
        out = tmp_path / "b.jsonl"
        assert main(["boundary", "--model", REMARK, "--out", str(out)]) == 0
        lines = read_lines(out)
        assert [l["kind"] for l in lines] == ["original"] * 3
        assert [l["extra_degree"] for l in lines] == [1, 1, 3]


class TestDiscrepancy:
    def test_bad_case_flagged(self, capsys):
        assert main(["discrepancy", "--model", BAD]) == 2
        out = capsys.readouterr().out
        assert "E(1,1,0)" in out

    def test_remark_root_clean(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert main(["discrepancy", "--model", REMARK, "--out", str(out)]) == 0
        lines = read_lines(out)
        assert len(lines) == 4  # three codim-2 strata plus the origin
        first = lines[0]
        assert first["divisor"] == "E(1,1,0)"
        assert first["a"] == [-1, 3]
        assert first["entries"] == [{"e": 3, "b": [1, 3], "weighted": [1, 1]}]

    @pytest.mark.parametrize("text,strata", [
        ((MODELS / "remark.model").read_text(), 4),
        ("[model]\ntorsion = 2\ndimension = 4\nlabels = a,b,c,d\n"
         "[symbols]\na c 1\n", 11),
    ], ids=["remark", "4-slot"])
    def test_boundary_read_once_per_command(self, monkeypatch, tmp_path,
                                            capsys, text, strata):
        model = tmp_path / "m.model"
        model.write_text(text)
        calls = []
        base_row = _RowWalk.base_row

        def counted(walk, chart):
            calls.append(chart)
            return base_row(walk, chart)

        monkeypatch.setattr(_RowWalk, "base_row", counted)
        out = tmp_path / "out.jsonl"
        main(["discrepancy", "--model", str(model), "--out", str(out)])
        assert len(calls) == 1
        assert len(read_lines(out)) == strata


class TestResolve:
    def test_bad_case(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        assert main(["resolve", "--model", BAD, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "fixup rounds: 1" in text
        lines = read_lines(out)
        assert lines[0] == {"type": "fixup", "root": "r", "rounds": 1}
        edges = [l for l in lines if l["type"] == "edge"]
        assert len(edges) == 2
        assert all(e["kind"] == "fixup" for e in edges)
        assert all(e["exceptional"] == "E(1,1,0)" for e in edges)
        assert lines[-1] == {"type": "leaves", "charts": ["r.1-2p1", "r.1-2p2"]}

    def test_clean_model_no_rounds(self, tmp_path, capsys):
        path = tmp_path / "clean.model"
        path.write_text(
            "[model]\ntorsion = 2\ndimension = 3\nlabels = x1,x2,x3\n"
            "[symbols]\nx1 x2 1\nx1 x3 1\nx2 x3 1\n"
        )
        assert main(["resolve", "--model", str(path)]) == 0
        text = capsys.readouterr().out
        assert "fixup rounds: 0" in text
        assert "leaves: r" in text

    def test_wrong_torsion_errors(self, capsys):
        assert main(["resolve", "--model", REMARK]) == 1
        assert "torsion 2" in capsys.readouterr().err


class TestCertify:
    def test_bad_case_certifies_after_fixup(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        assert main(["certify", "--model", BAD, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "verdict: terminal-certified" in text
        assert "fixup rounds: 1" in text
        cert = read_lines(out)[0]
        assert cert["type"] == "certificate"
        assert cert["verdict"] == "terminal-certified"
        assert cert["min_weighted"] == [1, 1]
        assert cert["bad_strata"] == [["x1", "x2"]]
        assert cert["complete"] is True

    def test_no_fixup_reports_bad_stratum(self, capsys):
        assert main(["certify", "--model", BAD, "--no-fixup"]) == 2
        text = capsys.readouterr().out
        assert "verdict: bad-stratum-found" in text
        assert "bad strata at base: x1,x2" in text

    def test_remark_model_indeterminate(self, capsys):
        assert main(["certify", "--model", REMARK, "--depth", "2"]) == 3
        text = capsys.readouterr().out
        assert "verdict: indeterminate" in text
        assert "E(2,0,1)" in text

    def test_incomplete_run_says_so(self, tmp_path, capsys):
        full = tmp_path / "full.jsonl"
        assert main(["certify", "--model", BAD, "--depth", "3",
                     "--out", str(full)]) == 0
        assert "incomplete" not in capsys.readouterr().out
        cut = tmp_path / "cut.jsonl"
        assert main(["certify", "--model", BAD, "--depth", "3",
                     "--max-probes", "10", "--out", str(cut)]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == [
            "verdict: indeterminate",
            "levels checked: 3",
            "incomplete: the probe budget ran out, so nothing is certified "
            "beyond the levels it reached",
        ]
        assert read_lines(cut)[0]["complete"] is False

    @pytest.mark.parametrize("budget,code,reports", [
        (["--max-probes", "250415"], 0, 2485),
        (["--max-probes", "250414"], 3, 2484),
        ([], 3, 2150),
    ], ids=["max250415", "max250414", "default"])
    def test_probe_budget_option(self, tmp_path, capsys, budget, code,
                                 reports):
        # depth 4 of dim-4 x1x3+x2x4 needs 250415 probes
        model = tmp_path / "dim4.model"
        model.write_text("[model]\ntorsion = 2\ndimension = 4\n"
                         "labels = x1,x2,x3,x4\n[symbols]\nx1 x3 1\n"
                         "x2 x4 1\n")
        out = tmp_path / "out.jsonl"
        assert main(["certify", "--model", str(model), "--depth", "4",
                     *budget, "--out", str(out)]) == code
        lines = capsys.readouterr().out.splitlines()
        verdict = "terminal-certified" if code == 0 else "indeterminate"
        assert lines[0] == f"verdict: {verdict}"
        assert lines[2].startswith("incomplete:") is (code == 3)
        written = read_lines(out)
        assert written[0]["complete"] is (code == 0)
        assert sum(line["type"] == "report" for line in written) == reports

    @pytest.mark.parametrize("torsion,symbols,failures", [
        (3, "x2 x1 2\nx3 x1 1\n", 5),
        (4, "x3 x2 3\nx1 x2 1\n", 6),
    ], ids=["five", "six"])
    def test_at_most_five_failures_listed(self, tmp_path, capsys, torsion,
                                          symbols, failures):
        model = tmp_path / "m.model"
        model.write_text(f"[model]\ntorsion = {torsion}\ndimension = 3\n"
                         f"labels = x1,x2,x3\n[symbols]\n{symbols}")
        out = tmp_path / "c.jsonl"
        assert main(["certify", "--model", str(model), "--depth", "1",
                     "--out", str(out)]) == 2
        cert = read_lines(out)[0]
        assert len(cert["side_conditions"]["failures"]) == failures
        lines = capsys.readouterr().out.splitlines()
        listed = [line for line in lines
                  if line.startswith("side condition failed: ")]
        assert listed == [f"side condition failed: {failure}" for failure
                          in cert["side_conditions"]["failures"][:5]]
        assert [line for line in lines if line.startswith("... and ")] == (
            [] if failures == 5
            else ["... and 1 more side condition failures"])

    def test_deterministic_machine_output(self, tmp_path, capsys):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        assert main(["certify", "--model", BAD, "--out", str(first)]) == 0
        assert main(["certify", "--model", BAD, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestRemark:
    def test_exit_and_narrative(self, capsys):
        assert main(["remark"]) == 3
        text = capsys.readouterr().out
        assert "E(1,0,1)" in text
        assert "degree candidates [1, 3]" in text
        assert "verdict: indeterminate" in text

    def test_machine_output(self, tmp_path, capsys):
        out = tmp_path / "m.jsonl"
        assert main(["remark", "--out", str(out)]) == 3
        lines = read_lines(out)
        summary = lines[0]
        assert summary["type"] == "remark"
        assert summary["b_e"] == [1, 3]
        assert summary["a_f_on_x"] == [0, 1]
        assert summary["a_f_on_y"] == [-1, 3]
        assert [c["e"] for c in summary["candidates"]] == [1, 3]
        assert summary["candidates"][1]["weighted"] == [2, 1]
        # e*b <= 0 only at e = 1; b(F,X) = b(F,Y) + b(E,X) at both
        assert [c["obstruction"] is not None
                for c in summary["candidates"]] == [True, False]
        assert [c["additive"] for c in summary["candidates"]] == [True, True]
        assert summary["verdict"] == "indeterminate"
        composition = lines[-1]
        assert composition["type"] == "composition"
        assert composition["passed"] is True
        failed = [c for c in composition["side_conditions"] if c["ok"] is False]
        assert [c["name"] for c in failed] == ["a(E(2,0,1),Y,Delta_Y) >= 0"]


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["boundary", "--model", "/nonexistent/x.model"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "broken.model"
        path.write_text("torsion = 2\n")
        assert main(["boundary", "--model", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.model"
        path.write_bytes(b"[model]\ntorsion = 2\n# caf\xe9\n")
        assert main(["boundary", "--model", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "byte offset 25" in err
        assert "Traceback" not in err

    def test_byte_order_mark_file(self, tmp_path, capsys):
        path = tmp_path / "bom.model"
        path.write_bytes(b"\xef\xbb\xbf" + Path(BAD).read_bytes())
        out = tmp_path / "out.jsonl"
        assert main(["certify", "--model", str(path), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            golden_digest("bad-case", ("certify",))

    def test_usage_error(self, capsys):
        assert main(["certify"]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "boundary" in capsys.readouterr().out

    def test_warnings_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "warn.model"
        path.write_text(
            "[model]\ntorsion = 2\ndimension = 2\nlabels = a,b\n"
            "[symbols]\na a 1\n"
        )
        assert main(["boundary", "--model", str(path)]) == 0
        assert "warning:" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", ["0", "-1", "two"])
    def test_bad_depth_rejected(self, depth, capsys):
        assert main(["certify", "--model", BAD, "--depth", depth]) == 1

    @pytest.mark.parametrize("option,text", [
        ("--depth", "x"), ("--max-probes", "1e3"), ("--max-rounds", ""),
        ("--depth", "0"),
    ])
    def test_bad_count_names_the_rule(self, option, text, capsys):
        assert main(["certify", "--model", BAD, option, text]) == 1
        err = capsys.readouterr().err
        assert f"argument {option}: must be a positive integer" in err
        assert "_positive_int" not in err

    @pytest.mark.parametrize("command,model", [
        (["boundary"],
         "[model]\ntorsion = 10000000000000061\ndimension = 3\n"
         "labels = x1,x2,x3\n[extra]\nx3 2\n"),
        (["certify", "--depth", "2"],
         "[model]\ntorsion = 3\ndimension = 3\nlabels = x1,x2,x3\n"
         "[symbols]\nx1 x2 1\n[extra]\nx3 1000000000000\n"),
    ])
    def test_oversized_model_rejected_fast(self, command, model, tmp_path,
                                           capsys):
        path = tmp_path / "hostile.model"
        path.write_text(model)
        start = time.perf_counter()
        assert main([*command, "--model", str(path)]) == 1
        assert time.perf_counter() - start < 1
        assert "at most" in capsys.readouterr().err


def golden_digest(model, command):
    return next(digest for m, c, _, digest, _ in GOLDEN
                if m == model and c == command)


class TestParserReuse:
    """main() builds its parser once per process and shares it."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._build_parser.cache_clear()

    def test_parser_built_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["boundary", "--model", BAD]) == 0
        assert len(built) == 6  # the top-level parser and five subcommands
        for argv in (["discrepancy", "--model", REMARK], ["remark"],
                     ["certify", "--model", BAD, "--depth", "1"],
                     ["resolve", "--model", BAD], ["certify"], ["--help"]):
            main(argv)
        assert len(built) == 6

    def test_no_state_between_calls(self, tmp_path, capsys):
        assert main(["certify"]) == 1
        assert main(["--help"]) == 0
        narrow = tmp_path / "narrow.jsonl"
        assert main(["certify", "--model", BAD, "--depth", "2", "--no-fixup",
                     "--out", str(narrow)]) == 2
        capsys.readouterr()
        plain = tmp_path / "plain.jsonl"
        assert main(["certify", "--model", BAD, "--out", str(plain)]) == 0
        text = capsys.readouterr().out
        assert "levels checked: 3" in text
        assert "fixup rounds: 1" in text
        assert hashlib.sha256(plain.read_bytes()).hexdigest() == \
            golden_digest("bad-case", ("certify",))
        assert hashlib.sha256(narrow.read_bytes()).hexdigest() == \
            golden_digest("bad-case", ("certify", "--depth", "2", "--no-fixup"))

    def test_help_and_usage_text_repeat(self, capsys):
        def texts():
            assert main(["--help"]) == 0
            help_out = capsys.readouterr().out
            assert main(["certify", "--depth", "0"]) == 1
            usage_err = capsys.readouterr().err
            return help_out, usage_err

        first = texts()
        assert first[0].startswith("usage: brauer-terminal")
        assert "brauer-terminal certify: error:" in first[1]
        assert texts() == first


TWO_SLOT = ("[model]\ntorsion = 2\ndimension = 2\nlabels = x1,x2\n"
            "[symbols]\nx1 x2 1\n")


class TestOutputPath:
    """Machine output is built line by line, and only for ``--out``."""

    BUILDERS = ("_report_lines", "_certificate_json", "_tree_json",
                "_composition_json")

    @pytest.mark.parametrize("model,command,code",
                             [case[:3] for case in GOLDEN], ids=GOLDEN_IDS)
    def test_no_json_without_out(self, monkeypatch, tmp_path, capsys, model,
                                 command, code):
        calls = []
        for name in self.BUILDERS:
            build = getattr(cli, name)
            if inspect.isgeneratorfunction(build):
                # a generator builds its first line when asked for it
                def counted(*args, _name=name, _build=build):
                    calls.append(_name)
                    yield from _build(*args)
            else:
                def counted(*args, _name=name, _build=build):
                    calls.append(_name)
                    return _build(*args)
            monkeypatch.setattr(cli, name, counted)
        argv = golden_argv(model, command)
        assert main(argv) == code
        assert calls == []
        if code != 1 and command != ("boundary",):
            # the counters see the builders when there is an --out
            assert main([*argv, "--out", str(tmp_path / "o.jsonl")]) == code
            assert calls

    @pytest.mark.parametrize("with_out", [False, True])
    def test_no_list_of_line_dicts(self, tmp_path, capsys, with_out):
        path = tmp_path / "two.model"
        path.write_text(TWO_SLOT)
        argv = ["certify", "--model", str(path), "--depth", "10"]
        if with_out:
            argv += ["--out", str(tmp_path / "o.jsonl")]

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert main(argv) == 0  # warm-up: parser and caches
        capsys.readouterr()
        library = peak(lambda: certify(load_model(path).model, depth=10))
        command = peak(lambda: main(argv))
        assert command <= 1.5 * library
