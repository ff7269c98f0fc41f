"""Golden machine output of the bundled models.

Each case runs one command through main() with ``--out`` and compares the
exit code and the sha256 of the written file with values pinned before the
blow-up step became a row update, and the sha256 of its stdout (the tables
and the ``fixup rounds:`` and ``leaves:`` lines) with values pinned before
the fixup's tree and the boundary became plain tuples. Criterion 8 only
compares two runs of the same code; these pins catch any byte that moves
between versions. A case pinned to ``None`` writes no file. Re-pin only for
an intended change of the output, and say so in the change log.
"""

import errno
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from brauer_terminal.cli import main

ROOT = Path(__file__).resolve().parents[1]
MODELS = ROOT / "models"

GOLDEN = [
    ("bad-case", ("boundary",), 0,
     "ca1e430fd6a65359523473db4cc75c90ef4e2b28495120b19cfee9fbba7b8c87",
     "225cbdb307c0c24abf479820bdd90c8ddca22fed4249350bb98d6c9dd2f78bca"),
    ("bad-case", ("discrepancy",), 2,
     "74dc0cb2bd751af9cfdc3f8373a9a81f91f8a8178733943165a3f3d9109f2aea",
     "feca7771684e7339ca48199f6f5dd466c95c523507d8a4090619bec429b12e15"),
    ("bad-case", ("resolve",), 0,
     "c4db880df59ac85b7ff6d195f508b80abb2f684716f38f47caa06e4c47a6f9ab",
     "b850ff4265e3f554b98d75abe7d2ff9b83d92468fe8bb47f5ae96dd5bb808930"),
    ("bad-case", ("certify",), 0,
     "027d67db5cbe3eaf90a25f1867f7fbf1f4c1fc9e12053aeb6698f88d96a3e7cf",
     "2ef1f748d6ab091ade3cd8c28495a8a1cc091eaf1b3ec503f7f46c2dc728ef7a"),
    ("bad-case", ("certify", "--depth", "2", "--no-fixup"), 2,
     "5ede7ef3026abf1954bec0d326e553dbbce69da7e03c5357c0beff0b893d2806",
     "3dd7ea7e2aedfab250c844adde0b3a057f6deaa28fa96fb190b3bb60047f73ba"),
    ("remark", ("boundary",), 0,
     "cfc8397854cb77c66ccc0e9703b6fd4443276dc5312ed0d0413b5c3858bccbbc",
     "bfe5d9872969f1f1cdf93c3002fc285c869cb276f4c997842bdd2642bbca8163"),
    ("remark", ("discrepancy",), 0,
     "0f012082050358aaa1749cceccb9757d5c0737b2dd3630ea5d23642f5cc43298",
     "2b515c39603d3235b6c4b8de7c50a7b909ac282815c8d6804243572dcb1a8e15"),
    # torsion 3: the fixup is specific to torsion 2, so resolve exits 1
    ("remark", ("resolve",), 1, None,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("remark", ("certify",), 3,
     "e7472b4c35cfeacb55b34567d31f69deff4f0da846f47ecf7fc14cd019d14bac",
     "26d06ba66f26de41f3aee553ea926e0fcf5e74dbeca2964a176f513e19019b52"),
    ("remark", ("certify", "--depth", "2", "--no-fixup"), 3,
     "af475bf67ef43911a1596b92acdb3eaacd1ad35c72f1636cfaa26236eba44909",
     "144fc64f6fb8c9a264263185c0973b01a64ce598cd1ce131c40cd290171b9728"),
    (None, ("remark",), 3,
     "45e1f746f2cdb57056978d060a1e4e04b32f536fdd83a9be801f7feb7a98795e",
     "c96b0ff48f214f007f5e664c474cc1726b004c29d77254dd84cf2b204ac7e852"),
    # labels with non-ASCII word characters, escaped in the output; pinned
    # before the report lines were put together from fragments
    ("non-ascii", ("discrepancy",), 0,
     "f1f6dbfabda65fc13e06f38e3df01ca42a0d9868db6450c166a95283b9a65c29",
     "b6c68c7b5c3a24e164e3c1c4dbbb990db9d72e4475fc03c126a4eb213b84aa3c"),
    ("non-ascii", ("certify", "--depth", "2"), 0,
     "b7593ee73fcbb8f36c718ba7f13fbe6c223851a71dbaff7336b99b068c25e928",
     "9285c8fd169cfc9f8cc5931d2bb8c6755aa3de27897e972f6c87952a1f9e8e51"),
]


GOLDEN_IDS = [f"{m or 'builtin'}-{'-'.join(c)}" for m, c, *_ in GOLDEN]


def golden_argv(model, command):
    """The command line of a GOLDEN case, without ``--out``."""
    model_args = [] if model is None else [
        "--model", str(MODELS / f"{model}.model")]
    return [command[0], *model_args, *command[1:]]


def digest_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest() \
        if path.exists() else None


@pytest.mark.parametrize("model,command,code,digest,stdout", GOLDEN,
                         ids=GOLDEN_IDS)
def test_out_bytes_pinned(tmp_path, capsys, model, command, code, digest,
                          stdout):
    out = tmp_path / "out.jsonl"
    assert main([*golden_argv(model, command), "--out", str(out)]) == code
    assert digest_of(out) == digest
    printed = capsys.readouterr().out.encode()
    assert hashlib.sha256(printed).hexdigest() == stdout


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, as under ``| head -1``."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("model,command,code,digest",
                         [case[:4] for case in GOLDEN], ids=GOLDEN_IDS)
def test_out_written_when_stdout_closed(tmp_path, monkeypatch, capsys, model,
                                        command, code, digest):
    out = tmp_path / "out.jsonl"
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main([*golden_argv(model, command), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert digest_of(out) == digest


# one interpreter per call, as a shell user runs the command
SUBPROCESS_CASES = [case for case in GOLDEN if case[1] == ("certify",)]


@pytest.mark.parametrize(
    "model,command,code,digest,stdout", SUBPROCESS_CASES,
    ids=[f"{m}-{'-'.join(c)}" for m, c, *_ in SUBPROCESS_CASES])
def test_out_bytes_pinned_in_subprocess(tmp_path, model, command, code,
                                        digest, stdout):
    out = tmp_path / "out.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "brauer_terminal.cli", command[0],
            "--model", str(MODELS / f"{model}.model"), *command[1:],
            "--out", str(out)]
    result = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    assert result.returncode == code, result.stderr.decode()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert hashlib.sha256(result.stdout).hexdigest() == stdout
