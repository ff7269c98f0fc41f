"""Pin the expected outputs the exactness gate compares against.

    python3 perfbench/pin.py

Writes ``perfbench/pinned.json`` from the engine in ``src``: per deep input
and depth the verdict, ``complete``, report count and canonical digest; and
per pool model the exit code and ``--out`` digest of each CLI command. The
pins were taken from the engine as it stood when the benchmark was written;
rerunning this after an engine change hides whatever that change did to the
outputs.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import gate
import inputs

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from brauer_terminal import certify, load_model  # noqa: E402
from brauer_terminal.cli import main as cli_main  # noqa: E402


def pin_deep(workdir: Path) -> dict:
    pins = {}
    for items in inputs.DEEP.values():
        for item in items:
            path = workdir / "deep.model"
            path.write_text(inputs.render(item.spec, random.Random(0)))
            model = load_model(path).model
            order = tuple(range(item.spec.dim))
            for small, depth in ((False, item.depth), (True, item.small_depth)):
                cert = certify(model, depth)
                lift, boundary = gate.signed_lift(item.spec), gate.root_boundary(item.spec)
                if not all(gate.report_ok(r, item.spec, lift, boundary)
                           for r in cert.reports):
                    raise SystemExit(f"{item.key(small)}: a report fails the "
                                     "closed forms; refusing to pin")
                pins[item.key(small)] = {
                    "verdict": cert.verdict, "complete": cert.complete,
                    "reports": len(cert.reports),
                    "digest": gate.canonical_digest(cert.reports, order),
                }
    return pins


def pin_cli(workdir: Path):
    digests = []
    model, out = workdir / "m.model", workdir / "out.jsonl"
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        for index, spec in enumerate(inputs.pool()):
            model.write_text(inputs.render(spec, random.Random(index)))
            row = []
            for command in inputs.CLI_COMMANDS:
                argv = [command[0], "--model", str(model), *command[1:],
                        "--out", str(out)]
                out.unlink(missing_ok=True)
                row.append(gate.out_digest(cli_main(argv), out)[0])
            digests.append(row)
    return digests


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        deep = pin_deep(Path(tmp))
        cli = pin_cli(Path(tmp))
    text = json.dumps({"deep": deep, "cli": cli},
                      sort_keys=True, separators=(",", ":"))
    (HERE / "pinned.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
