"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload deep-plain --seed 1 --seconds 36 --trace 0

Closed loop: one caller, one process, in-process calls, each call starting
when the previous one returned. A pass runs every input of the workload
once; passes repeat until ``--seconds`` would be exceeded. Every call's
output goes through the exactness gate (``gate.py``). End-to-end times are
in reference seconds, scaled by a host-speed kernel timed during the run
(``calibrate.py``). ``--trace 1`` runs one untraced reference pass, then
traced passes, and reports the per-layer metrics of ``BENCHMARK.json``
instead of the end-to-end ones, also in reference seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from math import ceil, floor
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import calibrate
import gate
import inputs
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 15
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
WORKLOADS = (*inputs.DEEP, "cli-corpus")


@dataclass(frozen=True)
class Call:
    run: Callable[[], object]
    check: Callable[[object], gate.Outcome]


@dataclass
class Pass:
    times: List[float] = field(default_factory=list)  # set by ``rescale``
    attempted: int = 0
    failed: int = 0
    divisors: int = 0
    out_bytes: int = 0
    digests: List[str] = field(default_factory=list)
    real_s: float = 0.0
    bounds: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.times)

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.digests).encode()).hexdigest()


def import_engine():
    """Import the engine afresh from the checkout's ``src``."""
    for name in [k for k in sys.modules
                 if k == "brauer_terminal" or k.startswith("brauer_terminal.")]:
        del sys.modules[name]
    engine = importlib.import_module("brauer_terminal")
    importlib.import_module("brauer_terminal.cli")
    return engine


class Writer:
    """Writes input files and keeps the time spent, which set-up excludes:
    file creation on a busy disk is noise, not engine work."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __call__(self, path: Path, text: str) -> None:
        start = perf_counter()
        path.write_text(text, encoding="utf-8")
        self.seconds += perf_counter() - start


def deep_calls(engine, workload: str, seed: int, small: bool, workdir: Path,
               pinned: dict, write: Writer) -> List[Call]:
    rng = random.Random(seed)
    calls = []
    for k, item in enumerate(inputs.DEEP[workload]):
        spec, order = inputs.relabel(item.spec, rng)
        path = workdir / f"deep{k}.model"
        write(path, inputs.render(spec, rng))
        model = engine.load_model(path).model
        depth = item.small_depth if small else item.depth
        calls.append(Call(
            run=partial(engine.certify, model, depth),
            check=partial(gate.check_certificate, spec=spec, order=order,
                          pinned=pinned["deep"][item.key(small)]),
        ))
    return calls


def cli_calls(engine, seed: int, small: bool, workdir: Path,
              pinned: dict, write: Writer) -> List[Call]:
    cli = engine.cli
    calls = []
    corpus = inputs.corpus(seed, "small" if small else "full")
    for pos, (index, text) in enumerate(corpus):
        path = workdir / f"m{pos:03d}.model"
        write(path, text)
        for command, expected in zip(inputs.CLI_COMMANDS, pinned["cli"][index]):
            out = workdir / f"m{pos:03d}.{command[0]}.jsonl"
            argv = [command[0], "--model", str(path), *command[1:],
                    "--out", str(out)]
            calls.append(Call(
                # cli.main is looked up at call time, so tracing sees it
                run=lambda argv=argv: cli.main(argv),
                check=partial(gate.check_cli, path=out, pinned=expected),
            ))
    return calls


def set_up(workload: str, seed: int, small: bool, workdir: Path,
           pinned: dict):
    """Import, generate and load, repeated with a kernel sample before and
    after each repetition; set-up time is the median in reference seconds,
    less the share spent writing files."""
    calibrator = calibrate.Calibrator()
    reps = []
    for _ in range(SETUP_REPS):
        write = Writer()
        calibrator.sample()
        start = perf_counter()
        engine = import_engine()
        if workload == "cli-corpus":
            calls = cli_calls(engine, seed, small, workdir, pinned, write)
        else:
            calls = deep_calls(engine, workload, seed, small, workdir, pinned,
                               write)
        reps.append((start, perf_counter(), write.seconds))
    calibrator.sample()
    times = []
    for start, end, writing in reps:
        raw, reference = calibrator.measure(start, end)
        times.append(reference * (1 - writing / raw))
    return calls, median(times)


def run_pass(calls: List[Call]) -> Pass:
    gc.collect()
    result = Pass()
    start = perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        for call in calls:
            t0 = perf_counter()
            output = call.run()
            result.bounds.append((t0, perf_counter()))
            outcome = call.check(output)
            result.attempted += outcome.attempted
            result.failed += outcome.failed
            result.divisors += outcome.divisors
            result.out_bytes += outcome.out_bytes
            result.digests.append(outcome.digest)
    result.real_s = perf_counter() - start
    return result


def run_passes(calls: List[Call], seconds: float,
               before: Callable[[], None] = lambda: None,
               after: Callable[[Pass], None] = lambda p: None) -> List[Pass]:
    """At least one pass; another only if it should end within ``seconds``."""
    passes: List[Pass] = []
    start = perf_counter()
    while True:
        before()
        passes.append(run_pass(calls))
        after(passes[-1])
        expected = median(p.real_s for p in passes)
        if perf_counter() - start + expected > seconds:
            return passes


def tail(samples: List[float]):
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it, or the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def rescale(calibrator: calibrate.Calibrator, passes: List[Pass]) -> None:
    """Turn each pass's call times into reference seconds, without the
    kernel's time (``calibrate``), and print the raw pass times."""
    raw_s = []
    for p in passes:
        measured = [calibrator.measure(*b) for b in p.bounds]
        raw_s.append(sum(raw for raw, _ in measured))
        p.times = [reference for _, reference in measured]
    print(f"calibration: {len(calibrator.durations)} kernel samples, median "
          f"{median(calibrator.durations) * 1000:.2f} ms against "
          f"{calibrate.REFERENCE_S * 1000:g} ms; raw pass_s: "
          + " ".join(f"{s:.4f}" for s in raw_s))


def middle(samples: List[float]) -> float:
    """p50 as the mean of the samples from the 45th to the 55th percentile.

    Two of the four CLI commands are cheap, so the plain median of the
    corpus falls in the gap between two clusters of latencies and is set by
    two single calls; the band's mean is the median of the same samples,
    estimated from some 120 of them."""
    ordered = sorted(samples)
    n = len(ordered)
    band = ordered[floor(0.45 * n):ceil(0.55 * n)]
    return sum(band) / len(band)


def end_to_end(passes: List[Pass], setup_s: float) -> Dict[str, float]:
    samples = [t for p in passes for t in p.times]
    # An input's latency is the median of its calls, one per pass; the
    # latency percentiles are taken over inputs.
    latencies = [median(times) for times in zip(*(p.times for p in passes))]
    wall = median(p.wall_s for p in passes)
    percentile, tail_s = tail(latencies)
    print(f"calls: {len(samples)} in {len(passes)} passes; call_tail_ms is "
          f"p{percentile} of {len(latencies)} per-input latencies")
    print("pass_s: " + " ".join(f"{p.wall_s:.4f}" for p in passes))
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "divisors_per_s": passes[0].divisors / wall,
        "calls_per_s": len(samples) / sum(samples),
        "call_p50_ms": middle(latencies) * 1000,
        "call_tail_ms": tail_s * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(calls: List[Call], seconds: float, workload: str):
    """Reference pass, then traced passes, all under the calibration timer;
    per-layer metrics in reference seconds, and failures."""
    tracer = layers.Tracer()
    recorded: List[Tuple[list, Counter]] = []
    wrapped = [Call(tracer.wrap("call", c.run), c.check) for c in calls]
    with calibrate.Calibrator() as calibrator:
        reference = run_pass(calls)
        restore = tracer.install()
        try:
            passes = run_passes(
                wrapped, seconds - reference.real_s, before=tracer.begin_pass,
                after=lambda p: recorded.append((tracer.spans, tracer.counts)))
        finally:
            restore()
    if tracer.missing:
        print("trace: not found, reading 0: " + ", ".join(tracer.missing),
              file=sys.stderr)
    rescale(calibrator, [reference] + passes)

    def span_seconds(start_ns: int, end_ns: int) -> float:
        return calibrator.measure(start_ns / 1e9, end_ns / 1e9)[1]

    per_pass = []
    for p, (spans, counts) in zip(passes, recorded):
        metrics = layers.pass_metrics(spans, counts, span_seconds)
        metrics["cli.out_bytes"] = p.out_bytes
        metrics["trace.overhead_s"] = p.wall_s - reference.wall_s
        per_pass.append(metrics)
    mismatched = sum(p.digest != reference.digest for p in passes)
    print(f"trace: {len(passes)} traced passes, {mismatched} with other "
          f"gate digests than the untraced pass {reference.digest[:16]}")
    layers.write_spans(HERE / "out" / f"spans-{workload}.jsonl", recorded[0][0])
    return (layers.median_metrics(per_pass), [reference] + passes,
            len(passes), mismatched)


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: shallower depths and 30 models, for smoke runs")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "brauer_terminal" / "__init__.py").is_file():
        print(f"error: no engine sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ.pop("BRAUER_TERMINAL_THREADS", None)  # serial engine
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pinned = json.loads((HERE / "pinned.json").read_text())
    small = args.size == "small"

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        calls, setup_s = set_up(args.workload, args.seed, small,
                                        Path(tmp), pinned)
        print(f"env: python={platform.python_version()} nproc={os.cpu_count()} "
              f"commit={commit()} src={source_digest(src)} seed={args.seed} "
              f"workload={args.workload} size={args.size} trace={args.trace}")
        if args.trace:
            values, passes, extra_attempts, extra_failures = traced(
                calls, args.seconds, args.workload)
            names = spec["per_layer"]
        else:
            with calibrate.Calibrator() as calibrator:
                passes = run_passes(calls, args.seconds)
            rescale(calibrator, passes)
            values = end_to_end(passes, setup_s)
            extra_attempts = extra_failures = 0
            names = spec["end_to_end"]

    attempted = sum(p.attempted for p in passes) + extra_attempts
    failed = sum(p.failed for p in passes) + extra_failures
    print(f"gate: attempted={attempted} failed={failed} "
          f"failed_ratio={failed / attempted:.6g} digest={passes[0].digest[:16]}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
