"""Per-layer tracing from outside the engine.

Wrappers replace the engine's public functions at every name a caller looks
them up by (``brauer_terminal.model.transform`` as well as
``brauer_terminal.symbols.transform``), so nothing inside ``src/`` changes.
Each wrapped call records a span (name, start, end, parent) in memory; a
layer's self time is its spans' durations minus those of their child spans.
"""

from __future__ import annotations

import json
import sys
import weakref
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, attribute): the layers and the public names they wrap.
TARGETS = (
    ("charts.blow_up", "charts", "blow_up"),
    ("symbols.transform", "symbols", "transform"),
    ("model.blow_up", "model", "Model.blow_up"),
    ("model.cover_on", "model", "Model.cover_on"),
    ("model.extra_transport", "model", "ExtraComponent.transported"),
    ("discrepancy.from_degree", "discrepancy", "DiscrepancyReport.from_degree"),
    ("discrepancy.brauer", "discrepancy", "brauer_discrepancy"),
    ("discrepancy.boundary", "discrepancy", "boundary_divisor"),
    ("resolution.enumerate", "resolution", "enumerate_divisors"),
    ("resolution.find_bad_strata", "resolution", "find_bad_strata"),
    ("resolution.fixup", "resolution", "level_one_fixup"),
    ("modelfile.load", "modelfile", "load_model"),
    ("modelfile.parse", "modelfile", "parse_model"),
    ("modelfile.build", "modelfile", "build_model"),
    ("cli.main", "cli", "main"),
)

Span = Tuple[str, int, int, int]  # name, start ns, end ns, parent index


class Tracer:
    """Spans and counters of the current pass."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._unused = weakref.WeakSet()  # children built, not yet blown up
        self.missing: List[str] = []

    def begin_pass(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._unused = weakref.WeakSet()

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(result)
            return result

        return traced

    # Counters read at layer boundaries.
    def _before_model_blow_up(self, args) -> None:
        if args[0] in self._unused:
            self._unused.discard(args[0])
            self.counts["children_blown_up"] += 1

    def _after_model_blow_up(self, result) -> None:
        self.counts["children_built"] += len(result.children)
        for child in result.children:
            self._unused.add(child)

    def _after_enumerate(self, result) -> None:
        self.counts["probes"] += result.probes
        self.counts["reported"] += len(result.reports)

    def install(self) -> Callable[[], None]:
        """Wrap every target at every lookup site; returns an undo function."""
        hooks = {
            "model.blow_up": (self._before_model_blow_up,
                              self._after_model_blow_up),
            "resolution.enumerate": (None, self._after_enumerate),
        }
        modules = [m for k, m in list(sys.modules.items())
                   if k == "brauer_terminal" or k.startswith("brauer_terminal.")]
        undo: List[Tuple[object, str, object]] = []
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(f"brauer_terminal.{module_name}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(member) if owner is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            before, after = hooks.get(name, (None, None))
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(name, raw.__func__, before, after))
            else:
                replacement = self.wrap(name, raw, before, after)
            sites = [owner] if owner_name else modules
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is raw:
                        undo.append((site, key, value))
                        setattr(site, key, replacement)

        def restore() -> None:
            for site, key, value in reversed(undo):
                setattr(site, key, value)

        return restore


def pass_metrics(spans: List[Span], counts: Counter,
                 seconds: Callable[[int, int], float]) -> Dict[str, float]:
    """Per-layer metrics of one pass, from its spans and counters;
    ``seconds`` turns a span's start and end into its duration."""
    durations = [seconds(start, end) for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for (_, _, _, parent), duration in zip(spans, durations):
        if parent >= 0:
            child[parent] += duration
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for (name, _, _, _), duration, inner in zip(spans, durations, child):
        calls[name] += 1
        self_s[name] += duration - inner
    built = counts["children_built"]
    probes = counts["probes"]
    metrics: Dict[str, float] = {}
    for name, _, _ in TARGETS:  # an idle layer reads 0
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    metrics["model.children_unused_ratio"] = (
        (built - counts["children_blown_up"]) / built if built else 0.0)
    metrics["resolution.probes"] = probes
    metrics["resolution.distinct_ratio"] = (
        counts["reported"] / probes if probes else 0.0)
    metrics["trace.spans"] = len(spans)
    return metrics


def median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: median(p[key] for p in per_pass) for key in per_pass[0]}


def write_spans(path: Path, spans: List[Span]) -> None:
    """One ``[name, start_ns, end_ns, parent]`` JSON list per line; the
    parent is the line index of the enclosing span, or -1."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, separators=(",", ":")) + "\n")
