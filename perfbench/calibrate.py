"""Host-speed calibration: a fixed kernel timed on a timer during the run.

The benchmark runs on a few cores of a shared host whose speed flips
between states for seconds at a time, by as much as 1.6x, so two runs of
the same code can read far apart in raw seconds. While a run measures, a
``SIGALRM`` timer interrupts it every ``EVERY_S`` seconds, inside engine
calls too, to time ``kernel``. The kernel shares no code with the engine
but does the same kind of work: small integer-matrix products, frozen
dataclasses, ``Fraction`` sums and tuple-keyed dicts. The engine time
between two samples is scaled by ``REFERENCE_S`` over their mean kernel
time, and kernel time is left out of every call's time. Scaled times read
as seconds on a host that runs the kernel in ``REFERENCE_S``. An engine
change moves them as it moves raw times, because the kernel runs no engine
code, while a change of host speed moves the engine and the kernel alike
and cancels.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from time import perf_counter
from typing import List, Tuple

# Median kernel time on the 2-vCPU Intel Xeon VM the benchmark was written
# on (Python 3.11).
REFERENCE_S = 0.025
EVERY_S = 0.2
WARM_UP = 5


@dataclass(frozen=True)
class _Matrix:
    r: int
    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(
            tuple(v % self.r for v in row) for row in self.entries))


def kernel(steps: int = 700) -> int:
    """Substitute a 4x4 matrix mod 6 through fixed elementary moves,
    keeping a discrepancy-like ``Fraction`` and a dict of distinct results."""
    n, r = 4, 6
    matrix = _Matrix(r, tuple(tuple((3 * i + j) % r for j in range(n))
                              for i in range(n)))
    weight = Fraction(0)
    seen = {}
    for step in range(steps):
        a, b = step % n, (step * 7 + 1) % n
        sub = tuple(tuple(int(i == j or (i == a and j == b)) for j in range(n))
                    for i in range(n))
        cols = tuple(zip(*sub))
        matrix = _Matrix(r, tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
            for row in matrix.entries))
        weight += Fraction(step % 5 - 2, step % 7 + 1)
        seen[matrix.entries] = seen.get(matrix.entries, 0) + 1
    return len(seen) + weight.denominator


def _time_kernel() -> float:
    # The collector stays off so the kernel never pays for the engine's
    # heap; the kernel's own objects are freed by reference counting.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Kernel samples, taken on a timer while the ``with`` block runs or
    one at a time by ``sample``.

    Sample ``i`` ran from ``starts[i]`` for ``durations[i]`` seconds. The
    timer is re-armed after each sample, so samples never nest.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        for _ in range(WARM_UP):
            _time_kernel()

    def sample(self) -> None:
        start = perf_counter()
        self.durations.append(_time_kernel())
        self.starts.append(start)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def measure(self, start: float, end: float) -> Tuple[float, float]:
        """(raw, reference) seconds of ``[start, end)`` without kernel time.

        Gap ``g`` lies between the end of sample ``g - 1`` and the start of
        sample ``g``; its speed is the mean kernel time of those two.
        """
        starts, durations, n = self.starts, self.durations, len(self.starts)
        raw = reference = 0.0
        g = bisect_right(starts, start)
        while g <= n:
            lo = starts[g - 1] + durations[g - 1] if g > 0 else -inf
            if lo >= end:
                break
            hi = starts[g] if g < n else inf
            overlap = min(end, hi) - max(start, lo)
            if overlap > 0:
                around = durations[max(g - 1, 0):g + 1]
                raw += overlap
                reference += overlap * REFERENCE_S * len(around) / sum(around)
            g += 1
        return raw, reference
