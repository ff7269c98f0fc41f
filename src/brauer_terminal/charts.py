"""Coordinate strata and the ids of charts and divisors.

A chart models spec k{x1,...,xn}: n coordinate slots, each bound to the
prime divisor cut out by that coordinate. It is stored by what its slots
are on the root chart (see ``model.Chart``): row k is the valuation, on
the root coordinates, of the divisor in slot k. A blow-up of a stratum
puts the new exceptional divisor in the pivot slot, and its row is the
sum of the center's rows, so the rows stay a unimodular matrix.

Exceptional divisors receive ids derived from that root valuation. The id
is a pure function of the geometry, so the same divisor reached through
different blow-up routes gets the same id without any shared counter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence, Tuple

LABEL_RE = re.compile(r"[A-Za-z_]\w*")


def identity_substitution(dim: int) -> Tuple[Tuple[int, ...], ...]:
    """Identity matrix on the rank-`dim` exponent lattice."""
    return tuple(
        tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
    )


@dataclass(frozen=True)
class Stratum:
    """A coordinate stratum V(x_{i_1}, ..., x_{i_c}) of a chart."""

    chart: "Chart"
    indices: Tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(sorted(int(i) for i in self.indices))
        if not idx:
            raise ValueError("a stratum needs at least one coordinate")
        if len(set(idx)) != len(idx):
            raise ValueError("stratum indices must be distinct")
        if idx[0] < 0 or idx[-1] >= self.chart.dim:
            raise ValueError("stratum indices out of range for the chart")
        object.__setattr__(self, "indices", idx)

    @property
    def codim(self) -> int:
        return len(self.indices)

    @property
    def divisor_ids(self) -> Tuple[str, ...]:
        return tuple(self.chart.divisor_ids[i] for i in self.indices)


def exceptional_divisor_id(valuation: Sequence[int]) -> str:
    """Canonical divisor id for the given root-coordinate valuation."""
    return "E(" + ",".join(str(v) for v in valuation) + ")"


def strata(chart: "Chart", codim: int) -> list[Stratum]:
    """All coordinate strata of the given codimension, in lexicographic order.

    Raises:
        ValueError: unless 2 <= codim <= chart.dim.
    """
    if codim < 2 or codim > chart.dim:
        raise ValueError("stratum codimension must satisfy 2 <= codim <= dim")
    return [Stratum(chart, idx) for idx in combinations(range(chart.dim), codim)]
