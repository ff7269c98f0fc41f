"""Etale-local SNC coordinate charts and their combinatorial blow-ups.

A chart models spec k{x1,...,xn}: n coordinate slots, each bound to the
prime divisor cut out by that coordinate. Blowing up a coordinate stratum
returns the standard affine charts of the blow-up; everything is tracked on
exponent lattices through integer substitution matrices, so the whole module
is exact combinatorics with no geometry left implicit.

Substitution convention: column k of a substitution matrix is the exponent
vector, in child coordinates, of the monomial that parent coordinate k pulls
back to. Exponent vectors of monomials therefore transform as v -> A @ v,
and the substitution from the root chart to any descendant is the product of
the per-step matrices along its ancestry.

One blow-up step is an elementary row addition: its matrix is the identity
with the pivot row replaced by the indicator of the center, so A @ v only
replaces the pivot entry of v by the sum of the center entries. Blow-ups
apply the step that way, in O(n) per vector; ``compose_substitutions`` and
``apply_substitution`` are the generic products the tests check it against.
Row k of a total substitution is the valuation of the divisor in slot k,
so the pivot row of a child's total substitution is the new exceptional
divisor's valuation, the sum of the center rows of its parent's.

Exceptional divisors receive ids derived from their monomial valuation on
the root coordinates. The id is a pure function of the geometry, so the same
divisor reached through different blow-up routes gets the same id without
any shared counter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence, Tuple

ExponentMatrix = Tuple[Tuple[int, ...], ...]

LABEL_RE = re.compile(r"[A-Za-z_]\w*")


def identity_substitution(dim: int) -> ExponentMatrix:
    """Identity matrix on the rank-`dim` exponent lattice."""
    return tuple(
        tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
    )


def compose_substitutions(outer: Sequence[Sequence[int]],
                          inner: Sequence[Sequence[int]]) -> ExponentMatrix:
    """Matrix product outer @ inner over the integers."""
    n = len(outer)
    if any(len(row) != len(inner) for row in outer):
        raise ValueError("substitution shapes do not compose")
    cols = range(len(inner[0]) if inner else 0)
    return tuple(
        tuple(sum(outer[i][k] * inner[k][j] for k in range(len(inner))) for j in cols)
        for i in range(n)
    )


def apply_substitution(matrix: Sequence[Sequence[int]],
                       vector: Sequence[int]) -> Tuple[int, ...]:
    """Image A @ v of an exponent vector under a substitution."""
    if any(len(row) != len(vector) for row in matrix):
        raise ValueError("substitution does not match vector length")
    return tuple(sum(row[k] * vector[k] for k in range(len(vector))) for row in matrix)


def transpose(matrix: Sequence[Sequence[int]]) -> ExponentMatrix:
    return tuple(zip(*[tuple(row) for row in matrix])) if matrix else ()


@dataclass(frozen=True, eq=False)
class Chart:
    """One affine chart of an iterated coordinate blow-up.

    Charts are immutable; blow-ups return fresh children.
    ``total_substitution`` maps root-chart exponent vectors into this chart
    and is unimodular by construction. The step from the parent is the
    identity with the ``pivot`` row replaced by the indicator of
    ``parent_center``.
    """

    dim: int
    divisor_ids: Tuple[str, ...]
    total_substitution: ExponentMatrix
    parent: Optional["Chart"] = None
    parent_center: Optional[Tuple[int, ...]] = None
    pivot: Optional[int] = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("chart dimension must be at least 1")
        if len(self.divisor_ids) != self.dim:
            raise ValueError("one divisor id per coordinate slot required")
        if len(set(self.divisor_ids)) != self.dim:
            raise ValueError("divisor ids bound to a chart must be distinct")
        matrix = self.total_substitution
        if len(matrix) != self.dim or any(len(row) != self.dim for row in matrix):
            raise ValueError("total substitution must be a dim x dim matrix")
        if (self.parent is None) != (self.parent_center is None):
            raise ValueError("parent and parent_center must come together")

    @cached_property
    def chart_id(self) -> str:
        """Structural id encoding the blow-up ancestry (root is ``r``)."""
        if self.parent is None:
            return "r"
        return child_chart_id(self.parent.chart_id, self.parent_center,
                              self.pivot)

    @property
    def depth(self) -> int:
        return 0 if self.parent is None else self.parent.depth + 1

    @property
    def root(self) -> "Chart":
        """The chart this one descends from by blow-ups (itself at depth 0)."""
        return self if self.parent is None else self.parent.root


@dataclass(frozen=True)
class Stratum:
    """A coordinate stratum V(x_{i_1}, ..., x_{i_c}) of a chart."""

    chart: Chart
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


def new_affine_model(dim: int, divisor_labels: Sequence[str]) -> Chart:
    """Create the root chart of spec k{x1,...,xn}.

    Args:
        dim: number of coordinates, at least 1.
        divisor_labels: distinct identifier-style labels, one per coordinate;
            each becomes the id of the corresponding original divisor.

    Returns:
        A root chart with identity substitution.

    Raises:
        ValueError: on a dimension/label mismatch, duplicate labels, or a
            label that could collide with generated exceptional ids.
    """
    labels = tuple(divisor_labels)
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if len(labels) != dim:
        raise ValueError(f"expected {dim} labels, got {len(labels)}")
    for label in labels:
        if not LABEL_RE.fullmatch(label):
            raise ValueError(f"divisor label {label!r} is not an identifier")
    return Chart(dim=dim, divisor_ids=labels,
                 total_substitution=identity_substitution(dim))


def child_chart_id(parent_id: str, center: Sequence[int], pivot: int) -> str:
    """Id of the chart with ``pivot`` of the blow-up of ``center`` (slots)."""
    return f"{parent_id}.{'-'.join(str(i + 1) for i in center)}p{pivot + 1}"


def exceptional_divisor_id(valuation: Sequence[int]) -> str:
    """Canonical divisor id for the given root-coordinate valuation."""
    return "E(" + ",".join(str(v) for v in valuation) + ")"


def exceptional_valuation(chart: Chart, center: Stratum) -> Tuple[int, ...]:
    """Root-coordinate valuation of the divisor a blow-up of ``center`` extracts.

    It is the sum of the valuations of the center's divisors.

    Raises:
        ValueError: if the center belongs to another chart or has codim < 2.
    """
    if center.chart is not chart:
        raise ValueError("center does not belong to the chart being blown up")
    if center.codim < 2:
        raise ValueError("blow-up centers must have codimension at least 2")
    return tuple(map(sum, zip(*(chart.total_substitution[i]
                                for i in center.indices))))


def blow_up(chart: Chart, center: Stratum) -> list[Chart]:
    """Blow up a chart along a coordinate stratum.

    In the chart with pivot i_j, coordinate i_j becomes the exceptional
    coordinate t and every other center coordinate i_l turns into its strict
    coordinate via x_{i_l} = t * y_{i_l}; coordinates outside the center are
    untouched and keep their divisor ids. All returned charts share one fresh
    exceptional divisor id. Each child's total substitution is its parent's
    with the pivot row replaced by the exceptional valuation, which is the
    step matrix composed onto it without a matrix product.

    Args:
        chart: the chart to modify (unchanged; children are returned).
        center: a stratum of ``chart`` with codim >= 2.

    Returns:
        One child chart per center coordinate, in ascending pivot order.

    Raises:
        ValueError: if the center belongs to another chart or has codim < 2.
    """
    exc_valuation = exceptional_valuation(chart, center)
    exc_id = exceptional_divisor_id(exc_valuation)
    total = chart.total_substitution
    ids = chart.divisor_ids
    children = []
    for pivot in center.indices:
        after = pivot + 1
        children.append(
            Chart(
                dim=chart.dim,
                divisor_ids=ids[:pivot] + (exc_id,) + ids[after:],
                total_substitution=total[:pivot] + (exc_valuation,) + total[after:],
                parent=chart,
                parent_center=center.indices,
                pivot=pivot,
            )
        )
    return children


def strata(chart: Chart, codim: int) -> list[Stratum]:
    """All coordinate strata of the given codimension, in lexicographic order.

    Raises:
        ValueError: unless 2 <= codim <= chart.dim.
    """
    if codim < 2 or codim > chart.dim:
        raise ValueError("stratum codimension must satisfy 2 <= codim <= dim")
    return [Stratum(chart, idx) for idx in combinations(range(chart.dim), codim)]
