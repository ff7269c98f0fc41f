"""Brauer pairs, their blown-up charts, their strata, and the one blow-up step.

A ``Model`` is a Brauer pair on the root chart spec k{x1,...,xn}: the
coordinate labels, the symbol matrix of the class, and the extra cyclic
covers attached to original divisors. A ``Chart`` of an iterated
coordinate blow-up is its slots' valuations on the root coordinates, its
divisor ids, one exact flag per slot and extra cover, and its chart id; it
carries no matrix and no extra vectors of its own.

A ``Stratum`` is a coordinate stratum V(x_i, ...) of a chart, named by its
slots; ``strata`` lists those of one codimension. ``_centers`` is the one
engine order of a chart's blow-up centers, codimension 2 up and each
codimension lexicographic. The exceptional divisor with root row v has id
``E(v1,...,vn)``, a pure function of the geometry, so every route to a
divisor names it alike without a shared counter; a child chart's id is its
parent's, the center's slots and the pivot (``_RowWalk.children``).

Everything a blow-up step reads comes off those rows (``_RowWalk``): on
the divisor with root row v the residue order is r/gcd(r, v M) for the
root matrix M, an extra cover on the root divisor in slot s has exposure
v[s], and slots i and j pair by rows[i] M rows[j] mod r. The new divisor's
row is the sum of the center's rows, in the pivot slot of each child. The
fixup, the audits and both walks run this one step.

Cover degrees along divisors are where indeterminacy enters. An extra cover
restricts exactly to the divisor it was declared on and, by direct exposure,
to exceptional divisors extracted straight out of it; once its exposure has
travelled through an intermediate exceptional divisor, only the possible
degrees can be listed, not the degree itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from math import gcd, isqrt, lcm
from operator import mul
from typing import (Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, TypeAlias, Union)

from .symbols import SymbolMatrix, check_complex, residue_order

LABEL_RE = re.compile(r"[A-Za-z_]\w*")


class IndeterminateDegreeError(ValueError):
    """A computation needed a cover degree that is only known up to a list."""

    def __init__(self, divisor_ids: Sequence[str], message: str = ""):
        self.divisor_ids = tuple(divisor_ids)
        if not message:
            message = "indeterminate cover degree on " + ", ".join(self.divisor_ids)
        super().__init__(message)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def candidate_orders(monomial_order: int, loose_order: int) -> Tuple[int, ...]:
    """Possible cover degrees when contributions of total order g float freely.

    A candidate e must divide lcm(m, g) and must still explain the monomial
    part: m | lcm(e, g). The divisors are found by trial division up to the
    square root of lcm(m, g).
    """
    top = lcm(monomial_order, loose_order)
    divisors = sorted({d for k in range(1, isqrt(top) + 1) if top % k == 0
                       for d in (k, top // k)})
    return tuple(e for e in divisors if lcm(e, loose_order) % monomial_order == 0)


@dataclass(frozen=True)
class CoverDegree:
    """Degree of the cyclic cover over one divisor, possibly indeterminate.

    ``candidates`` is the sorted tuple of degrees compatible with the data;
    a single candidate means the degree is determined. ``sources`` names the
    origin divisors whose transported covers caused any indeterminacy.
    """

    monomial_order: int
    candidates: Tuple[int, ...]
    sources: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError("a cover degree needs at least one candidate")
        object.__setattr__(self, "candidates", tuple(sorted(set(self.candidates))))

    @property
    def determinate(self) -> bool:
        return len(self.candidates) == 1

    @property
    def value(self) -> int:
        if not self.determinate:
            raise IndeterminateDegreeError(
                self.sources,
                f"cover degree undetermined, candidates {list(self.candidates)}",
            )
        return self.candidates[0]


@dataclass(frozen=True)
class ExtraComponent:
    """An extra cyclic cover of degree ``degree`` branched along the root
    divisor ``origin_id``."""

    origin_id: str
    degree: int

    def __post_init__(self) -> None:
        if self.degree < 2:
            raise ValueError("extra covers of degree < 2 carry no information")


def _combined_degree(torsion: int, monomial: int,
                     contributions: Sequence[Tuple[str, int, bool]]
                     ) -> CoverDegree:
    """Full cover degree over one divisor.

    The monomial residue contributes its exact order m. Each extra component
    live on the divisor contributes its effective order, given here as
    (origin id, effective order > 1, exact on the divisor); a single exact
    contribution combines to lcm when the combination is forced (prime
    torsion, trivial monomial part, or coprime orders). Anything else leaves
    a candidate list.
    """
    if not contributions:
        return CoverDegree(monomial, (monomial,))
    exact = [eff for _, eff, is_exact in contributions if is_exact]
    if len(contributions) == 1 and exact:
        eff = exact[0]
        if _is_prime(torsion) or monomial == 1 or gcd(monomial, eff) == 1:
            return CoverDegree(monomial, (lcm(monomial, eff),))
    loose = lcm(*[eff for _, eff, _ in contributions])
    return CoverDegree(
        monomial,
        candidate_orders(monomial, loose),
        tuple(sorted({origin for origin, _, _ in contributions})),
    )


# A string, so that no typing subscript naming an engine class is evaluated:
# typing caches those, which would keep this module alive after a re-import.
CenterLike: TypeAlias = "Union[Stratum, Sequence[int]]"
PairLike: TypeAlias = "Union[Model, Chart]"


@dataclass(frozen=True, eq=False)
class Model:
    """A Brauer pair on the root chart: labels, symbol matrix, extra covers."""

    labels: Tuple[str, ...]
    matrix: SymbolMatrix
    extras: Tuple[ExtraComponent, ...] = ()

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("dimension must be at least 1")
        for label in labels:
            if not LABEL_RE.fullmatch(label):
                raise ValueError(f"divisor label {label!r} is not an identifier")
        if len(set(labels)) != len(labels):
            raise ValueError("divisor labels must be distinct")
        if self.matrix.dim != len(labels):
            raise ValueError("symbol matrix does not match chart dimension")
        if not check_complex(self.matrix).ok:
            raise ValueError("symbol matrix must be alternating")
        for comp in self.extras:
            if comp.origin_id not in labels:
                raise ValueError(
                    f"extra cover on unknown divisor {comp.origin_id!r}")

    @classmethod
    def affine(cls, torsion: int, labels: Sequence[str],
               symbols: Iterable[Tuple[int, int, int]] = (),
               extra_degrees: Optional[Mapping[str, int]] = None) -> "Model":
        """Root model on spec k{x...} with the given symbols and extra covers.

        Args:
            torsion: order r of the class, at least 2.
            labels: coordinate divisor labels.
            symbols: (i, j, m) triples accumulated into the symbol matrix.
            extra_degrees: optional label -> degree map of extra cyclic
                covers; degree 1 entries are ignored.

        Raises:
            ValueError: on bad labels, slots, degrees, or unknown extra keys.
        """
        labels = tuple(labels)
        matrix = SymbolMatrix.from_symbols(torsion, len(labels), symbols)
        extra_degrees = dict(extra_degrees or {})
        for label in extra_degrees:
            if label not in labels:
                raise ValueError(f"extra cover on unknown divisor {label!r}")
        components = []
        for label in labels:
            degree = int(extra_degrees.get(label, 1))
            if degree < 1:
                raise ValueError(f"extra cover degree on {label!r} must be >= 1")
            if degree > 1:
                components.append(ExtraComponent(label, degree))
        return cls(labels=labels, matrix=matrix, extras=tuple(components))

    @property
    def torsion(self) -> int:
        return self.matrix.r

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def chart(self) -> "Chart":
        """The root chart: identity rows, and each extra exact on its origin."""
        n = self.dim
        return Chart(self, tuple(tuple(int(i == j) for j in range(n))
                                 for i in range(n)), self.labels,
                     tuple(tuple(label == comp.origin_id
                                 for comp in self.extras)
                           for label in self.labels), "r")

    @cached_property
    def walk(self) -> "_RowWalk":
        """The blow-up step of this model's charts, with its memos."""
        return _RowWalk(self)

    def cover_on(self, slot: int) -> CoverDegree:
        """Cover degree over the root divisor in ``slot``."""
        return self.chart.cover_on(slot)


class Chart(NamedTuple):
    """One chart of an iterated coordinate blow-up of a model's root chart.

    ``rows[k]`` is the root valuation of the divisor in slot k, which has
    id ``divisor_ids[k]``; ``exact[k][j]`` says whether extra cover j of
    the model restricts to that divisor with an exact degree. Charts are
    immutable; ``children`` returns the charts of a blow-up.
    """

    model: Model
    rows: Tuple[Tuple[int, ...], ...]
    divisor_ids: Tuple[str, ...]
    exact: Tuple[Tuple[bool, ...], ...]
    chart_id: str

    @property
    def dim(self) -> int:
        return len(self.rows)

    def stratum(self, center: CenterLike) -> Stratum:
        """The center as a blow-up center of this chart.

        Raises:
            ValueError: for a stratum of another chart, slots out of range
                or repeated, or a codimension below 2.
        """
        if isinstance(center, Stratum):
            if center.chart is not self:
                raise ValueError("center belongs to a different chart")
        else:
            center = Stratum(self, tuple(center))
        if center.codim < 2:
            raise ValueError("blow-up centers must have codimension at least 2")
        return center

    def cover_on(self, slot: int) -> CoverDegree:
        """Cover degree over the slot's divisor (``_combined_degree``)."""
        return self.model.walk.degree(self.rows[slot], self.exact[slot])[0]

    def children(self, center: CenterLike) -> List["Chart"]:
        """The charts of the blow-up of ``center``, in ascending pivot order:
        the one with pivot p holds the new divisor in slot p."""
        indices = self.stratum(center).indices
        walk = self.model.walk
        slots = walk.slots(self)
        return walk.children(self, indices,
                             walk.step(self, slots, indices, slots[0]))


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


def strata(chart: Chart, codim: int) -> List[Stratum]:
    """All coordinate strata of the given codimension, in lexicographic order.

    Raises:
        ValueError: unless 2 <= codim <= chart.dim.
    """
    if codim < 2 or codim > chart.dim:
        raise ValueError("stratum codimension must satisfy 2 <= codim <= dim")
    return [Stratum(chart, idx) for idx in combinations(range(chart.dim), codim)]


def _centers(n: int) -> List[Tuple[int, ...]]:
    """Blow-up centers of an n-slot chart as slot tuples, in engine order:
    by codimension, then lexicographically."""
    return [s for codim in range(2, n + 1)
            for s in combinations(range(n), codim)]


def as_chart(pair: PairLike) -> Chart:
    """The chart a pair argument names: a chart, or a model's root chart."""
    return pair.chart if isinstance(pair, Model) else pair


_Row = Tuple[int, ...]


class _RowStep(NamedTuple):
    """A center's new divisor: its id, the center's divisor ids, its root
    row, its exact flags, its degree and its scaled numbers."""

    divisor_id: str
    center: Tuple[str, ...]
    row: _Row
    exact: Tuple[bool, ...]
    a: Optional[int]
    one_step: Optional[int]  # None when an undetermined degree blocks it
    degree: CoverDegree


class _RowWalk:
    """The blow-up step of one model's charts, read off root rows.

    Degrees follow ``_combined_degree`` and are memoised per (root row,
    exact flags); a model keeps one walk (``Model.walk``), so the memos
    serve every call on its charts. Coefficients, ``a`` and one-step
    values are integers scaled by lcm(r, extra degrees), which every
    degree divides; ``fraction`` turns one into a ``Fraction``.
    """

    def __init__(self, model: Model):
        self.torsion = model.torsion
        self.scale = scale = lcm(model.torsion,
                                 *(c.degree for c in model.extras))
        self.columns = tuple(zip(*model.matrix.entries))
        self.extras = tuple((c.origin_id, c.degree,
                             model.labels.index(c.origin_id))
                            for c in model.extras)
        self.degrees: Dict[tuple, Tuple[CoverDegree, Optional[int]]] = {}
        # over scale, not self: a cache holding self would make a cycle
        self.fraction = cache(lambda v: None if v is None
                              else Fraction(v, scale))
        self.name = cache(lambda row: "E(" + ",".join(map(str, row)) + ")")

    def degree(self, row: _Row, exact: Tuple[bool, ...]
               ) -> Tuple[CoverDegree, Optional[int]]:
        """The degree on the divisor with root row ``row``, and its boundary
        coefficient 1 - 1/e scaled (None when undetermined)."""
        known = self.degrees.get((row, exact))
        if known is None:
            r = self.torsion
            degree = _combined_degree(
                r, residue_order(r, [sum(map(mul, row, column))
                                     for column in self.columns]),
                [(origin, eff, flag) for (origin, d, slot), flag
                 in zip(self.extras, exact)
                 if (eff := d // gcd(d, row[slot])) > 1])
            known = self.degrees[row, exact] = degree, (
                self.scale - self.scale // degree.candidates[0]
                if degree.determinate else None)
        return known

    def pairing(self, u: _Row, v: _Row) -> int:
        """How the class pairs the divisors with root rows u and v: u M v
        mod r."""
        return sum(sum(map(mul, u, column)) * x
                   for column, x in zip(self.columns, v)) % self.torsion

    def boundary(self, chart: Chart) -> Tuple[Optional[int], ...]:
        """Each slot's boundary coefficient 1 - 1/e, scaled (None where e
        is undetermined)."""
        return tuple(self.degree(row, exact)[1]
                     for row, exact in zip(chart.rows, chart.exact))

    def base_row(self, chart: Chart) -> Tuple[int, ...]:
        """``boundary`` of a base chart, where discrepancies telescope from;
        raises ``IndeterminateDegreeError`` naming every undetermined
        divisor."""
        row = self.boundary(chart)
        if None in row:
            raise IndeterminateDegreeError(
                [i for i, c in zip(chart.divisor_ids, row) if c is None])
        return row

    def slots(self, chart: Chart) -> tuple:
        """What the steps of a chart read: the boundary row, each extra's
        exposures mod its degree, and each extra's origin slot (-1 once
        gone)."""
        ids = chart.divisor_ids
        return (self.boundary(chart),
                [[row[slot] % d for row in chart.rows]
                 for _, d, slot in self.extras],
                [ids.index(o) if o in ids else -1 for o, _, _ in self.extras])

    def step(self, chart: Chart, slots: tuple, center: Tuple[int, ...],
             abar: Sequence[Optional[int]]) -> _RowStep:
        """The divisor a blow-up of ``center`` extracts.

        Its row is the sum of the center's rows. It is exact on an extra
        when its exposure, the sum of the center's, is nonzero and only the
        origin feeds it. ``a`` is c - 1 minus the center's coefficients in
        ``abar``, the chart's slots telescoped against a base; ``one_step``
        is the same against the chart's own boundary. Passing the boundary
        row (``slots[0]``) as ``abar`` makes the two one.
        """
        bound, entries, origins = slots
        top = (len(center) - 1) * self.scale
        load = [bound[i] for i in center]
        one_step = None if None in load else top - sum(load)
        row = tuple(map(sum, zip(*[chart.rows[i] for i in center])))
        exact = tuple(
            sum(entry[i] for i in center) % d != 0
            and all(i == origin for i in center if entry[i])
            for entry, origin, (_, d, _) in zip(entries, origins, self.extras))
        return _RowStep(
            self.name(row), tuple(chart.divisor_ids[i] for i in center),
            row, exact,
            one_step if abar is bound else top - sum(abar[i] for i in center),
            one_step, self.degree(row, exact)[0])

    def children(self, chart: Chart, center: Tuple[int, ...],
                 step: _RowStep) -> List[Chart]:
        """The blow-up's charts: the one with pivot p has the new divisor in
        slot p, and chart id ``<parent>.<center slots>p<p>`` (from 1)."""
        rows, ids, exact = chart.rows, chart.divisor_ids, chart.exact
        stem = f"{chart.chart_id}.{'-'.join(str(i + 1) for i in center)}p"
        return [Chart(chart.model, rows[:p] + (step.row,) + rows[p + 1:],
                      ids[:p] + (step.divisor_id,) + ids[p + 1:],
                      exact[:p] + (step.exact,) + exact[p + 1:],
                      stem + str(p + 1))
                for p in center]


def _put(row: tuple, slot: int, value) -> tuple:
    return row[:slot] + (value,) + row[slot + 1:]
