"""Brauer pairs, their blown-up charts, their centers, and the one blow-up step.

A ``Model`` is a Brauer pair on the root chart spec k{x1,...,xn}: the
coordinate labels, the class, and the extra cyclic covers attached to
original divisors. A class of torsion r presented by tame symbols
(x_i, x_j) is an alternating matrix M over Z/r: M[i][j] holds the exponent
with which the symbol pairs slot i against slot j, and M[j][i] = -M[i][j].
Along slot s the residue is the class of prod_{j != s} x_j^{M[s][j]}, of
order r/gcd(r, M[s]) (``residue_order``) since M[s][s] = 0. A ``Chart``
of an iterated coordinate blow-up is its slots' valuations on the root
coordinates, its divisor ids, one exact flag per slot and extra cover, and
its chart id; it carries no matrix and no extra vectors of its own.

A blow-up center is a coordinate stratum V(x_i, ...) of a chart, named by
the sorted tuple of its slots; ``Chart.center`` checks one given from
outside. ``_centers`` is the one engine order of a chart's centers,
codimension 2 up and each codimension lexicographic. The exceptional
divisor with root row v has id ``E(v1,...,vn)``, a pure function of the
geometry, so every route to a divisor names it alike without a shared
counter; a child chart's id is its parent's, the center's slots and the
pivot (``_RowWalk.children``).

Everything a blow-up step reads comes off those rows (``_RowWalk``): on
the divisor with root row v the residue order is r/gcd(r, v M) for the
root matrix M, an extra cover on the root divisor in slot s has exposure
v[s], and slots i and j pair by rows[i] M rows[j] mod r. The new divisor's
row is the sum of the center's rows, in the pivot slot of each child. The
exact flags of a chart's centers depend only on its exposure, each extra's
origin slot and other exposed slots, so a step reads its chart's exposure
(``_RowWalk.exposure``) and its flags from one bounded table per exposure
(``_flags``). The fixup, the audits and both walks run this one step.

Cover degrees along divisors are where indeterminacy enters. An extra cover
restricts exactly to the divisor it was declared on and, by direct exposure,
to exceptional divisors extracted straight out of it; once its exposure has
travelled through an intermediate exceptional divisor, only the possible
degrees can be listed, not the degree itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import combinations
from math import gcd, isqrt, lcm
from operator import add, index, itemgetter, mul
from typing import (Callable, Dict, Iterable, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple, TypeAlias, Union)

LABEL_RE = re.compile(r"[A-Za-z_]\w*")


class IndeterminateDegreeError(ValueError):
    """A computation needed a cover degree that is only known up to a list."""

    def __init__(self, divisor_ids: Sequence[str], message: str = ""):
        self.divisor_ids = tuple(divisor_ids)
        if not message:
            message = "indeterminate cover degree on " + ", ".join(self.divisor_ids)
        super().__init__(message)


def residue_order(r: int, exponents: Iterable[int]) -> int:
    """Order in k*/(k*)^r of the class of a monomial with these exponents."""
    return r // gcd(r, *exponents)


def _divisors(n: int) -> List[int]:
    """The divisors of n >= 1, ascending, by trial division up to sqrt(n)."""
    return sorted({d for k in range(1, isqrt(n) + 1) if n % k == 0
                   for d in (k, n // k)})


def candidate_orders(monomial_order: int, loose_order: int) -> Tuple[int, ...]:
    """Possible cover degrees when contributions of total order g float freely.

    A candidate e must divide lcm(m, g) and must still explain the monomial
    part: m | lcm(e, g). So e is m's part on the primes of m / gcd(m, g)
    times a divisor of g's rest, and only that rest is trial-divided.
    """
    m = monomial_order
    free, h = loose_order, m // gcd(m, loose_order)
    while (t := gcd(free, h)) > 1:
        free //= t
    return tuple(m // gcd(m, free) * d for d in _divisors(free))


@dataclass(frozen=True, slots=True)
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
        candidates = tuple(sorted(set(self.candidates)))
        if candidates[0] < 1 or self.monomial_order < 1:
            raise ValueError("cover degrees and monomial orders are positive")
        object.__setattr__(self, "candidates", candidates)

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
    contribution combines to lcm when the combination is forced, tested in
    this order: trivial monomial part, coprime orders, or prime torsion.
    Past the first two, m > 1 divides r and shares a factor with eff, so a
    prime r is m and divides eff: primality is tested only if r <= eff,
    where trial division is cheap. Anything else leaves a candidate list.
    """
    if not contributions:
        return CoverDegree(monomial, (monomial,))
    exact = [eff for _, eff, is_exact in contributions if is_exact]
    if len(contributions) == 1 and exact:
        eff = exact[0]
        if (monomial == 1 or gcd(monomial, eff) == 1
                or torsion <= eff and len(_divisors(torsion)) == 2):
            return CoverDegree(monomial, (lcm(monomial, eff),))
    loose = lcm(*[eff for _, eff, _ in contributions])
    return CoverDegree(
        monomial,
        candidate_orders(monomial, loose),
        tuple(sorted({origin for origin, _, _ in contributions})),
    )


# A string, so that no typing subscript naming an engine class is evaluated:
# typing caches those, which would keep this module alive after a re-import.
PairLike: TypeAlias = "Union[Model, Chart]"


@dataclass(frozen=True, eq=False)
class Model:
    """A Brauer pair on the root chart: labels, the torsion r, the class
    as its matrix's rows over Z/r, and extra covers. Construction reads
    the torsion and the entries as integers (``operator.index``: a float
    raises ``TypeError``), reduces the entries into [0, r) and checks that
    the matrix is alternating."""

    labels: Tuple[str, ...]
    torsion: int
    matrix: Tuple[Tuple[int, ...], ...]
    extras: Tuple[ExtraComponent, ...] = ()

    def __post_init__(self) -> None:
        r = index(self.torsion)
        object.__setattr__(self, "torsion", r)
        if r < 2:
            raise ValueError("torsion must be at least 2")
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("dimension must be at least 1")
        for label in labels:
            if not LABEL_RE.fullmatch(label):
                raise ValueError(f"divisor label {label!r} is not an identifier")
        if len(set(labels)) != len(labels):
            raise ValueError("divisor labels must be distinct")
        n = len(labels)
        rows = tuple(tuple(index(v) % r for v in row) for row in self.matrix)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"symbol matrix must be {n}x{n}, one row and "
                             "column per label")
        object.__setattr__(self, "matrix", rows)
        # a slot breaks alternation by its diagonal entry, a stratum {i, j}
        # by M[i][j] + M[j][i] != 0 (mod r): slots first, then pairs i < j
        broken = ([(i,) for i in range(n) if rows[i][i]]
                  + [(i, j) for i, j in combinations(range(n), 2)
                     if (rows[i][j] + rows[j][i]) % r])
        if broken:
            raise ValueError("symbol matrix must be alternating, broken on "
                             + " ".join("{" + ",".join(labels[k] for k in s)
                                        + "}" for s in broken))
        origins = [comp.origin_id for comp in self.extras]
        for origin in origins:
            if origin not in labels:
                raise ValueError(f"extra cover on unknown divisor {origin!r}")
        if len(set(origins)) != len(origins):
            raise ValueError("extra covers must lie on distinct divisors")

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
            TypeError: if the torsion, a symbol entry or a degree is no
                integer.
            ValueError: on a bad torsion, label, slot, degree or extra key.
        """
        labels = tuple(labels)
        n = len(labels)
        rows = [[0] * n for _ in range(n)]
        for symbol in symbols:
            i, j, m = map(index, symbol)
            if i == j:
                raise ValueError("a symbol needs two distinct slots")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError("symbol slot out of range")
            rows[i][j] += m
            rows[j][i] -= m
        extra_degrees = dict(extra_degrees or {})
        for label in extra_degrees:
            if label not in labels:
                raise ValueError(f"extra cover on unknown divisor {label!r}")
        components = []
        for label in labels:
            degree = index(extra_degrees.get(label, 1))
            if degree < 1:
                raise ValueError(f"extra cover degree on {label!r} must be >= 1")
            if degree > 1:
                components.append(ExtraComponent(label, degree))
        return cls(labels, torsion, tuple(map(tuple, rows)),
                   tuple(components))

    @property
    def dim(self) -> int:
        return len(self.labels)

    def __getstate__(self) -> dict:
        # the fields alone: a copy rebuilds ``chart`` and ``walk`` on use
        return {f.name: getattr(self, f.name) for f in fields(self)}

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

    def center(self, slots: Iterable[int]) -> Tuple[int, ...]:
        """The slots as a blow-up center of this chart: sorted.

        Raises:
            TypeError: if a slot is no integer.
            ValueError: for no slots, repeated slots, slots out of range,
                or a codimension below 2.
        """
        center = tuple(sorted(map(index, slots)))
        if not center:
            raise ValueError("a stratum needs at least one coordinate")
        if len(set(center)) != len(center):
            raise ValueError("stratum indices must be distinct")
        if center[0] < 0 or center[-1] >= self.dim:
            raise ValueError("stratum indices out of range for the chart")
        if len(center) < 2:
            raise ValueError("blow-up centers must have codimension at least 2")
        return center

    def cover_on(self, slot: int) -> CoverDegree:
        """Cover degree over the slot's divisor (``_combined_degree``)."""
        return self.model.walk.degree(self.rows[slot], self.exact[slot])[0]

    def children(self, center: Iterable[int]) -> List["Chart"]:
        """The charts of the blow-up of ``center``, in ascending pivot order:
        the one with pivot p holds the new divisor in slot p."""
        center = self.center(center)
        walk = self.model.walk
        return walk.children(self, center, walk.step(self, center))


def _centers(n: int) -> List[Tuple[int, ...]]:
    """Blow-up centers of an n-slot chart as slot tuples, in engine order:
    by codimension, then lexicographically."""
    return [s for codim in range(2, n + 1)
            for s in combinations(range(n), codim)]


class _Plan(NamedTuple):
    """The engine-order centers of an n-slot chart, as the steps read them.

    ``entries[k]`` holds center k, a getter of its entries of any per-slot
    tuple, the index of the center without its last slot (-1 for a center
    of codimension 2) and that last slot. The center without its last slot
    comes earlier in engine order. ``through[p]`` lists the centers that
    hold slot p, and ``chains[center]`` the indices of the centers a step
    of that center alone runs: its prefixes of codimension 2 up, then its
    own. ``labels[center]`` is the center's part of a child's chart id,
    its slots from 1 joined by "-".
    """

    entries: Tuple[Tuple[Tuple[int, ...], Callable, int, int], ...]
    through: Tuple[Tuple[int, ...], ...]
    chains: Dict[Tuple[int, ...], Tuple[int, ...]]
    labels: Dict[Tuple[int, ...], str]


@cache
def _plan(n: int) -> _Plan:
    centers = _centers(n)
    rank = {center: k for k, center in enumerate(centers)}
    return _Plan(
        tuple((center, itemgetter(*center), rank.get(center[:-1], -1),
               center[-1]) for center in centers),
        tuple(tuple(k for k, center in enumerate(centers) if p in center)
              for p in range(n)),
        {center: tuple(rank[center[:end]]
                       for end in range(2, len(center) + 1))
         for center in centers},
        {center: "-".join(str(i + 1) for i in center) for center in centers})


@lru_cache(maxsize=1024)
def _flags(n: int, exposure: tuple) -> Tuple[Tuple[bool, ...], ...]:
    """The exact flags of every center of an n-slot chart, in engine order,
    for a chart's ``_RowWalk.exposure``: per extra, whether the origin is
    in the center and no other exposed slot is. Kept process-wide like
    ``_plan``, and bounded whatever the depth: an extra has (n + 2) 2^(n-1)
    exposures, an origin or -1 and a set of other slots."""
    return tuple(tuple([origin in center and others.isdisjoint(center)
                        for origin, others in exposure])
                 for center in _centers(n))


def as_chart(pair: PairLike) -> Chart:
    """The chart a pair argument names: a chart, or a model's root chart."""
    return pair.chart if isinstance(pair, Model) else pair


_Row = Tuple[int, ...]
_new = tuple.__new__


class _RowStep(NamedTuple):
    """A center's new divisor: its id, the center's divisor ids, its root
    row, its exact flags, its degree and its scaled a."""

    divisor_id: str
    center: Tuple[str, ...]
    row: _Row
    exact: Tuple[bool, ...]
    a: Optional[int]  # None when the step is taken without a coefficient row
    degree: CoverDegree


class _RowWalk:
    """The blow-up step of one model's charts, read off root rows.

    Degrees follow ``_combined_degree`` and are memoised per (root row,
    exact flags); a model keeps one walk (``Model.walk``), so the memos
    serve every call on its charts. Coefficients, ``a`` and one-step
    values are integers scaled by lcm(r, extra degrees), which every
    degree divides; ``fraction`` turns one into a ``Fraction``. ``steps``
    is the one step, and ``step`` its one-center case.
    """

    def __init__(self, model: Model):
        self.torsion = model.torsion
        self.scale = scale = lcm(model.torsion,
                                 *(c.degree for c in model.extras))
        self.columns = tuple(zip(*model.matrix))
        self.extras = tuple((c.origin_id, c.degree,
                             model.labels.index(c.origin_id))
                            for c in model.extras)
        self.degrees: Dict[tuple, tuple] = {}  # (row, exact) -> ``degree``
        # over scale, not self: a cache holding self would make a cycle
        self.fraction = cache(lambda v: None if v is None
                              else Fraction(v, scale))

    def degree(self, row: _Row, exact: Tuple[bool, ...]
               ) -> Tuple[CoverDegree, Optional[int], str]:
        """The degree on the divisor with root row ``row``, its boundary
        coefficient 1 - 1/e scaled (None when undetermined) and its id."""
        known = self.degrees.get((row, exact))
        if known is None:
            r = self.torsion
            degree = _combined_degree(
                r, residue_order(r, [sum(map(mul, row, column))
                                     for column in self.columns]),
                [(origin, eff, flag) for (origin, d, slot), flag
                 in zip(self.extras, exact)
                 if (eff := d // gcd(d, row[slot])) > 1])
            known = self.degrees[row, exact] = (
                degree, self.scale - self.scale // degree.candidates[0]
                if degree.determinate else None,
                "E(" + ",".join(map(str, row)) + ")")
        return known

    def pairing(self, u: _Row, v: _Row) -> int:
        """How the class pairs the divisors with root rows u and v: u M v
        mod r."""
        return sum(sum(map(mul, u, column)) * x
                   for column, x in zip(self.columns, v)) % self.torsion

    def boundary(self, chart: Chart) -> Tuple[Optional[int], ...]:
        """Each slot's boundary coefficient 1 - 1/e, scaled (None where e
        is undetermined)."""
        degrees = self.degrees
        return tuple([(degrees.get(key) or self.degree(*key))[1]
                      for key in zip(chart.rows, chart.exact)])

    def base_row(self, chart: Chart) -> Tuple[int, ...]:
        """``boundary`` of a base chart, where discrepancies telescope from;
        raises ``IndeterminateDegreeError`` naming every undetermined
        divisor."""
        row = self.boundary(chart)
        if None in row:
            raise IndeterminateDegreeError(
                [i for i, c in zip(chart.divisor_ids, row) if c is None])
        return row

    def one_step(self, bound: Sequence[Optional[int]],
                 center: Tuple[int, ...]) -> Optional[int]:
        """A center's one-step value against a chart's boundary row: its
        codimension minus 1 minus its coefficients, scaled (None when an
        undetermined degree blocks it)."""
        load = [bound[k] for k in center]
        return (None if None in load
                else (len(center) - 1) * self.scale - sum(load))

    def exposure(self, chart: Chart) -> tuple:
        """What the steps of a chart read besides its rows: per extra, its
        origin slot (-1 once gone) and the set of its other exposed slots,
        those whose row is nonzero mod the degree at the origin's root
        slot. The origin itself, with row 1 there, is always exposed.
        """
        ids, rows = chart.divisor_ids, chart.rows
        exposed = []
        for origin_id, d, slot in self.extras:
            origin = ids.index(origin_id) if origin_id in ids else -1
            exposed.append((origin, frozenset([
                i for i, row in enumerate(rows) if row[slot] % d
                and i != origin])))
        return tuple(exposed)

    def steps(self, chart: Chart, abar: Optional[Sequence[int]], known,
              order: Iterable[int]):
        """The divisors that blow-ups of the chart's centers extract.

        ``known`` maps the engine index of a center (``_plan``) to its
        step, a list or a dict; this fills it at the indices of ``order``,
        ascending, and returns it. Each center of codimension 3 or more
        needs the step of the center without its last slot in ``known`` by
        then: computed here, or a parent's off its pivot, whose row and
        ``a`` agree.

        The row is the sum of the center's rows. The divisor is exact on an
        extra when its exposure, the sum of the center's, is nonzero mod
        the degree and only the origin feeds it. The origin's exposure is
        1, so that is: the origin is in the center and no other exposed
        slot is, and ``_flags`` holds them per exposure, read here off the
        chart (``exposure``). ``a`` is c - 1 minus the center's
        coefficients in ``abar``, the chart's slots telescoped against a
        base; without ``abar`` it is None.
        """
        entries = _plan(len(chart.rows)).entries
        flags = _flags(len(chart.rows), self.exposure(chart))
        rows, ids, scale = chart.rows, chart.divisor_ids, self.scale
        degrees = self.degrees
        a = None
        for n in order:
            center, get, prefix, last = entries[n]
            if prefix < 0:
                i, j = center
                row = tuple(map(add, rows[i], rows[j]))
                if abar is not None:
                    a = scale - abar[i] - abar[j]
            else:
                before = known[prefix]
                row = tuple(map(add, before.row, rows[last]))
                if abar is not None:
                    a = before.a + scale - abar[last]
            exact = flags[n]
            degree = degrees.get((row, exact)) or self.degree(row, exact)
            known[n] = _RowStep(degree[2], get(ids), row, exact, a,
                                degree[0])
        return known

    def step(self, chart: Chart, center: Tuple[int, ...],
             abar: Optional[Sequence[int]] = None) -> _RowStep:
        """``steps`` of one center (sorted slots)."""
        chain = _plan(len(chart.rows)).chains[center]
        return self.steps(chart, abar, {}, chain)[chain[-1]]

    def children(self, chart: Chart, center: Tuple[int, ...],
                 step: _RowStep) -> List[Chart]:
        """The blow-up's charts: the one with pivot p has the new divisor in
        slot p, and chart id ``<parent>.<center slots>p<p>`` (from 1)."""
        model, rows, ids, exact, chart_id = chart
        stem = f"{chart_id}.{_plan(len(rows)).labels[center]}p"
        row, divisor_id, flags = (step.row,), (step.divisor_id,), (step.exact,)
        # tuple.__new__ skips the Python-level __new__ of the named tuple
        return [_new(Chart, (model, rows[:p] + row + rows[p + 1:],
                             ids[:p] + divisor_id + ids[p + 1:],
                             exact[:p] + flags + exact[p + 1:],
                             stem + str(p + 1)))
                for p in center]


def _put(row: tuple, slot: int, value) -> tuple:
    return row[:slot] + (value,) + row[slot + 1:]
