"""Brauer pairs on SNC charts: the symbol class plus its extra covers.

A ``Model`` couples a chart with the symbol matrix of the class restricted
to that chart and the transported data of any extra cyclic covers attached
to original divisors. Blowing up a model blows up the chart, pushes the
matrix through the substitution, and transports the extra covers. The step
is a row addition (see ``charts``), so both are O(n^2) row updates; the
cover degree on the new divisor can be read from the parent alone, without
building any child.

Cover degrees along divisors are where indeterminacy enters. An extra cover
restricts exactly to the divisor it was declared on and, by direct exposure,
to exceptional divisors extracted straight out of it; once its exposure has
travelled through an intermediate exceptional divisor, only the possible
degrees can be listed, not the degree itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, lcm
from typing import (Iterable, Mapping, Optional, Sequence, Tuple, TypeAlias,
                    Union)

from .charts import Chart, Stratum, blow_up as blow_up_chart, \
    exceptional_divisor_id, exceptional_valuation, new_affine_model
from .symbols import KummerClass, SymbolMatrix, residue


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
    """Transported state of one extra cyclic cover.

    ``vector`` holds, mod ``modulus``, the multiplicity of each chart
    coordinate in the pullback of the origin divisor's equation. ``exact_on``
    is the set of divisors on which the restricted cover degree is exact
    rather than merely bounded.
    """

    origin_id: str
    degree: int
    modulus: int
    vector: Tuple[int, ...]
    exact_on: frozenset

    def __post_init__(self) -> None:
        if self.degree < 2:
            raise ValueError("extra covers of degree < 2 carry no information")
        if self.modulus % self.degree != 0:
            raise ValueError("component modulus must be a multiple of its degree")
        object.__setattr__(
            self, "vector", tuple(int(v) % self.modulus for v in self.vector)
        )

    @classmethod
    def at_origin(cls, origin_id: str, degree: int, slot: int, dim: int,
                  torsion: int) -> "ExtraComponent":
        vec = tuple(1 if k == slot else 0 for k in range(dim))
        return cls(origin_id, degree, lcm(torsion, degree), vec,
                   frozenset({origin_id}))

    def transported(self, center_indices: Sequence[int], pivot: int,
                    parent_divisor_ids: Sequence[str],
                    exceptional_id: str) -> "ExtraComponent":
        """Push the component through the blow-up step with the given pivot.

        The step is a row addition, so only the pivot entry moves: it becomes
        the exposure, the sum of the center entries. The new exceptional
        divisor becomes exact exactly when its exposure is nonzero and every
        slot feeding that exposure is the origin divisor itself (direct
        exposure).
        """
        exposure = sum(self.vector[l] for l in center_indices)
        vector = self.vector[:pivot] + (exposure,) + self.vector[pivot + 1:]
        feeders = [l for l in center_indices if self.vector[l] % self.degree != 0]
        exact = self.exact_on
        if exposure % self.degree != 0 and feeders and all(
            parent_divisor_ids[l] == self.origin_id for l in feeders
        ):
            exact = exact | {exceptional_id}
        return ExtraComponent(self.origin_id, self.degree, self.modulus,
                              vector, exact)

    def effective_order(self, slot: int) -> int:
        """Degree of this cover's restriction over the slot's divisor."""
        return self.degree // gcd(self.degree, self.vector[slot])


@dataclass(frozen=True)
class BlowUp:
    """Result of blowing up a model: all charts of the modification."""

    parent: "Model"
    center: Stratum
    children: Tuple["Model", ...]
    exceptional_id: str


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


def _contributions(extras: Sequence[ExtraComponent], divisor_id: str,
                   slot: int) -> list[Tuple[str, int, bool]]:
    """What each extra live on the slot's divisor adds to its degree."""
    return [(comp.origin_id, eff, divisor_id in comp.exact_on)
            for comp in extras
            if (eff := comp.effective_order(slot)) > 1]


# A string, so that no typing subscript naming an engine class is evaluated:
# typing caches those, which would keep this module alive after a re-import.
CenterLike: TypeAlias = "Union[Stratum, Sequence[int]]"


@dataclass(frozen=True, eq=False)
class Model:
    """A Brauer pair restricted to one chart of an iterated blow-up."""

    chart: Chart
    matrix: SymbolMatrix
    extras: Tuple[ExtraComponent, ...] = ()

    def __post_init__(self) -> None:
        if self.matrix.dim != self.chart.dim:
            raise ValueError("symbol matrix does not match chart dimension")
        entries, r = self.matrix.entries, self.matrix.r
        if any(row[i] for i, row in enumerate(entries)) or any(
            (entries[i][j] + entries[j][i]) % r
            for i in range(len(entries)) for j in range(i)
        ):
            raise ValueError("symbol matrix must be alternating")
        for comp in self.extras:
            if len(comp.vector) != self.chart.dim:
                raise ValueError("extra component does not match chart dimension")

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
        chart = new_affine_model(len(tuple(labels)), labels)
        matrix = SymbolMatrix.from_symbols(torsion, chart.dim, symbols)
        extra_degrees = dict(extra_degrees or {})
        for label in extra_degrees:
            if label not in chart.divisor_ids:
                raise ValueError(f"extra cover on unknown divisor {label!r}")
        components = []
        for slot, label in enumerate(chart.divisor_ids):
            degree = int(extra_degrees.get(label, 1))
            if degree < 1:
                raise ValueError(f"extra cover degree on {label!r} must be >= 1")
            if degree > 1:
                components.append(
                    ExtraComponent.at_origin(label, degree, slot, chart.dim, torsion)
                )
        return cls(chart=chart, matrix=matrix, extras=tuple(components))

    @property
    def torsion(self) -> int:
        return self.matrix.r

    @property
    def dim(self) -> int:
        return self.chart.dim

    def stratum(self, center: CenterLike) -> Stratum:
        """The center as a stratum of this chart, from slots or a stratum."""
        if isinstance(center, Stratum):
            if center.chart is not self.chart:
                raise ValueError("center belongs to a different chart")
            return center
        return Stratum(self.chart, tuple(center))

    def residue_on(self, slot: int) -> KummerClass:
        """Residue class of the symbol part along the slot's divisor."""
        return residue(self.matrix, slot)

    def cover_on(self, slot: int) -> CoverDegree:
        """Full cover degree over the slot's divisor (``_combined_degree``)."""
        return _combined_degree(
            self.torsion, self.residue_on(slot).order,
            _contributions(self.extras, self.chart.divisor_ids[slot], slot))

    def _center_row(self, indices: Sequence[int]) -> Tuple[int, ...]:
        """Sum of the center's rows of the symbol matrix, mod r."""
        r = self.torsion
        rows = [self.matrix.entries[k] for k in indices]
        return tuple(sum(column) % r for column in zip(*rows))

    def exceptional_cover(self, center: CenterLike) -> Tuple[str, CoverDegree]:
        """Id and cover degree of the divisor a blow-up of ``center`` extracts.

        Read from this model alone: in the child with pivot p the residue row
        of the new divisor is the center row sum, and each extra component is
        transported into that child only, so no child chart or model is
        built. Every child reads the same degree; the first pivot's is taken.
        """
        stratum = self.stratum(center)
        exceptional_id = exceptional_divisor_id(
            exceptional_valuation(self.chart, stratum))
        pivot = stratum.indices[0]
        row = self._center_row(stratum.indices)
        monomial = KummerClass(
            self.torsion, row[:pivot] + row[pivot + 1:]).order
        extras = [
            comp.transported(stratum.indices, pivot, self.chart.divisor_ids,
                             exceptional_id)
            for comp in self.extras
        ]
        return exceptional_id, _combined_degree(
            self.torsion, monomial,
            _contributions(extras, exceptional_id, pivot))

    def blow_up(self, center: CenterLike) -> BlowUp:
        """Blow up the underlying chart and transport the class to each child.

        The step with pivot p is a row addition, so the child's symbol
        matrix A M A^T (``symbols.transform``) is a row update: row p becomes
        the center row sum s = sum of M[k] over the center, column p becomes
        -s, the diagonal entry is 0, and every other entry is unchanged.
        Extra components move the same way (``ExtraComponent.transported``).
        """
        stratum = self.stratum(center)
        charts = blow_up_chart(self.chart, stratum)
        exceptional_id = charts[0].divisor_ids[charts[0].pivot]
        r = self.torsion
        row = self._center_row(stratum.indices)
        negated = tuple(-v % r for v in row)
        children = []
        for child in charts:
            p = child.pivot
            pivot_row = row[:p] + (0,) + row[p + 1:]
            moved = tuple(
                pivot_row if i == p else old[:p] + (negated[i],) + old[p + 1:]
                for i, old in enumerate(self.matrix.entries)
            )
            comps = tuple(
                comp.transported(stratum.indices, p, self.chart.divisor_ids,
                                 exceptional_id)
                for comp in self.extras
            )
            children.append(
                Model(chart=child, matrix=SymbolMatrix(r, moved), extras=comps)
            )
        return BlowUp(parent=self, center=stratum, children=tuple(children),
                      exceptional_id=exceptional_id)
