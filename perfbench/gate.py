"""Exactness gate: checks every output of a run against independent values.

A ``certify`` report of divisor E(v) is checked against two closed forms
that share no code with the engine: the toric discrepancy
``a = sum v_k (1 - d_k) - 1`` over the root boundary, and the monomial
residue order ``r / gcd(r, M v)`` with M the root's signed symbol lift.
Each entry must also satisfy ``b = a + 1 - 1/e`` and ``e*b``. Per call the
verdict, ``complete``, report count and a canonical report digest are
compared against values pinned from the engine when the benchmark was
written. A CLI call is checked by exit code and the sha256 of its ``--out``
file; nonzero exits that match the pinned code are verdicts, not failures.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from typing import Sequence, Tuple

from inputs import Spec

_E_ID = re.compile(r"E\((-?\d+(?:,-?\d+)*)\)")


@dataclass(frozen=True)
class Outcome:
    """Gate result of one call."""

    attempted: int
    failed: int
    digest: str
    divisors: int
    out_bytes: int = 0


def signed_lift(spec: Spec) -> Tuple[Tuple[int, ...], ...]:
    """Antisymmetric integer matrix, upper triangle reduced into [0, r)."""
    n, r = spec.dim, spec.torsion
    acc = [[0] * n for _ in range(n)]
    for i, j, m in spec.symbols:
        acc[i][j] += m
        acc[j][i] -= m
    return tuple(
        tuple(0 if i == j else (acc[i][j] % r if i < j else -(acc[j][i] % r))
              for j in range(n))
        for i in range(n)
    )


def root_boundary(spec: Spec) -> Tuple[Fraction, ...]:
    """Coefficient 1 - 1/e of each root divisor, where e is the residue
    order lcm the extra cover degree."""
    r, lift = spec.torsion, signed_lift(spec)
    extra = dict(spec.extras)
    degrees = (lcm(r // gcd(r, *lift[k]), extra.get(k, 1)) for k in range(spec.dim))
    return tuple(1 - Fraction(1, e) for e in degrees)


def toric_a(valuation: Sequence[int], boundary: Sequence[Fraction]) -> Fraction:
    return sum((v * (1 - d) for v, d in zip(valuation, boundary)), Fraction(0)) - 1


def residue_order(valuation: Sequence[int], lift, r: int) -> int:
    image = [sum(m * v for m, v in zip(row, valuation)) for row in lift]
    return r // gcd(r, *image)


def valuation_of(divisor_id: str, dim: int) -> Tuple[int, ...]:
    match = _E_ID.fullmatch(divisor_id)
    if not match:
        raise ValueError(f"not an exceptional divisor id: {divisor_id!r}")
    v = tuple(int(x) for x in match.group(1).split(","))
    if len(v) != dim:
        raise ValueError(f"{divisor_id} has the wrong length for dim {dim}")
    return v


def report_ok(report, spec: Spec, lift, boundary: Sequence[Fraction]) -> bool:
    """Both closed forms and the entry identities hold for one report."""
    try:
        v = valuation_of(report.divisor_id, spec.dim)
    except ValueError:
        return False
    a = report.a
    entries = report.entries
    return (
        a == toric_a(v, boundary)
        and report.degree.monomial_order == residue_order(v, lift, spec.torsion)
        and tuple(x.e for x in entries) == tuple(report.degree.candidates)
        and all(x.b == a + 1 - Fraction(1, x.e) and x.weighted == x.e * x.b
                for x in entries)
    )


def canonical_digest(reports, order: Sequence[int]) -> str:
    """Digest of the reports in canonical coordinates, independent of the
    seeded coordinate order, labels and breadth-first witness routes."""
    lines = []
    for report in reports:
        v = valuation_of(report.divisor_id, len(order))
        canon = [0] * len(order)
        for new, old in enumerate(order):
            canon[old] = v[new]
        entries = ";".join(f"{x.e}:{x.b}:{x.weighted}" for x in report.entries)
        lines.append(f"E{tuple(canon)}|{report.level}|{report.a}|"
                     f"{report.degree.monomial_order}|{entries}")
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def check_certificate(cert, spec: Spec, order: Sequence[int],
                      pinned: dict) -> Outcome:
    """Gate one certificate: each report, then the call summary."""
    lift, boundary = signed_lift(spec), root_boundary(spec)
    bad_reports = sum(not report_ok(r, spec, lift, boundary) for r in cert.reports)
    try:
        digest = canonical_digest(cert.reports, order)
    except ValueError:
        digest = "unreadable"
    summary = {"verdict": cert.verdict, "complete": cert.complete,
               "reports": len(cert.reports), "digest": digest}
    return Outcome(
        attempted=len(cert.reports) + 1,
        failed=bad_reports + (summary != pinned),
        digest=digest,
        divisors=len(cert.reports),
    )


def out_digest(code: int, path: Path) -> Tuple[str, int, int]:
    """(pinned-form digest, out bytes, report lines) of one CLI call."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return f"{code}:-", 0, 0
    return (f"{code}:{hashlib.sha256(data).hexdigest()[:16]}", len(data),
            data.count(b'"type":"report"'))


def check_cli(code: int, path: Path, pinned: str) -> Outcome:
    digest, size, reports = out_digest(code, path)
    path.unlink(missing_ok=True)
    return Outcome(attempted=1, failed=int(digest != pinned), digest=digest,
                   divisors=reports, out_bytes=size)
