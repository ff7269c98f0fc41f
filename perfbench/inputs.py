"""Seeded inputs of the benchmark workloads.

Every model file is written by this module's own renderer, never by the
engine's ``format_model``, so the inputs do not move when the engine's
writer does. A seed changes the coordinate order and labels of the deep
models, the order of the corpus calls, and how every file is written (line
order, symbol orientation, comments, lines the parser drops). It never
changes which model a file describes, so the expected outputs can be pinned
once, and it barely changes how much work a run does.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class Spec:
    """A model as the benchmark knows it, independent of the engine."""

    torsion: int
    labels: Tuple[str, ...]
    symbols: Tuple[Tuple[int, int, int], ...]  # (slot, slot, exponent)
    extras: Tuple[Tuple[int, int], ...]  # (slot, degree > 1)

    @property
    def dim(self) -> int:
        return len(self.labels)


def _xs(n: int, prefix: str = "x") -> Tuple[str, ...]:
    return tuple(f"{prefix}{k + 1}" for k in range(n))


@dataclass(frozen=True)
class DeepInput:
    """One ``certify`` library call of a deep workload."""

    name: str
    spec: Spec
    depth: int
    small_depth: int

    def key(self, small: bool) -> str:
        return f"{self.name}@{self.small_depth if small else self.depth}"


DEEP = {
    # Torsion 2, no extras: the enumeration core carries the run.
    "deep-plain": (
        DeepInput("bad-case", Spec(2, _xs(3), ((0, 2, 1), (1, 2, 1)), ()), 4, 3),
        DeepInput("x1x3+x2x4", Spec(2, _xs(4), ((0, 2, 1), (1, 3, 1)), ()), 3, 2),
    ),
    # Torsion 3 with an extra cover: transported extras and candidate lists.
    "deep-extras": (
        DeepInput("remark", Spec(3, _xs(3), ((0, 1, 1),), ((2, 3),)), 4, 3),
        DeepInput("x1x2+x4^3", Spec(3, _xs(4), ((0, 1, 1),), ((3, 3),)), 3, 2),
    ),
}

CLI_COMMANDS = (
    ("boundary",),
    ("discrepancy",),
    ("certify", "--depth", "1"),
    ("resolve",),
)
POOL_SEED = 11010868
POOL_SIZE = 300
CORPUS_SIZE = {"full": POOL_SIZE, "small": 30}


def fresh_labels(n: int, rng: random.Random) -> Tuple[str, ...]:
    """n distinct identifier labels."""
    labels: List[str] = []
    while len(labels) < n:
        label = rng.choice(string.ascii_letters) + "".join(
            rng.choice(string.ascii_lowercase + string.digits)
            for _ in range(rng.randint(0, 3))
        )
        if label not in labels:
            labels.append(label)
    return tuple(labels)


def relabel(spec: Spec, rng: random.Random) -> Tuple[Spec, Tuple[int, ...]]:
    """Permute coordinates and rename labels.

    Returns the new spec and ``order`` with ``order[new_slot]`` the
    canonical slot, so results can be mapped back to canonical coordinates.
    """
    order = list(range(spec.dim))
    rng.shuffle(order)
    new_of = {old: new for new, old in enumerate(order)}
    moved = Spec(
        torsion=spec.torsion,
        labels=fresh_labels(spec.dim, rng),
        symbols=tuple(sorted((new_of[i], new_of[j], m) for i, j, m in spec.symbols)),
        extras=tuple(sorted((new_of[s], d) for s, d in spec.extras)),
    )
    return moved, tuple(order)


def _annotate(lines: List[str], rng: random.Random) -> List[str]:
    """Append a trailing comment to some lines."""
    return [line + "  # " + "".join(rng.choice(string.ascii_lowercase)
                                     for _ in range(8))
            if rng.random() < 0.2 else line for line in lines]


def render(spec: Spec, rng: random.Random) -> str:
    """Model-file text for ``spec`` with seeded, meaning-preserving noise."""
    r, labels = spec.torsion, spec.labels
    fields = [f"torsion = {r}", f"dimension = {spec.dim}",
              "labels = " + ",".join(labels)]
    rng.shuffle(fields)
    symbols = []
    for i, j, m in spec.symbols:
        if rng.random() < 0.5:
            i, j, m = j, i, -m
        if rng.random() < 0.3:
            m += r * rng.choice((-1, 1))
        symbols.append(f"{labels[i]} {labels[j]} {m}")
    if rng.random() < 0.2:
        label = rng.choice(labels)
        symbols.append(f"{label} {label} 1")  # self-pairing, dropped
    if rng.random() < 0.2:
        i, j = rng.sample(range(spec.dim), 2)
        symbols.append(f"{labels[i]} {labels[j]} {r}")  # contributes nothing
    rng.shuffle(symbols)
    extras = [f"{labels[s]} {d}" for s, d in spec.extras]
    taken = {s for s, _ in spec.extras}
    free = [s for s in range(spec.dim) if s not in taken]
    if free and rng.random() < 0.2:
        extras.append(f"{labels[rng.choice(free)]} 1")  # degree 1, ignored
    rng.shuffle(extras)

    lines = [f"# benchmark model {rng.randrange(10 ** 6)}", "[model]"]
    lines += _annotate(fields, rng)
    for header, body in (("[symbols]", symbols), ("[extra]", extras)):
        if body:
            lines += [""] * rng.randint(0, 1) + [header] + _annotate(body, rng)
    return "\n".join(lines) + "\n"


def pool() -> List[Spec]:
    """The fixed pool the corpus draws from: dim 3-4, torsion 2-4."""
    rng = random.Random(POOL_SEED)
    specs = []
    for _ in range(POOL_SIZE):
        dim = rng.choice((3, 4))
        torsion = rng.choice((2, 3, 4))
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        chosen = rng.sample(pairs, min(rng.randint(0, 4), len(pairs)))
        symbols = tuple(sorted((i, j, rng.randrange(1, torsion)) for i, j in chosen))
        extras: Tuple[Tuple[int, int], ...] = ()
        if rng.random() < 0.3:
            slots = rng.sample(range(dim), rng.randint(1, 2))
            extras = tuple(sorted((s, rng.choice((2, 3, 4))) for s in slots))
        labels = _xs(dim, rng.choice(("x", "x", "u", "D")))
        specs.append(Spec(torsion, labels, symbols, extras))
    return specs


def corpus(seed: int, size: str) -> List[Tuple[int, str]]:
    """(pool index, file text) for one run's corpus, in call order.

    The full corpus is the whole pool, so a run's total work does not
    depend on the seed; the seed sets the call order and how each file is
    written. The small corpus is a seeded sample of the pool.
    """
    rng = random.Random(seed)
    specs = pool()
    chosen = rng.sample(range(len(specs)), CORPUS_SIZE[size])
    return [(index, render(specs[index], rng)) for index in chosen]
