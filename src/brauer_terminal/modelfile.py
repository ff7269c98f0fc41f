"""Plain-text model files: parse, validate, build, and write back.

The format has three sections. ``[model]`` declares ``torsion``,
``dimension`` and the comma-separated ``labels``. ``[symbols]`` lists one
symbol per line as ``NAME NAME INT``, accumulated antisymmetrically into
the matrix. ``[extra]`` attaches extra cyclic covers as ``NAME INT``.
``#`` starts a comment anywhere on a line; blank lines are ignored.

Parsing is strict about structure (positions are reported as line and
column) but forgiving about redundancy: symbols that are multiples of the
torsion, self-pairings, and accumulations that cancel are dropped with a
warning instead of an error.

Torsion, extra cover degrees and dimension are capped (``MAX_TORSION``,
``MAX_EXTRA_DEGREE``, ``MAX_DIMENSION``): candidate cover degrees are
the divisors of lcm(torsion, extra degrees), found by trial division up
to its square root, and a chart of dimension n has 2^n - n - 1 blow-up
centers, so unbounded values would stall the commands instead of failing
them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .model import LABEL_RE, Model
from .symbols import SymbolMatrix

_TOKEN_RE = re.compile(r"\S+")
_KEY_RE = re.compile(r"^\s*(\w+)\s*=\s*(.*?)\s*$")

_SECTIONS = ("model", "symbols", "extra")

MAX_TORSION = 12
MAX_EXTRA_DEGREE = 12
MAX_DIMENSION = 5


class ModelFormatError(ValueError):
    """A model file violated the format; carries the position if known."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class ModelSpec:
    """Canonical content of a model file.

    Symbols are stored with slot i < j and exponent in [1, torsion);
    extra covers keep only degrees above 1. Equal specs therefore describe
    equal models, and formatting a spec then parsing it round-trips.
    """

    torsion: int
    dimension: int
    labels: Tuple[str, ...]
    symbols: Tuple[Tuple[int, int, int], ...]
    extra_degrees: Tuple[Tuple[str, int], ...]

    @classmethod
    def create(cls, torsion: int, labels: Sequence[str],
               symbols: Iterable[Tuple[int, int, int]] = (),
               extra_degrees: Iterable[Tuple[str, int]] = ()) -> "ModelSpec":
        """The canonical spec: symbols accumulate by ``from_symbols``, and
        self-pairings drop. Raises ``ValueError`` on a torsion below 2, a
        slot out of range or an extra cover on a label not in ``labels``."""
        labels = tuple(labels)
        n = len(labels)
        # a self-pairing out of range goes on, for from_symbols to reject
        matrix = SymbolMatrix.from_symbols(torsion, n, [
            (i, j, m) for i, j, m in symbols if i != j or not 0 <= i < n])
        extras = [(label, int(degree)) for label, degree in extra_degrees]
        for label, _ in extras:
            if label not in labels:
                raise ValueError(f"extra cover on unknown divisor {label!r}")
        return cls(torsion=int(torsion), dimension=n, labels=labels,
                   symbols=tuple((i, j, m)
                                 for i, row in enumerate(matrix.entries)
                                 for j, m in enumerate(row[i + 1:], i + 1)
                                 if m),
                   extra_degrees=tuple(sorted(e for e in extras if e[1] > 1)))


@dataclass(frozen=True)
class LoadResult:
    spec: ModelSpec
    model: Model
    warnings: Tuple[str, ...]


def _strip_comment(raw: str) -> str:
    cut = raw.find("#")
    return raw if cut < 0 else raw[:cut]


def parse_model(text: str) -> Tuple[ModelSpec, Tuple[str, ...]]:
    """Parse model-file text into a canonical spec plus warnings.

    Raises:
        ModelFormatError: on structural problems, with line and column.
    """
    section: Optional[str] = None
    fields: Dict[str, str] = {}
    field_lines: Dict[str, int] = {}
    raw_symbols: List[Tuple[int, int, int, int]] = []
    raw_extras: List[Tuple[str, int, int]] = []
    labels: Tuple[str, ...] = ()
    warnings: List[str] = []

    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        content = _strip_comment(raw)
        if not content.strip():
            continue
        stripped = content.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ModelFormatError("unterminated section header", line_no,
                                       content.index("[") + 1)
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise ModelFormatError(f"unknown section [{name}]", line_no,
                                       content.index("[") + 1)
            if name != "model" and "labels" not in fields:
                raise ModelFormatError(
                    f"section [{name}] before the [model] labels", line_no, 1
                )
            if name != "model" and not labels:
                labels = _parse_labels(fields, field_lines)
            section = name
            continue
        if section is None:
            raise ModelFormatError("content before any section header",
                                   line_no, 1)
        tokens = list(_TOKEN_RE.finditer(content))
        if section == "model":
            match = _KEY_RE.match(content)
            if not match:
                raise ModelFormatError("expected KEY = VALUE", line_no, 1)
            key, value = match.group(1), match.group(2)
            if key not in ("torsion", "dimension", "labels"):
                raise ModelFormatError(f"unknown key {key!r}", line_no,
                                       content.index(key) + 1)
            if key in fields:
                raise ModelFormatError(f"duplicate key {key!r}", line_no,
                                       content.index(key) + 1)
            fields[key] = value
            field_lines[key] = line_no
        elif section == "symbols":
            if len(tokens) != 3:
                raise ModelFormatError("expected NAME NAME INT", line_no, 1)
            i = _label_slot(tokens[0], labels, line_no)
            j = _label_slot(tokens[1], labels, line_no)
            m = _int_token(tokens[2], line_no)
            torsion = _parse_torsion(fields, field_lines)
            if i == j:
                warnings.append(
                    f"line {line_no}: symbol pairs {tokens[0].group()} with "
                    "itself and is dropped"
                )
                continue
            if m % torsion == 0:
                warnings.append(
                    f"line {line_no}: exponent {m} is a multiple of the "
                    "torsion and contributes nothing"
                )
            raw_symbols.append((i, j, m, line_no))
        else:
            if len(tokens) != 2:
                raise ModelFormatError("expected NAME INT", line_no, 1)
            slot = _label_slot(tokens[0], labels, line_no)
            degree = _int_token(tokens[1], line_no)
            if degree < 1:
                raise ModelFormatError("extra cover degree must be positive",
                                       line_no, tokens[1].start() + 1)
            if degree > MAX_EXTRA_DEGREE:
                raise ModelFormatError(
                    f"extra cover degree must be at most {MAX_EXTRA_DEGREE}",
                    line_no, tokens[1].start() + 1,
                )
            label = labels[slot]
            if any(existing == label for existing, _, _ in raw_extras):
                raise ModelFormatError(
                    f"extra cover on {label!r} declared twice", line_no,
                    tokens[0].start() + 1,
                )
            raw_extras.append((label, degree, line_no))

    torsion = _parse_torsion(fields, field_lines)
    if not labels:
        labels = _parse_labels(fields, field_lines)
    dimension = _parse_dimension(fields, field_lines, labels)
    spec = ModelSpec.create(
        torsion=torsion,
        labels=labels,
        symbols=[(i, j, m) for i, j, m, _ in raw_symbols],
        extra_degrees=[(label, degree) for label, degree, _ in raw_extras],
    )
    surviving = {(i, j) for i, j, _ in spec.symbols}
    reported = set()
    for i, j, m, line_no in raw_symbols:
        key = (i, j) if i < j else (j, i)
        if m % torsion != 0 and key not in surviving and key not in reported:
            reported.add(key)
            warnings.append(
                f"line {line_no}: symbols on {labels[key[0]]},{labels[key[1]]} "
                "accumulate to zero"
            )
    assert dimension == spec.dimension
    return spec, tuple(warnings)


def _parse_torsion(fields: Dict[str, str], field_lines: Dict[str, int]) -> int:
    if "torsion" not in fields:
        raise ModelFormatError("missing torsion in [model]")
    try:
        torsion = int(fields["torsion"])
    except ValueError:
        raise ModelFormatError("torsion must be an integer",
                               field_lines["torsion"]) from None
    if torsion < 2:
        raise ModelFormatError("torsion must be at least 2",
                               field_lines["torsion"])
    if torsion > MAX_TORSION:
        raise ModelFormatError(f"torsion must be at most {MAX_TORSION}",
                               field_lines["torsion"])
    return torsion


def _parse_labels(fields: Dict[str, str],
                  field_lines: Dict[str, int]) -> Tuple[str, ...]:
    if "labels" not in fields:
        raise ModelFormatError("missing labels in [model]")
    line_no = field_lines["labels"]
    labels = tuple(part.strip() for part in fields["labels"].split(","))
    for label in labels:
        if not LABEL_RE.fullmatch(label):
            raise ModelFormatError(f"bad divisor label {label!r}", line_no)
    if len(set(labels)) != len(labels):
        raise ModelFormatError("duplicate divisor labels", line_no)
    return labels


def _parse_dimension(fields: Dict[str, str], field_lines: Dict[str, int],
                     labels: Tuple[str, ...]) -> int:
    if "dimension" not in fields:
        raise ModelFormatError("missing dimension in [model]")
    try:
        dimension = int(fields["dimension"])
    except ValueError:
        raise ModelFormatError("dimension must be an integer",
                               field_lines["dimension"]) from None
    if dimension > MAX_DIMENSION:
        raise ModelFormatError(f"dimension must be at most {MAX_DIMENSION}",
                               field_lines["dimension"])
    if dimension != len(labels):
        raise ModelFormatError(
            f"dimension {dimension} does not match {len(labels)} labels",
            field_lines["dimension"],
        )
    return dimension


def _label_slot(token: "re.Match[str]", labels: Tuple[str, ...],
                line_no: int) -> int:
    name = token.group()
    try:
        return labels.index(name)
    except ValueError:
        raise ModelFormatError(f"unknown divisor {name!r}", line_no,
                               token.start() + 1) from None


def _int_token(token: "re.Match[str]", line_no: int) -> int:
    try:
        return int(token.group())
    except ValueError:
        raise ModelFormatError(f"expected an integer, got {token.group()!r}",
                               line_no, token.start() + 1) from None


def build_model(spec: ModelSpec) -> Model:
    """Instantiate the root model a spec describes.

    ``Model`` itself rejects a symbol matrix that is not alternating, so a
    spec needs no audit of its own here.
    """
    return Model.affine(
        torsion=spec.torsion,
        labels=spec.labels,
        symbols=spec.symbols,
        extra_degrees=dict(spec.extra_degrees),
    )


def load_model(path: Union[str, Path]) -> LoadResult:
    """Read, parse, and build a model file.

    Raises:
        ModelFormatError: on a file that is not UTF-8 or breaks the format.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(
            f"not UTF-8 at byte offset {exc.start}: {exc.reason}") from None
    spec, warnings = parse_model(text)
    return LoadResult(spec=spec, model=build_model(spec), warnings=warnings)


def format_model(spec: ModelSpec) -> str:
    """Render a spec in the file format; parsing the result round-trips."""
    lines = [
        "[model]",
        f"torsion = {spec.torsion}",
        f"dimension = {spec.dimension}",
        "labels = " + ",".join(spec.labels),
    ]
    if spec.symbols:
        lines.append("")
        lines.append("[symbols]")
        for i, j, m in spec.symbols:
            lines.append(f"{spec.labels[i]} {spec.labels[j]} {m}")
    if spec.extra_degrees:
        lines.append("")
        lines.append("[extra]")
        for label, degree in spec.extra_degrees:
            lines.append(f"{label} {degree}")
    return "\n".join(lines) + "\n"


def save_model(spec: ModelSpec, path: Union[str, Path]) -> None:
    Path(path).write_text(format_model(spec), encoding="utf-8", newline="\n")
