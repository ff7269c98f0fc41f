"""Plain-text model files: parse into a ``Model``, validate, write back.

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
from pathlib import Path
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .model import LABEL_RE, Model

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


class LoadResult(NamedTuple):
    """A parsed model and the parser's warnings, in file order."""

    model: Model
    warnings: Tuple[str, ...]


def _strip_comment(raw: str) -> str:
    cut = raw.find("#")
    return raw if cut < 0 else raw[:cut]


def parse_model(text: str) -> LoadResult:
    """Parse model-file text into a root model plus warnings.

    A leading byte-order mark is ignored. The checks here leave ``Model``
    nothing to reject. Every error carries its line, and its column where
    one token is at fault, except a missing key of ``[model]``.

    Raises:
        ModelFormatError: on structural problems.
    """
    section: Optional[str] = None
    fields: Dict[str, str] = {}
    field_lines: Dict[str, int] = {}
    raw_symbols: List[Tuple[int, int, int, int]] = []
    extra_degrees: Dict[str, int] = {}
    labels: Tuple[str, ...] = ()
    torsion: Optional[int] = None  # read at the first symbol line
    warnings: List[str] = []

    lines = text.removeprefix("\ufeff").splitlines()
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
            if torsion is None:
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
            if label in extra_degrees:
                raise ModelFormatError(
                    f"extra cover on {label!r} declared twice", line_no,
                    tokens[0].start() + 1,
                )
            extra_degrees[label] = degree

    if torsion is None:
        torsion = _parse_torsion(fields, field_lines)
    dimension = _parse_dimension(fields, field_lines)
    if not labels:
        labels = _parse_labels(fields, field_lines)
    if dimension != len(labels):
        raise ModelFormatError(
            f"dimension {dimension} does not match {len(labels)} labels",
            field_lines["dimension"])
    model = Model.affine(torsion, labels,
                         [(i, j, m) for i, j, m, _ in raw_symbols],
                         extra_degrees)
    entries = model.matrix
    reported = set()
    for i, j, m, line_no in raw_symbols:
        i, j = min(i, j), max(i, j)
        if m % torsion != 0 and not entries[i][j] and (i, j) not in reported:
            reported.add((i, j))
            warnings.append(
                f"line {line_no}: symbols on {labels[i]},{labels[j]} "
                "accumulate to zero"
            )
    return LoadResult(model, tuple(warnings))


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
    # before any symbol is read: each one looks its labels up by a scan
    if len(labels) > MAX_DIMENSION:
        raise ModelFormatError(
            f"at most {MAX_DIMENSION} divisor labels, got {len(labels)}",
            line_no)
    for label in labels:
        if not LABEL_RE.fullmatch(label):
            raise ModelFormatError(f"bad divisor label {label!r}", line_no)
    if len(set(labels)) != len(labels):
        raise ModelFormatError("duplicate divisor labels", line_no)
    return labels


def _parse_dimension(fields: Dict[str, str],
                     field_lines: Dict[str, int]) -> int:
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


def load_model(path: Union[str, Path]) -> LoadResult:
    """Read and parse a model file.

    Raises:
        ModelFormatError: on a file that is not UTF-8 or breaks the format.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(
            f"not UTF-8 at byte offset {exc.start}: {exc.reason}") from None
    return parse_model(text)


def format_model(model: Model) -> str:
    """Render a model in the file format: the nonzero symbols of the upper
    triangle row by row, then the extra covers sorted by label. Parsing the
    result and formatting it again gives the same text."""
    labels = model.labels
    lines = [
        "[model]",
        f"torsion = {model.torsion}",
        f"dimension = {model.dim}",
        "labels = " + ",".join(labels),
    ]
    symbols = [f"{labels[i]} {labels[j]} {m}"
               for i, row in enumerate(model.matrix)
               for j, m in enumerate(row[i + 1:], i + 1) if m]
    if symbols:
        lines += ["", "[symbols]", *symbols]
    if model.extras:
        lines += ["", "[extra]"]
        lines += [f"{comp.origin_id} {comp.degree}" for comp in
                  sorted(model.extras, key=attrgetter("origin_id"))]
    return "\n".join(lines) + "\n"


def save_model(model: Model, path: Union[str, Path]) -> None:
    Path(path).write_text(format_model(model), encoding="utf-8", newline="\n")
