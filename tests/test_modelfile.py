"""Model file parsing, validation, and round-tripping."""

import hashlib
import random
import re
from pathlib import Path

import pytest

from brauer_terminal import modelfile
from brauer_terminal.model import ExtraComponent, Model
from brauer_terminal.modelfile import (MAX_DIMENSION, MAX_EXTRA_DEGREE,
                                       MAX_TORSION, LoadResult,
                                       ModelFormatError,
                                       format_model, load_model, parse_model,
                                       save_model)

MODELS = Path(__file__).resolve().parents[1] / "models"


def upper_triangle(matrix):
    """The nonzero entries above the diagonal, as (i, j, m) row by row."""
    return tuple((i, j, m) for i, row in enumerate(matrix)
                 for j, m in enumerate(row[i + 1:], i + 1) if m)


def extras_of(model):
    return tuple((c.origin_id, c.degree) for c in model.extras)

GOOD = """\
# comment line
[model]
torsion = 2
dimension = 3
labels = x1,x2,x3  # trailing comment

[symbols]
x1 x3 1
x2 x3 1
"""


class TestParse:
    def test_basic(self):
        model, warnings = parse_model(GOOD)
        assert model.torsion == 2
        assert model.labels == ("x1", "x2", "x3")
        assert upper_triangle(model.matrix) == ((0, 2, 1), (1, 2, 1))
        assert model.extras == ()
        assert warnings == ()

    def test_extra_section(self):
        model, _ = parse_model(GOOD + "\n[extra]\nx3 3\n")
        assert extras_of(model) == (("x3", 3),)

    def test_symbols_canonicalized(self):
        text = GOOD + "x3 x1 1\n"
        model, warnings = parse_model(text)
        # x1 x3 1 and x3 x1 1 cancel
        assert upper_triangle(model.matrix) == ((1, 2, 1),)
        assert any("accumulate to zero" in w for w in warnings)

    def test_multiple_of_torsion_warned(self):
        model, warnings = parse_model(GOOD + "x1 x2 2\n")
        assert model.matrix[0][1] == 0
        assert any("multiple of the torsion" in w for w in warnings)

    @pytest.mark.parametrize("text", [
        GOOD + "x1 x2 1\n" * 40,
        "[model]\ntorsion = 2\ndimension = 3\nlabels = x1,x2,x3\n",
    ], ids=["42-symbols", "no-symbols"])
    def test_torsion_read_once(self, monkeypatch, text):
        # at the first symbol line, not once per symbol line
        seen = []
        read = modelfile._int_key

        def counted(*args):
            seen.append(args)
            return read(*args)

        monkeypatch.setattr(modelfile, "_int_key", counted)
        model, _ = parse_model(text)
        assert model.torsion == 2
        assert [args[2] for args in seen].count("torsion") == 1

    def test_self_symbol_warned_and_dropped(self):
        model, warnings = parse_model(GOOD + "x1 x1 1\n")
        assert upper_triangle(model.matrix) == ((0, 2, 1), (1, 2, 1))
        assert any("itself" in w for w in warnings)


class TestParseErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("x = 1\n", "before any section"),
        ("[nope]\n", "unknown section"),
        ("[symbols]\n", "before the [model] labels"),
        ("[model]\ntorsion = 2\nlabels = a,b\nwat = 7\n", "unknown key"),
        ("[model]\ntorsion = 2\ntorsion = 2\nlabels = a,b\n", "duplicate key"),
        ("[model]\ntorsion = x\nlabels = a,b\ndimension = 2\n[symbols]\na b 1\n",
         "must be an integer"),
        ("[model]\ntorsion = 1\nlabels = a,b\ndimension = 2\n[symbols]\na b 1\n",
         "at least 2"),
        ("[model]\ntorsion = 2\ndimension = 3\nlabels = a,b\n", "does not match"),
        ("[model]\ntorsion = 2\ndimension = 2\nlabels = a,a\n", "duplicate divisor"),
        ("[model]\ntorsion = 2\ndimension = 2\nlabels = a,2b\n", "bad divisor label"),
        ("[model]\ntorsion = 2\ndimension = 2\nlabels = a,b\n[symbols]\na c 1\n",
         "unknown divisor"),
        ("[model]\ntorsion = 2\ndimension = 2\nlabels = a,b\n[symbols]\na b\n",
         "expected NAME NAME INT"),
        ("[model]\ntorsion = 2\ndimension = 2\nlabels = a,b\n[extra]\na 0\n",
         "must be positive"),
        ("[model]\ntorsion = 2\ndimension = 2\nlabels = a,b\n[extra]\na 2\na 3\n",
         "declared twice"),
        ("[model]\ntorsion = 2\nlabels = a,b\n", "missing dimension"),
        ("[model]\ndimension = 2\nlabels = a,b\n[symbols]\na b 1\n",
         "missing torsion"),
        ("[model]\ntorsion = 2\ndimension = 2\n", "missing labels in [model]"),
    ])
    def test_messages(self, text, fragment):
        with pytest.raises(ModelFormatError) as err:
            parse_model(text)
        assert fragment in str(err.value), f"got: {err.value}"

    def test_position_reported(self):
        text = ("[model]\ntorsion = 2\ndimension = 2\nlabels = a,b\n"
                "[symbols]\na  zz 1\n")
        with pytest.raises(ModelFormatError) as err:
            parse_model(text)
        assert err.value.line == 6
        assert err.value.column == 4


def _model_text(torsion=2, dimension=3, extra=None):
    labels = ",".join(f"x{k + 1}" for k in range(dimension))
    text = (f"[model]\ntorsion = {torsion}\ndimension = {dimension}\n"
            f"labels = {labels}\n")
    return text if extra is None else text + f"[extra]\nx1 {extra}\n"


class TestCaps:
    def test_torsion_cap(self):
        assert parse_model(_model_text(torsion=MAX_TORSION))[0].torsion \
            == MAX_TORSION
        with pytest.raises(ModelFormatError) as err:
            parse_model(_model_text(torsion=MAX_TORSION + 1))
        assert err.value.line == 2
        assert f"at most {MAX_TORSION}" in str(err.value)

    def test_extra_degree_cap(self):
        model, _ = parse_model(_model_text(extra=MAX_EXTRA_DEGREE))
        assert extras_of(model) == (("x1", MAX_EXTRA_DEGREE),)
        with pytest.raises(ModelFormatError) as err:
            parse_model(_model_text(extra=MAX_EXTRA_DEGREE + 1))
        assert (err.value.line, err.value.column) == (6, 4)
        assert f"at most {MAX_EXTRA_DEGREE}" in str(err.value)

    def test_dimension_cap(self):
        assert parse_model(_model_text(dimension=MAX_DIMENSION))[0].dim \
            == MAX_DIMENSION
        with pytest.raises(ModelFormatError) as err:
            parse_model(_model_text(dimension=MAX_DIMENSION + 1))
        assert err.value.line == 3
        assert f"at most {MAX_DIMENSION}" in str(err.value)

    def test_label_count_capped_at_the_labels_line(self):
        # the dimension line (3) and the labels line (4) differ: the error
        # names the labels line, so it came before any symbol was read
        labels = [f"x{k + 1}" for k in range(2000)]
        text = ("[model]\ntorsion = 2\ndimension = 2\n"
                f"labels = {','.join(labels)}\n[symbols]\n"
                + "x1 x2000 1\n" * 2000)
        with pytest.raises(ModelFormatError) as err:
            parse_model(text)
        assert err.value.line == 4
        assert str(err.value) == (
            f"line 4: at most {MAX_DIMENSION} divisor labels, got 2000")


class TestRoundTrip:
    # Model compares by identity, so models are compared by their text
    @pytest.mark.parametrize("spec", [
        (2, ("x1", "x2", "x3"), [(0, 2, 1), (1, 2, 1)]),
        (3, ("x1", "x2", "x3"), [(0, 1, 1)], {"x3": 3}),
        (5, ("a", "b")),
        (4, ("p", "q", "r", "s"), [(2, 0, 3), (1, 3, 2)], {"p": 2, "s": 1}),
    ])
    def test_parse_format_identity(self, spec):
        text = format_model(Model.affine(*spec))
        parsed, warnings = parse_model(text)
        assert format_model(parsed) == text
        assert warnings == ()

    def test_create_canonicalizes(self):
        model = Model.affine(3, ("a", "b"), [(1, 0, 1), (0, 1, 2)])
        # (b,a,1) is (a,b,-1); with (a,b,2) the total is (a,b,1)
        assert upper_triangle(model.matrix) == ((0, 1, 1),)

    @pytest.mark.parametrize("symbols,extras", [
        ([(-1, 0, 1)], {}),
        ([(0, 5, 1)], {}),
        ([(3, 3, 1)], {}),
        ([(0, 1, 1)], {"x9": 2}),
        ([], {"x9": 1}),
        ([], None),
        ([], {"x1": 0}),
    ], ids=["negative-slot", "slot-past-end", "self-pair-past-end",
            "unknown-extra", "unknown-extra-degree-1", "extra-twice",
            "extra-degree-0"])
    def test_create_rejects_what_names_no_slot(self, symbols, extras):
        # a negative slot used to index from the end, and one past the end
        # made format_model raise IndexError; two extras on one label
        # format to text that parse_model rejects, and a degree below 1
        # must raise, not drop. A mapping cannot hold two extras on one
        # label, so that case builds the model from its parts.
        labels = ("x1", "x2", "x3")
        with pytest.raises(ValueError):
            if extras is None:
                Model(labels, 2, ((0,) * 3,) * 3,
                      (ExtraComponent("x1", 3), ExtraComponent("x1", 2)))
            else:
                Model.affine(2, labels, symbols, extras)

    def test_lf_newlines(self):
        model = Model.affine(2, ("a", "b"), [(0, 1, 1)])
        text = format_model(model)
        assert "\r" not in text
        assert text.endswith("\n")


class TestBuildAndLoad:
    def test_build(self):
        model, _ = parse_model(GOOD)
        assert model.torsion == 2
        assert model.matrix[0][2] == 1
        assert model.matrix[2][0] == 1

    def test_parse_and_load_share_one_shape(self, tmp_path):
        path = tmp_path / "good.model"
        path.write_text(GOOD, encoding="utf-8")
        parsed, loaded = parse_model(GOOD), load_model(path)
        assert type(parsed) is type(loaded) is LoadResult
        model, warnings = loaded
        assert format_model(model) == format_model(parsed.model)
        assert warnings == parsed.warnings == ()

    def test_load_fixture(self):
        result = load_model(MODELS / "bad-case.model")
        assert result.model.torsion == 2
        assert result.model.dim == 3
        assert result.warnings == ()

    def test_load_remark_fixture(self):
        result = load_model(MODELS / "remark.model")
        assert extras_of(result.model) == (("x3", 3),)

    @pytest.mark.parametrize("name", sorted(p.name for p in
                                            MODELS.glob("*.model")))
    def test_byte_order_mark_ignored(self, tmp_path, name):
        original = load_model(MODELS / name)
        marked = tmp_path / name
        marked.write_bytes(b"\xef\xbb\xbf" + (MODELS / name).read_bytes())
        result = load_model(marked)
        assert format_model(result.model) == format_model(original.model)
        assert result.warnings == original.warnings

    def test_save_round_trip(self, tmp_path):
        model = Model.affine(3, ("u", "v", "w"), [(0, 1, 2)], {"w": 3})
        target = tmp_path / "case.model"
        save_model(model, target)
        result = load_model(target)
        assert format_model(result.model) == format_model(model)
        assert target.read_text(encoding="utf-8") == format_model(model)


def format_sweep(count=1200, seed=2111):
    """Seeded ``Model.affine`` arguments: torsions 2-12, dimensions 1-5,
    labels drawn in random order from a mixed-case pool, reversed pairs,
    negative exponents and multiples of the torsion, extras of degree 1-6
    listed in random order."""
    rng = random.Random(seed)
    pool = ("x1", "x2", "y", "b", "a", "Z", "z_2", "_c", "q9", "B")
    for _ in range(count):
        r = rng.randint(2, 12)
        dim = rng.randint(1, 5)
        labels = tuple(rng.sample(pool, dim))
        symbols = [(*rng.sample(range(dim), 2), rng.randint(-2 * r, 2 * r))
                   for _ in range(rng.randint(0, 6) if dim > 1 else 0)]
        extras = [(labels[s], rng.randint(1, 6))
                  for s in rng.sample(range(dim), rng.randint(0, dim))]
        yield r, labels, symbols, extras


class TestFormatPinned:
    def test_sweep_digest_pinned(self):
        # pinned when the writer took a canonical spec, not a Model: a
        # round trip alone cannot show that the text did not move
        digest = hashlib.sha256()
        for r, labels, symbols, extras in format_sweep():
            digest.update(format_model(
                Model.affine(r, labels, symbols, dict(extras))).encode())
        assert digest.hexdigest() == (
            "88e1e3ee0da3dbb0461e8d3717255cd6b266830be2821ef18fbed0a43186ddb5")


_FUZZ_TOKENS = ("[", "]", "[model]", "[symbols]", "[extra]", "=", ",", "#",
                "x1", "x9", "x1,x1", "a,,b", "torsion", "dimension", "labels",
                "0", "1", "-1", "2", "13", "-7", "99999999999999999999",
                "1.5", "\n", "\ufeff", "\xe9")


def corrupt(text, rng):
    """``text`` with one to three token edits: delete, insert, swap or
    replace, each new token drawn from the text itself or, as often, from
    a fixed pool."""
    parts = re.split(r"(\s+)", text)
    for _ in range(rng.randint(1, 3)):
        words = [k for k, part in enumerate(parts) if part.strip()]
        pick = rng.choice(words)
        token = rng.choice(_FUZZ_TOKENS if rng.randrange(2)
                           else [parts[k] for k in words])
        op = rng.randrange(4)
        if op == 0:
            parts[pick] = ""
        elif op == 1:
            parts[pick:pick] = [token, rng.choice((" ", "\n"))]
        elif op == 2:
            other = rng.choice(words)
            parts[pick], parts[other] = parts[other], parts[pick]
        else:
            parts[pick] = token
    return "".join(parts)


class TestRobustness:
    def test_corrupted_files_raise_only_format_errors(self):
        # the parser calls Model.affine directly, so its own checks must
        # leave Model nothing to reject: any other exception fails here
        texts = [p.read_text(encoding="utf-8")
                 for p in sorted(MODELS.glob("*.model"))]
        rng = random.Random(2113)
        parsed = rejected = 0
        for _ in range(5000):
            text = corrupt(rng.choice(texts), rng)
            try:
                model, _ = parse_model(text)
            except ModelFormatError:
                rejected += 1
                continue
            parsed += 1
            assert format_model(parse_model(format_model(model))[0]) \
                == format_model(model), text
        # both outcomes are common, so the sweep reaches Model.affine
        assert parsed >= 500 and rejected >= 500, (parsed, rejected)
