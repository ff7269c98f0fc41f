"""Model file parsing, validation, and round-tripping."""

from pathlib import Path

import pytest

from brauer_terminal.modelfile import (MAX_DIMENSION, MAX_EXTRA_DEGREE,
                                       MAX_TORSION, ModelFormatError,
                                       ModelSpec, build_model, format_model,
                                       load_model, parse_model, save_model)

MODELS = Path(__file__).resolve().parents[1] / "models"

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
        spec, warnings = parse_model(GOOD)
        assert spec.torsion == 2
        assert spec.labels == ("x1", "x2", "x3")
        assert spec.symbols == ((0, 2, 1), (1, 2, 1))
        assert spec.extra_degrees == ()
        assert warnings == ()

    def test_extra_section(self):
        spec, _ = parse_model(GOOD + "\n[extra]\nx3 3\n")
        assert spec.extra_degrees == (("x3", 3),)

    def test_symbols_canonicalized(self):
        text = GOOD + "x3 x1 1\n"
        spec, warnings = parse_model(text)
        # x1 x3 1 and x3 x1 1 cancel
        assert spec.symbols == ((1, 2, 1),)
        assert any("accumulate to zero" in w for w in warnings)

    def test_multiple_of_torsion_warned(self):
        spec, warnings = parse_model(GOOD + "x1 x2 2\n")
        assert (0, 1, 0) not in spec.symbols
        assert any("multiple of the torsion" in w for w in warnings)

    def test_self_symbol_warned_and_dropped(self):
        spec, warnings = parse_model(GOOD + "x1 x1 1\n")
        assert spec.symbols == ((0, 2, 1), (1, 2, 1))
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
        spec, _ = parse_model(_model_text(extra=MAX_EXTRA_DEGREE))
        assert spec.extra_degrees == (("x1", MAX_EXTRA_DEGREE),)
        with pytest.raises(ModelFormatError) as err:
            parse_model(_model_text(extra=MAX_EXTRA_DEGREE + 1))
        assert (err.value.line, err.value.column) == (6, 4)
        assert f"at most {MAX_EXTRA_DEGREE}" in str(err.value)

    def test_dimension_cap(self):
        assert parse_model(_model_text(dimension=MAX_DIMENSION))[0].dimension \
            == MAX_DIMENSION
        with pytest.raises(ModelFormatError) as err:
            parse_model(_model_text(dimension=MAX_DIMENSION + 1))
        assert err.value.line == 3
        assert f"at most {MAX_DIMENSION}" in str(err.value)


class TestRoundTrip:
    @pytest.mark.parametrize("spec", [
        ModelSpec.create(2, ("x1", "x2", "x3"), [(0, 2, 1), (1, 2, 1)]),
        ModelSpec.create(3, ("x1", "x2", "x3"), [(0, 1, 1)], [("x3", 3)]),
        ModelSpec.create(5, ("a", "b")),
        ModelSpec.create(4, ("p", "q", "r", "s"), [(2, 0, 3), (1, 3, 2)],
                         [("p", 2), ("s", 1)]),
    ])
    def test_parse_format_identity(self, spec):
        parsed, warnings = parse_model(format_model(spec))
        assert parsed == spec
        assert warnings == ()

    def test_create_canonicalizes(self):
        spec = ModelSpec.create(3, ("a", "b"), [(1, 0, 1), (0, 1, 2)])
        # (b,a,1) is (a,b,-1); with (a,b,2) the total is (a,b,1)
        assert spec.symbols == ((0, 1, 1),)

    @pytest.mark.parametrize("symbols,extras", [
        ([(-1, 0, 1)], ()),
        ([(0, 5, 1)], ()),
        ([(3, 3, 1)], ()),
        ([(0, 1, 1)], [("x9", 2)]),
        ([], [("x9", 1)]),
        ([], [("x1", 3), ("x1", 2)]),
        ([], [("x1", 0)]),
    ], ids=["negative-slot", "slot-past-end", "self-pair-past-end",
            "unknown-extra", "unknown-extra-degree-1", "extra-twice",
            "extra-degree-0"])
    def test_create_rejects_what_names_no_slot(self, symbols, extras):
        # a negative slot used to index from the end, and one past the end
        # made format_model raise IndexError; two extras on one label
        # formatted to text that parse_model rejects, and a degree below 1
        # was dropped where Model.affine raises
        with pytest.raises(ValueError):
            ModelSpec.create(2, ("x1", "x2", "x3"), symbols, extras)

    def test_lf_newlines(self):
        spec = ModelSpec.create(2, ("a", "b"), [(0, 1, 1)])
        text = format_model(spec)
        assert "\r" not in text
        assert text.endswith("\n")


class TestBuildAndLoad:
    def test_build(self):
        spec = ModelSpec.create(2, ("x1", "x2", "x3"),
                                [(0, 2, 1), (1, 2, 1)])
        model = build_model(spec)
        assert model.torsion == 2
        assert model.matrix.entries[0][2] == 1
        assert model.matrix.entries[2][0] == 1

    def test_load_fixture(self):
        result = load_model(MODELS / "bad-case.model")
        assert result.spec.torsion == 2
        assert result.model.dim == 3
        assert result.warnings == ()

    def test_load_remark_fixture(self):
        result = load_model(MODELS / "remark.model")
        assert result.spec.extra_degrees == (("x3", 3),)
        assert result.model.extras[0].degree == 3

    @pytest.mark.parametrize("name", sorted(p.name for p in
                                            MODELS.glob("*.model")))
    def test_byte_order_mark_ignored(self, tmp_path, name):
        original = load_model(MODELS / name)
        marked = tmp_path / name
        marked.write_bytes(b"\xef\xbb\xbf" + (MODELS / name).read_bytes())
        result = load_model(marked)
        assert result.spec == original.spec
        assert result.warnings == original.warnings

    def test_save_round_trip(self, tmp_path):
        spec = ModelSpec.create(3, ("u", "v", "w"), [(0, 1, 2)], [("w", 3)])
        target = tmp_path / "case.model"
        save_model(spec, target)
        result = load_model(target)
        assert result.spec == spec
