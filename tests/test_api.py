"""The package's public names.

Core claims:
    - ``brauer_terminal.__all__`` lists a fixed set of names, and each
      resolves on the package
    - ``find_bad_strata`` returns the exported ``Stratum``
    - ``strata(chart, 2)`` is the start of the engine order of centers
"""

from math import comb

import pytest

import brauer_terminal
from brauer_terminal import Model, Stratum, find_bad_strata, strata
from brauer_terminal.model import _centers

PUBLIC = [
    "BoundaryDivisor", "Chart", "ComplexCheck", "CompositionCheck",
    "CoverDegree", "DiscrepancyReport", "EnumerationResult",
    "ExtraComponent", "FixupResult", "IndeterminateDegreeError",
    "KummerClass", "LoadResult", "Model", "ModelFormatError", "ModelSpec",
    "NonterminationError", "RemarkReport", "ReportEntry", "ResolutionTree",
    "Stratum", "SymbolMatrix", "TerminalityCertificate",
    "UnsupportedTorsionError", "WitnessStep", "b_from_a", "boundary_divisor",
    "brauer_discrepancy", "build_model", "certify", "check_complex",
    "check_composition", "enumerate_divisors", "find_bad_strata",
    "format_model", "level_one_fixup", "load_model", "parse_model",
    "ramifies_on", "remark_model", "residue", "residue_order", "run_remark",
    "save_model", "strata", "stratum_discrepancies", "weighted_infimum",
]


def test_exports_are_pinned_and_resolve():
    assert sorted(brauer_terminal.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(brauer_terminal, name) is not None


def test_bad_strata_are_exported_strata():
    model = Model.affine(2, ("x1", "x2", "x3"), [(0, 2, 1), (1, 2, 1)])
    found = find_bad_strata(model)
    assert found
    assert all(isinstance(s, Stratum) for s in found)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_codim_two_strata_lead_the_center_order(n):
    chart = Model.affine(2, [f"x{k + 1}" for k in range(n)]).chart
    assert [s.indices for s in strata(chart, 2)] == _centers(n)[:comb(n, 2)]
