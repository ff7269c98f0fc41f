"""The package's public names.

Core claims:
    - ``brauer_terminal.__all__`` lists a fixed set of names, and each
      resolves on the package
    - ``find_bad_strata`` returns sorted slot pairs
    - the codimension-2 strata, lexicographic, lead the public order of
      ``stratum_discrepancies``
"""

from itertools import combinations
from math import comb

import pytest

import brauer_terminal
from brauer_terminal import Model, find_bad_strata, stratum_discrepancies

PUBLIC = [
    "Chart", "CompositionCheck", "CoverDegree", "DiscrepancyReport",
    "EnumerationResult", "ExtraComponent", "IndeterminateDegreeError",
    "LoadResult", "Model", "ModelFormatError", "NonterminationError",
    "ReportEntry", "ResolutionTree", "TerminalityCertificate",
    "UnsupportedTorsionError", "WitnessStep",
    "b_from_a", "boundary_divisor", "brauer_discrepancy",
    "certify", "check_composition", "enumerate_divisors",
    "find_bad_strata", "format_model", "level_one_fixup", "load_model",
    "parse_model", "remark_model", "residue_order", "run_remark",
    "save_model", "stratum_discrepancies",
]


def test_exports_are_pinned_and_resolve():
    assert sorted(brauer_terminal.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(brauer_terminal, name) is not None


def test_bad_strata_are_slot_pairs():
    model = Model.affine(2, ("x1", "x2", "x3", "x4"),
                         [(0, 3, 1), (1, 3, 1), (2, 3, 1)])
    assert find_bad_strata(model) == ((0, 1), (0, 2), (1, 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_codim_two_strata_lead_the_center_order(n):
    model = Model.affine(2, [f"x{k + 1}" for k in range(n)])
    witnesses = [report.witness[0].indices
                 for report in stratum_discrepancies(model)]
    assert witnesses[:comb(n, 2)] == list(combinations(range(n), 2))
    assert all(len(w) > 2 for w in witnesses[comb(n, 2):])
