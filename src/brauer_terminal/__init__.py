"""Exact terminality analysis for Brauer pairs on SNC coordinate charts."""

from .charts import Stratum, strata
from .discrepancy import (BoundaryDivisor, DiscrepancyReport, ReportEntry,
                          WitnessStep, b_from_a, boundary_divisor,
                          brauer_discrepancy, stratum_discrepancies,
                          weighted_infimum)
from .enumeration import EnumerationResult, enumerate_divisors
from .model import (Chart, CoverDegree, ExtraComponent,
                    IndeterminateDegreeError, Model)
from .modelfile import (LoadResult, ModelFormatError, ModelSpec, build_model,
                        format_model, load_model, parse_model, save_model)
from .resolution import (CompositionCheck, FixupResult, NonterminationError,
                         RemarkReport, ResolutionTree, TerminalityCertificate,
                         UnsupportedTorsionError, certify, check_composition,
                         find_bad_strata, level_one_fixup, remark_model,
                         run_remark)
from .symbols import (ComplexCheck, KummerClass, SymbolMatrix, check_complex,
                      ramifies_on, residue, residue_order)

__version__ = "0.1.0"

__all__ = [
    "BoundaryDivisor",
    "Chart",
    "ComplexCheck",
    "CompositionCheck",
    "CoverDegree",
    "DiscrepancyReport",
    "EnumerationResult",
    "ExtraComponent",
    "FixupResult",
    "IndeterminateDegreeError",
    "KummerClass",
    "LoadResult",
    "Model",
    "ModelFormatError",
    "ModelSpec",
    "NonterminationError",
    "RemarkReport",
    "ReportEntry",
    "ResolutionTree",
    "Stratum",
    "SymbolMatrix",
    "TerminalityCertificate",
    "UnsupportedTorsionError",
    "WitnessStep",
    "b_from_a",
    "boundary_divisor",
    "brauer_discrepancy",
    "build_model",
    "certify",
    "check_complex",
    "check_composition",
    "enumerate_divisors",
    "find_bad_strata",
    "format_model",
    "level_one_fixup",
    "load_model",
    "parse_model",
    "ramifies_on",
    "remark_model",
    "residue",
    "residue_order",
    "run_remark",
    "save_model",
    "strata",
    "stratum_discrepancies",
    "weighted_infimum",
]
