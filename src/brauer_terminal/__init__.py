"""Exact terminality analysis for Brauer pairs on SNC coordinate charts."""

from .discrepancy import (DiscrepancyReport, ReportEntry, WitnessStep,
                          b_from_a, boundary_divisor, brauer_discrepancy,
                          stratum_discrepancies)
from .enumeration import EnumerationResult, enumerate_divisors
from .model import (Chart, CoverDegree, ExtraComponent,
                    IndeterminateDegreeError, Model, residue_order)
from .modelfile import (LoadResult, ModelFormatError, format_model, load_model,
                        parse_model, save_model)
from .resolution import (CompositionCheck, NonterminationError, ResolutionTree,
                         TerminalityCertificate, UnsupportedTorsionError,
                         certify, check_composition, find_bad_strata,
                         level_one_fixup, remark_model, run_remark)

__version__ = "0.1.0"

__all__ = [
    "Chart",
    "CompositionCheck",
    "CoverDegree",
    "DiscrepancyReport",
    "EnumerationResult",
    "ExtraComponent",
    "IndeterminateDegreeError",
    "LoadResult",
    "Model",
    "ModelFormatError",
    "NonterminationError",
    "ReportEntry",
    "ResolutionTree",
    "TerminalityCertificate",
    "UnsupportedTorsionError",
    "WitnessStep",
    "b_from_a",
    "boundary_divisor",
    "brauer_discrepancy",
    "certify",
    "check_composition",
    "enumerate_divisors",
    "find_bad_strata",
    "format_model",
    "level_one_fixup",
    "load_model",
    "parse_model",
    "remark_model",
    "residue_order",
    "run_remark",
    "save_model",
    "stratum_discrepancies",
]
