"""``oracles.py`` stays independent of the engine's blow-up step.

The reference implementations may read the engine's plain data types,
the rule that combines a degree from its parts and the report types, but
nothing that builds a chart or walks one: they import nothing from
``brauer_terminal.enumeration``, nothing from ``brauer_terminal.discrepancy``
but report types, and no engine function that builds children.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")

ALLOWED = {
    "brauer_terminal.model": {"CoverDegree", "_combined_degree"},
    "brauer_terminal.discrepancy": {"DiscrepancyReport", "ReportEntry",
                                    "WitnessStep"},
}
# what the engine's charts and walks call to build or read children
ENGINE_STEP = {"children", "walk", "step", "slots", "pairing", "_RowWalk",
               "Chart", "level_one_fixup", "check_composition",
               "enumerate_divisors"}


def imports(tree):
    """(module, name) of every import in the tree; a plain ``import``
    counts as taking the whole module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield "." * node.level + (node.module or ""), alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, "*"


def test_oracles_import_no_engine_step():
    tree = ast.parse(ORACLES.read_text())
    engine = [(module, name) for module, name in imports(tree)
              if module.startswith(("brauer_terminal", "."))]
    assert engine, "the oracles read at least the engine's data types"
    for module, name in engine:
        assert name in ALLOWED.get(module, ()), (module, name)
    touched = {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)}
    touched |= {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
    assert not touched & ENGINE_STEP, touched & ENGINE_STEP
