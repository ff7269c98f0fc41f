"""README.md stays true to the package.

Core claims:
    - every fenced ``python`` block of the README runs
    - the module map names exactly the package's modules
"""

import re
from pathlib import Path

import pytest

import brauer_terminal

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


@pytest.mark.parametrize("block", re.findall(r"^```python\n(.*?)^```",
                                             README, re.M | re.S))
def test_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})


def test_module_map_names_every_module():
    lines = README.split("\nModule map:\n", 1)[1].splitlines()
    mapped = set()
    for line in lines:
        if line and not line.startswith(("-", " ")):
            break
        mapped.update(re.findall(r"^- `(\w+)`", line))
    modules = {p.stem for p in Path(brauer_terminal.__file__).parent.glob(
        "*.py")} - {"__init__"}
    assert mapped == modules
