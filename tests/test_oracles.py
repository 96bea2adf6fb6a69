"""The reference computations in oracles.py stay independent of the
library they check: agreement with code that imports the library under
test would be a tautology."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def imported_modules(source: str) -> list[str]:
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return modules


def test_oracles_import_nothing_from_edgeswarm():
    modules = imported_modules(ORACLES.read_text(encoding="utf-8"))
    assert modules, "found no imports at all; is this still the oracles module?"
    assert [m for m in modules if m.split(".")[0] == "edgeswarm"] == []
