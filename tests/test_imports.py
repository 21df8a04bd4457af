"""The package runs on the standard library alone."""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "bayespol").glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "construct.py", "orders.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_absolute_import_is_in_the_standard_library(path):
    outside = sorted(
        name for name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    )
    assert outside == [], f"{path.name} imports beyond the standard library"
