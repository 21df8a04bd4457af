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


# ``core._trusted`` builds a Belief or LikelihoodFn without the public checks.
# Only these functions may use it: each builds its integers itself, so they
# are valid by construction, and none takes outside input.
TRUSTED_USERS = {
    ("verifier.py", "_draw_likelihood"),
    ("verifier.py", "_exhaustive_likelihoods"),
    ("verifier.py", "_exhaustive_priors"),
    ("verifier.py", "_random_belief"),
    ("verifier.py", "_random_strong_pair"),
}


def _uses(path, name):
    """``(module, innermost enclosing def)`` for every mention of ``name``
    in a module: a name, an attribute, a string, or an import."""
    found = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            mentioned = (
                (isinstance(child, ast.Name) and child.id == name)
                or (isinstance(child, ast.Attribute) and child.attr == name)
                or (isinstance(child, ast.Constant) and child.value == name)
                or (isinstance(child, ast.alias) and name in (child.name, child.asname))
            )
            if mentioned:
                found.add((path.name, scope))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name
            walk(child, inner)

    walk(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_the_private_constructor_is_used_only_by_the_samplers():
    uses = set().union(*(_uses(path, "_trusted") for path in SOURCES))
    # the one import, into the module of the listed functions
    assert uses == TRUSTED_USERS | {("verifier.py", "<module>")}
