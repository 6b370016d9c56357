"""No unused imports in the package, the tests or the demos, and no upward import in the
package (stdlib ast only).

A name counts as used when the module reads it anywhere (a bare name, or
the head of an attribute chain) or lists it in ``__all__``.  An import line
that ends in ``# noqa: F401`` keeps only the names that a
``# <name> stays importable`` comment in the same file names, so the
exemption cannot hide a dead import beside the one it is for.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src", "tests", "demos")
               for path in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of every import binding the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    kept = set(re.findall(r"^# (\w+) stays importable", source, re.M))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if alias.name != "*" and not (
                        name in kept and "noqa: F401" in lines[alias.lineno - 1]):
                    bound.setdefault(name, alias.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {item.value for item in node.value.elts}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_finds_an_unused_import():
    # the noqa line keeps pi, which a stays-importable comment names, and not tau
    source = ("from __future__ import annotations\nimport os, sys\n"
              "# pi stays importable: a wrapper patches it at this name\n"
              "from math import pi, tau  # noqa: F401\nimport numpy as np\nprint(sys.argv)\n")
    assert unused_imports(source) == [(2, "os"), (4, "tau"), (5, "np")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# each module of the package imports only modules listed before it
LAYERS = ("errors", "spaceform", "symfun", "surface", "quadrature", "constants", "identities",
          "pinch", "config", "cli")


@pytest.mark.parametrize("module", LAYERS)
def test_package_imports_only_earlier_modules(module):
    tree = ast.parse((ROOT / "src" / "starpinch" / f"{module}.py").read_text())
    imported = {name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
                for name in ([node.module] if node.module else [a.name for a in node.names])}
    assert imported <= set(LAYERS[:LAYERS.index(module)])


def test_layers_list_every_module():
    assert {path.stem for path in (ROOT / "src" / "starpinch").glob("*.py")} == {
        "__init__", *LAYERS}
