"""No unused imports in the package, the tests or the demos (stdlib ast only).

A name counts as used when the module reads it anywhere (a bare name, or
the head of an attribute chain) or lists it in ``__all__``.  An import line
that ends in ``# noqa: F401`` keeps its names, as flake8 reads it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src", "tests", "demos")
               for path in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of every import binding the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and "noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    bound.setdefault(name, alias.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {item.value for item in node.value.elts}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os, sys\n"
              "from math import pi, tau  # noqa: F401\nimport numpy as np\nprint(sys.argv)\n")
    assert unused_imports(source) == [(2, "os"), (4, "np")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
