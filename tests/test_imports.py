"""No unused imports in the package, the tests or the demos, no upward import in the
package and no public name of the package that only tests read (stdlib ast only).

A name counts as used when the module reads it anywhere (a bare name, or
the head of an attribute chain) or lists it in ``__all__``.  No comment
exempts an import.
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
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if alias.name != "*":
                    bound.setdefault(name, alias.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {item.value for item in node.value.elts}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_finds_an_unused_import():
    # a noqa comment or a stays-importable comment keeps no import
    source = ("from __future__ import annotations\nimport os, sys\n"
              "# pi stays importable: a wrapper patches it at this name\n"
              "from math import pi, tau  # noqa: F401\nimport numpy as np\nprint(sys.argv)\n")
    assert unused_imports(source) == [(2, "os"), (4, "pi"), (4, "tau"), (5, "np")]


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


# public names that no pipeline path reads yet, each with the ROADMAP item that retires it
UNREAD_ALLOWED = {"lemma1_gap": "ROADMAP item 5", "tau_l2_epsilon_bound": "ROADMAP item 5"}


def public_names(tree) -> list:
    """The top-level defs, classes and assigned names of a module without a leading _."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def unread_public_names(package: dict, bench: str) -> list:
    """(module, name) of each public name of the package's modules (stem -> source) that no
    module reads, as a loaded name, an attribute or an imported name, and no word of the
    bench source names (the tracer looks its sites up by string)."""
    trees = {stem: ast.parse(source) for stem, source in package.items()}
    read = set(re.findall(r"\w+", bench))
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return sorted((stem, name) for stem, tree in trees.items()
                  for name in public_names(tree) if name not in read)


def test_finds_a_public_name_nobody_reads():
    package = {"a": "X = 1\n_Y = 2\nP, Q = 3, 4\ndef f():\n    return X\n"
                    "def g():\n    pass\nclass C:\n    pass\n",
               "b": "from . import a\nfrom .a import f\nf(a.P)\n"}
    assert unread_public_names(package, 'SITES = (("a", "C.method"),)') == [("a", "Q"), ("a", "g")]


def test_every_public_name_is_read():
    package = {path.stem: path.read_text() for path in (ROOT / "src" / "starpinch").glob("*.py")
               if path.stem != "__init__"}
    bench = "\n".join(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))
    unread = unread_public_names(package, bench)
    assert [(module, name) for module, name in unread if name not in UNREAD_ALLOWED] == []
    assert {name for _, name in unread} == set(UNREAD_ALLOWED)  # no allowance outlives its name
