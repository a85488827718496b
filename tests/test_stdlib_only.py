"""The package runs on the standard library alone: every import in
src/trophodge names a standard-library module or trophodge itself."""

import ast
import os
import sys

import trophodge

PACKAGE = os.path.dirname(os.path.abspath(trophodge.__file__))


def _imported_modules(tree: ast.AST):
    """The top-level name of every absolute import in tree, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0], node.lineno


def test_every_import_is_stdlib_or_trophodge():
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "__init__.py" in modules
    outside = []
    for name in modules:
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        outside += [f"{name}:{line} imports {mod}" for mod, line in _imported_modules(tree)
                    if mod != "trophodge" and mod not in sys.stdlib_module_names]
    assert not outside, outside


def test_a_third_party_import_is_caught():
    tree = ast.parse("import numpy.linalg\nfrom sympy import Matrix\nfrom . import cached\n")
    assert [mod for mod, _ in _imported_modules(tree)] == ["numpy", "sympy"]
