"""Modules of the package use each other only through public names: a
helper two modules share belongs, public, in the module both import."""

import ast
from pathlib import Path

import dcnbench

PACKAGE = Path(dcnbench.__file__).parent


def private_imports(source: str) -> list[str]:
    """``module.name`` for each underscore-prefixed name that ``source``
    imports from a sibling module (a relative import or one of ``dcnbench``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "dcnbench":
            continue
        found += [f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path.read_text()))
    }
    assert offenders == {}


def test_private_imports_finds_relative_and_absolute_forms():
    # the import the check was written against, and its absolute spelling
    assert private_imports("from .builders import _check_sizes") == ["builders._check_sizes"]
    assert private_imports("from dcnbench.graph import Topology, _helper") == ["dcnbench.graph._helper"]
    assert private_imports("from random import _inst\nfrom .graph import Topology") == []
