"""Each package module uses only the public names of the others.

A ``_private`` name imported from a sibling module is a second home for
that module's internals; the test suite itself may still import them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lattice_higgs"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(source: str):
    """(line, name) of each private name the source imports from a package module."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "lattice_higgs":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield node.lineno, alias.name


def test_lint_flags_private_names_from_package_modules_only():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "from numpy import _private",
            "from .oracle import STATE_GUARD, _phi_table",
            "from lattice_higgs.cells import _perm_sign",
            "from . import _hidden",
            "if True:",
            "    from ..x import _nested",
        ]
    )
    want = [(3, "_phi_table"), (4, "_perm_sign"), (5, "_hidden"), (7, "_nested")]
    assert sorted(private_imports(source)) == want


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_name(path):
    assert list(private_imports(path.read_text())) == []


def test_lint_sees_the_package():
    assert {p.name for p in MODULES} >= {"bounds.py", "cells.py", "oracle.py", "sampler.py"}
