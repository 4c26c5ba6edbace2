"""Each package module uses only the public names of the others, and
every name it imports.

A ``_private`` name imported from a sibling module is a second home for
that module's internals; the test suite itself may still import them.
An import that nothing reads is a leftover of deleted code, and so is a
public name, method or property that nothing outside the tests reads,
unless it is pinned in ``TEST_ONLY``, and a private top-level name or
private method that no package module reads.  Importing a name is not
reading it, so ``__init__.py``'s re-imports and ``__all__`` entries keep
no name alive: a name that only the tests and the package namespace
reach is pinned in ``TEST_ONLY`` like any other.  Names are matched bare, so
a method passes unseen while another of its name is read elsewhere (as
``Tracer.count`` hid ``LatticeBox.count``).  ``tests/reference.py`` too
must read every name it imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lattice_higgs"
MODULES = sorted(PACKAGE.glob("*.py"))
BENCH = sorted((PACKAGE.parent.parent / "bench").glob("*.py"))
REFERENCE = Path(__file__).resolve().parent / "reference.py"


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


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            yield node.returns
            yield from (x.annotation for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x)
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str):
    """(line, name) of each name the source imports and never reads.

    A name is read where it appears as a name in an expression, as an
    ``__all__`` entry, or inside a quoted annotation.
    """
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {e.value for e in node.value.elts}
    for ann in _annotations(tree):
        for c in ast.walk(ann) if ann else ():
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                read |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval")) if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in bound if name not in read)


def test_lint_flags_unused_imports():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import os, numpy as np",
            "import xml.dom",
            "from typing import Dict, List, Optional, Set",
            "from .cells import cell, edge",
            "from .forms import FormZn",
            "__all__ = ['edge']",
            "def f(x: Dict, *, y: 'Optional[FormZn]' = None) -> int:",
            "    return np.zeros(len(x)) + xml.dom.X",
        ]
    )
    want = [(2, "os"), (4, "List"), (4, "Set"), (5, "cell")]
    assert unused_imports(source) == want


@pytest.mark.parametrize("path", MODULES + [REFERENCE], ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def _top_level(tree):
    """(name, node) of each name a module's top level defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for t in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(t, ast.Name):
                    yield t.id, node


def _linted(tree):
    """(name, reported name, node) of each top-level name and each method or
    property of a module's classes, leaving out the language's dunder names;
    a method is reported as ``Class.name``."""
    for name, node in _top_level(tree):
        if not name.endswith("__"):
            yield name, name, node
        for m in node.body if isinstance(node, ast.ClassDef) else []:
            if isinstance(m, ast.FunctionDef) and not m.name.endswith("__"):
                yield m.name, f"{name}.{m.name}", m


def _reads(tree, skip=None):
    """Names a tree reads outside the subtree ``skip``: loaded names, attributes,
    and strings that are identifiers (the tracer looks its targets up by
    string); an import or an ``__all__`` entry alone reads nothing."""
    out, todo = set(), [tree]
    while todo:
        n = todo.pop()
        if n is skip or isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in n.targets):
            continue
        todo.extend(ast.iter_child_nodes(n))
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def unread_names(modules, others):
    """Names of ``modules`` (name -> source) that nothing reads outside their
    own definition: public top-level names, methods and properties that no
    module and none of the ``others`` sources reads, and private top-level
    names and private methods that no module reads."""
    trees = {k: ast.parse(v) for k, v in modules.items()}
    outside = set().union(*map(_reads, map(ast.parse, others)))
    out = set()
    for key, tree in trees.items():
        seen = set().union(*(_reads(t) for k, t in trees.items() if k != key))
        for name, reported, node in _linted(tree):
            if name in seen or (name in outside and not name.startswith("_")):
                continue
            if name not in _reads(tree, skip=node):
                out.add(reported)
    return out


def test_lint_flags_names_nothing_reads():
    modules = {
        "__init__.py": "from .a import listed\n__all__ = ['listed']",
        "a.py": "\n".join(
            [
                "LIMIT = 3",
                "def listed(): return LIMIT",
                "def helper(): return 1",
                "def used(): return helper()",
                "def recursive(): return recursive()",
                "def _private(): pass",
                "def _read(): pass",
                "def traced(): pass",
                "class Unread: pass",
                "class Kept:",
                "    def __init__(self): self._called(_read)",
                "    def _called(self, f): pass",
                "    def _recursive(self): return self._recursive()",
                "    def _bench_only(self): pass",
                "    def bench_read(self): pass",
                "    def unread(self): return self.unread()",
                "    @property",
                "    def size(self): return 0",
                "    @property",
                "    def unread_size(self): return self.size",
            ]
        ),
        "b.py": "from .a import used, Kept\nimport a\nX: int = a.attr(used())\nTABLE = {}",
    }
    others = ["import a\nb.X\ngetattr(a, 'traced')\na.Kept()._bench_only()\na.Kept().bench_read()"]
    want = {"listed", "recursive", "Unread", "TABLE", "_private", "Kept._recursive", "Kept._bench_only", "Kept.unread", "Kept.unread_size"}
    assert unread_names(modules, others) == want


# read only by the tests; a name added here says why in CHANGES.md
TEST_ONLY = {
    # cross-checks kept beside the route they check
    "phi_hat_double_series", "alpha_z2_closed_form", "delta_edge",
    # a one-cell chain, the tests' shorthand for building chains by hand
    "Chain.of",
    # a path's end points as coordinate tuples; the package reads the ``ends`` array
    "LatticePath.endpoints",
    # the per-site heat-bath conditional, the reference for the sweep's table
    "ChainEnsemble.conditional_weights",
    # each chain's configuration id, for frequency tests against exact enumeration
    "ChainEnsemble.config_ids",
    # one entry of the phi_hat row the couplings read whole, checked against closed forms
    "phi_hat",
    # the single-edge Gibbs mean of rho, equal to phi(a, 1, n) to 2e-16: a cross-check
    "eta_hat",
    # cell constructors, the tests' shorthand for naming a vertex or a plaquette
    "vertex", "plaquette",
    # the paper's decomposition into components and its order, checked on hand-made forms
    "connected_components", "lhd",
    # seeded random 2-forms, inputs for the property tests
    "random_form",
}


def test_package_names_are_read_outside_the_tests():
    modules = {p.name: p.read_text() for p in MODULES}
    assert unread_names(modules, [p.read_text() for p in BENCH]) == TEST_ONLY


def test_lint_sees_the_package():
    assert {p.name for p in MODULES} >= {"bounds.py", "cells.py", "oracle.py", "sampler.py"}
    assert {p.name for p in BENCH} >= {"tracing.py", "workloads.py"}
