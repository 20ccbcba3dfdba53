"""Every module-level import of the package, the tests and the scripts is
used, and every function of the package has a caller outside the tests.

A stdlib ast scan: a name bound by an import statement at the top level of
a module must be referenced somewhere in that module, as a name or as the
base of an attribute, or be listed in the module's __all__.  __future__
imports are skipped.  The benchmark's own files under perfbench/ are not
scanned.

A function or method defined in the package must be read, as a name or
as an attribute, somewhere in the package or the scripts; or be a
dunder, exported in sp2brst.__all__, or named by a string literal of
perfbench/traced.py, which wraps functions by name.  Code that only
tests call belongs in the tests.
"""

import ast
from pathlib import Path

import pytest

import sp2brst

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(p.relative_to(ROOT).as_posix()
                 for d in ("src/sp2brst", "tests", "scripts")
                 for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list:
    """The names bound by module-level imports of source that nothing in
    it references, in the order they are bound."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [name for name in bound if name not in used]


def test_scanner_flags_only_unreferenced_imports():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "import random as rnd\n"
        "from fractions import Fraction\n"
        "from math import gcd, lcm\n"
        "from typing import NamedTuple\n"
        "__all__ = ['NamedTuple']\n"
        "def f():\n"
        "    return os.path.join(str(gcd(2, 4)), rnd.choice('ab'))\n")
    assert unused_imports(source) == ["json", "Fraction", "lcm"]


@pytest.mark.parametrize("path", SCANNED)
def test_module_imports_are_used(path):
    assert unused_imports((ROOT / path).read_text(encoding="utf-8")) == []


def uncalled_definitions(library: list, callers: list, kept: set) -> list:
    """The names of the functions and methods defined in the library
    sources, at any depth and in the order ast.walk meets them, that no
    source of library or callers reads as a name or an attribute, less
    the dunders and the names in kept."""
    trees = [ast.parse(source) for source in (*library, *callers)]
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    return [n.name for tree in trees[:len(library)] for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            and n.name not in read and n.name not in kept
            and not (n.name.startswith("__") and n.name.endswith("__"))]


def test_scanner_flags_only_uncalled_definitions():
    library = (
        "def used(x):\n"
        "    return x\n"
        "def exported():\n"
        "    pass\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self.stored = None\n"
        "    def method(self):\n"
        "        return used(1)\n"
        "    def stored(self):\n"
        "        pass\n"
        "    def test_only(self):\n"
        "        pass\n"
        "def orphan():\n"
        "    def inner():\n"
        "        pass\n"
        "    return 0\n")
    caller = "A().method()\n"
    assert uncalled_definitions([library], [caller], {"exported"}) == [
        "orphan", "stored", "test_only", "inner"]


def test_package_functions_have_library_callers():
    library = [p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src/sp2brst").rglob("*.py"))]
    callers = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "scripts").rglob("*.py"))]
    traced = ast.parse((ROOT / "perfbench/traced.py").read_text(encoding="utf-8"))
    patched = {n.value for n in ast.walk(traced)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    assert uncalled_definitions(library, callers, set(sp2brst.__all__) | patched) == []
