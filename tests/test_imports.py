"""Every module-level import of the package, the tests and the scripts is used.

A stdlib ast scan: a name bound by an import statement at the top level of
a module must be referenced somewhere in that module, as a name or as the
base of an attribute, or be listed in the module's __all__.  __future__
imports are skipped.  The benchmark's own files under perfbench/ are not
scanned.
"""

import ast
from pathlib import Path

import pytest

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
