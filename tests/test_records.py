"""The package's records: immutable, compared by value, cheap to import.

The result records are named tuples, and TheorySpec and SolverConfig
are __slots__ classes that validate their inputs; none of them needs
``dataclasses``, whose import pulls in ``inspect`` and the modules
behind it on every command's start-up.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sp2brst import SolverConfig, TheorySpec
from sp2brst.algebra import Algebra, TheoryError
from sp2brst.solver import MAX_ORDER, DegreeLine
from sp2brst.tensors import SymTensor

ROOT = Path(__file__).resolve().parent.parent


def test_cli_import_leaves_out_dataclasses_and_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    probe = ("import sys\n"
             "import sp2brst.cli\n"
             "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def _spec(label="t"):
    return TheorySpec((0, 0, 0), u_table={(1, 2, 3): "1"}, label=label)


def test_theory_spec_equality_is_by_value():
    assert _spec() == _spec()
    assert _spec() != _spec("other")


def test_theory_spec_normalises_parities():
    spec = TheorySpec((2, 3), physical_parities=(5,))
    assert spec.constraint_parities == (0, 1)
    assert spec.physical_parities == (1,)


def test_theory_spec_tables_are_not_shared():
    a, b = TheorySpec((0,)), TheorySpec((0,))
    assert a.u_table == {} and a.u_table is not b.u_table
    assert a.mixed_table == {} and a.mixed_table is not b.mixed_table


@pytest.mark.parametrize("record, field", [
    (_spec(), "label"),
    (_spec(), "constraint_parities"),
    (SolverConfig(k=4), "k"),
    (DegreeLine(0, True, True), "agree"),
])
def test_fields_are_read_only(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    assert getattr(record, field) == before


def test_solver_config_validates_and_compares_by_value():
    with pytest.raises(ValueError):
        SolverConfig(k=1)
    assert SolverConfig(k=4) == SolverConfig(4)
    assert SolverConfig(k=4) != SolverConfig(k=5)


def test_solver_config_caps_the_order():
    assert SolverConfig(k=MAX_ORDER).k == MAX_ORDER == 1000
    with pytest.raises(ValueError, match="from 2 to 1000"):
        SolverConfig(k=MAX_ORDER + 1)


def test_theory_spec_keeps_a_frozen_copy_of_its_tables():
    # editing the caller's dict after construction must not reach the spec:
    # an algebra built after the edit has the brackets of one built before
    u = {(1, 2, 3): "1", (2, 3, 1): "1", (3, 1, 2): "1"}
    spec = TheorySpec((0, 0, 0), u_table=u, label="so3")
    first = Algebra(spec)
    u[(3, 1, 2)] = "1 + xi[2]"
    second = Algebra(spec)
    assert spec.u_table[(3, 1, 2)] == "1"
    assert second.bracket(second.xi(3), second.xi(1)) == second.xi(2)
    assert first.compatible(second)
    with pytest.raises(TypeError):
        spec.u_table[(3, 1, 2)] = "2"
    with pytest.raises(TypeError):
        spec.mixed_table[(1, 4)] = "1"


@pytest.mark.parametrize("tables", [
    {"u_table": {(1, 2, 3): 1}},
    {"mixed_table": {(1, 4): 1}},
])
def test_structure_entries_must_be_strings(tables):
    spec = TheorySpec((0, 0, 0), physical_parities=(0,), **tables)
    with pytest.raises(TheoryError, match="expression strings, found int"):
        Algebra(spec)


def test_solver_config_is_unhashable():
    # equal configs may hold an unhashable Upsilon, so none is hashable
    alg = Algebra(TheorySpec((0,)))
    for config in (SolverConfig(k=4), SolverConfig(k=4, upsilon=SymTensor.zero(alg, 1))):
        with pytest.raises(TypeError):
            hash(config)
