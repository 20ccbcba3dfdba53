"""Tests of the benchmark's output checker.

Run from the repository root:  python3 -m pytest -q perfbench/test_check.py

Hand-computed brackets pin the checker's sign conventions; the negative
controls show that it rejects a charge document with one coefficient
changed and a lift with one term dropped.  The documents are emitted by
the ``sp2brst`` command line at small orders.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def theory(name):
    return check.Theory(check.load_json(ROOT / "theories" / f"{name}.json"))


def emit(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "sp2brst.cli", *argv], cwd=ROOT, env=env,
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return check.load_json(argv[argv.index("--out") + 1])


@pytest.fixture(scope="module")
def out_dir():
    path = Path(__file__).resolve().parent / "_out" / "tests"
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture(scope="module")
def so3_charges(out_dir):
    return emit("solve", "theories/so3.json", "--order", "4",
                "--out", str(out_dir / "so3-omega.json"))


@pytest.fixture(scope="module")
def deformed_docs(out_dir):
    charges = emit("solve", "theories/so3-deformed.json", "--order", "3",
                   "--method", "fixed-point", "--out", str(out_dir / "deformed-omega.json"))
    lifted = emit("lift", "theories/so3-deformed.json", "--observable", "J2sq",
                  "--order", "3", "--method", "fixed-point",
                  "--out", str(out_dir / "deformed-lift.json"))
    return charges, lifted


def test_ghost_pair_bracket_is_one():
    t = theory("so3")
    assert t.bracket(t.parse("C[1,1]"), t.parse("P[1,1]")) == {(): 1}


def test_so3_structure_bracket():
    t = theory("so3")
    assert t.bracket(t.parse("J1"), t.parse("J2")) == t.parse("J3")
    assert t.bracket(t.parse("J2"), t.parse("J1")) == t.parse("-J3")


def test_odd_odd_signs():
    # mixed2: B even, F odd; the ghosts C[1,i] of B are odd.
    t = theory("mixed2")
    # {C11 C12, P11} = (-1)^(1*1) {C11, P11} C12 = -C12
    assert t.bracket(t.parse("C[1,1]*C[1,2]"), t.parse("P[1,1]")) == t.parse("-C[1,2]")
    # symmetric bracket of the odd constraint with itself: {F,F} = B + B^2
    assert t.bracket(t.parse("F"), t.parse("F")) == t.parse("B + B^2")
    # (P,C) pairing of an odd constraint's (even) ghosts: (-1)^eps = -1
    assert t.bracket(t.parse("P[2,1]"), t.parse("C[2,1]")) == {(): -1}
    # reordering odd factors: C12*C11 = -C11*C12
    assert t.parse("C[1,2]*C[1,1]") == t.parse("-C[1,1]*C[1,2]")
    assert t.parse("C[1,1]*C[1,1]") == {}


def test_parse_reads_the_serialized_form():
    t = theory("so3")
    p = t.parse("xi[2]^2 - 1/2*xi[1]*lam[2]*pi[3] + 3")
    assert p[()] == 3
    assert p[tuple(sorted((t.index["xi[1]"], t.index["lam[2]"], t.index["pi[3]"])))] \
        == Fraction(-1, 2)


def test_emitted_charges_pass(so3_charges):
    assert check.check_charges(theory("so3"), so3_charges, 4) == []


def test_charges_with_one_coefficient_changed_are_rejected(so3_charges):
    text = so3_charges["components"]["1"]
    target = " - P[1,1]*C[2,1]*C[3,1]"
    assert target in text
    bad = json.loads(json.dumps(so3_charges))
    bad["components"]["1"] = text.replace(target, " - 2*P[1,1]*C[2,1]*C[3,1]", 1)
    problems = check.check_charges(theory("so3"), bad, 4)
    assert any("{Omega^1, Omega^1}'" in p for p in problems)


def test_changed_boundary_coefficient_is_rejected(so3_charges):
    bad = json.loads(json.dumps(so3_charges))
    bad["components"]["2"] = bad["components"]["2"].replace("xi[1]*C[1,2]", "2*xi[1]*C[1,2]", 1)
    problems = check.check_charges(theory("so3"), bad, 4)
    assert any("cp-degree-1 part of Omega^2" in p for p in problems)


def test_emitted_lift_passes(deformed_docs):
    charges, lifted = deformed_docs
    t = theory("so3-deformed")
    assert check.check_charges(t, charges, 3) == []
    assert check.check_lift(t, charges, lifted, 3, "J2^2") == []


def test_lift_with_one_term_dropped_is_rejected(deformed_docs):
    charges, lifted = deformed_docs
    target = " + xi[1]*P[2,1]*C[3,1]"
    assert target in lifted["phi_prime"]
    bad = dict(lifted, phi_prime=lifted["phi_prime"].replace(target, "", 1))
    problems = check.check_lift(theory("so3-deformed"), charges, bad, 3, "J2^2")
    assert any("Phi'}'" in p for p in problems)


def test_lift_with_wrong_restriction_is_rejected(deformed_docs):
    charges, lifted = deformed_docs
    problems = check.check_lift(theory("so3-deformed"), charges, lifted, 3, "J1^2")
    assert any("C = pi = 0" in p for p in problems)
