"""The benchmark's independent output checker on every bundled theory.

perfbench/check.py re-derives the bracket from the documented conventions
and imports nothing from sp2brst; it is loaded here from its file, read
only.  Each bundled theory is solved at order 3 with the fixed point and
its charge document checked; each first-class observable is lifted and
its observable document checked against the expression the theory
document gives it, which the checker parses itself.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from sp2brst.cli import main

ROOT = Path(__file__).resolve().parent.parent
THEORIES = sorted(p.stem for p in (ROOT / "theories").glob("*.json"))
ORDER = 3
# observables that lift refuses with exit 1: q is not first class, since
# {T, q} = 1 (shift.json)
NOT_FIRST_CLASS = {("shift", "q")}

_spec = importlib.util.spec_from_file_location("perfbench_check", ROOT / "perfbench" / "check.py")
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)


def _theory(name):
    return check.Theory(check.load_json(ROOT / "theories" / f"{name}.json"))


def _emit(path, *argv):
    """(exit code, the document written to path) of one in-process run."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--order", str(ORDER), "--method", "fixed-point",
                     "--out", str(path)])
    return code, (check.load_json(path) if path.exists() else None)


def test_checker_accepts_the_golden_charges_and_rejects_the_tampered_ones():
    t = _theory("so3")
    golden = check.load_json(ROOT / "tests" / "golden" / "omega-so3.json")
    assert check.check_charges(t, golden, golden["order"]) == []
    tampered = check.load_json(ROOT / "tests" / "golden" / "omega-so3-tampered.json")
    assert check.check_charges(t, tampered, tampered["order"])


@pytest.mark.parametrize("name", THEORIES)
def test_emitted_documents_pass_the_independent_checker(tmp_path, name):
    path = ROOT / "theories" / f"{name}.json"
    t = _theory(name)
    code, charges = _emit(tmp_path / "omega.json", "solve", str(path))
    assert code == 0
    assert check.check_charges(t, charges, ORDER) == []
    observables = {o["name"]: o["expr"] for o in json.loads(path.read_text())["observables"]}
    assert observables
    for observable, phi0 in observables.items():
        out = tmp_path / f"lift-{observable}.json"
        code, lifted = _emit(out, "lift", str(path), "--observable", observable)
        if (name, observable) in NOT_FIRST_CLASS:
            assert code == 1 and lifted is None
            continue
        assert code == 0
        assert check.check_lift(t, charges, lifted, ORDER, phi0) == []
