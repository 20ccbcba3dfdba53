"""Command-line pipeline: exit codes, determinism, document round-trips."""

import ast
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sp2brst
import sp2brst.algebra as algebra_mod
import sp2brst.cli as cli_mod
import sp2brst.expr as expr_mod
import sp2brst.solver as solver_mod
from sp2brst.algebra import GradedPoly, InputError, TermBudgetError, TheoryError
from sp2brst.cli import main
from sp2brst.expr import DigitLimitError, ExprError
from sp2brst.observables import NotFirstClassError
from sp2brst.operators import OutsideDomainError
from sp2brst.solver import ConventionError
from sp2brst.tensors import SymmetryError, SymTensor
from sp2brst.theoryfile import TheoryFileError
from solver_oracles import ghost

THEORY_DIR = Path(__file__).resolve().parent.parent / "theories"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_abelian(capsys):
    code, out, err = run(capsys, "solve", str(THEORY_DIR / "abelian3.json"),
                         "--order", "4")
    assert code == 0
    assert "theory abelian3: 3 constraints, 0 physical coordinates" in out
    assert "Jacobi identity: holds" in out
    assert "correction 0" in out
    assert "master equations: satisfied through cp-degree 4" in out
    assert "boundary conditions: satisfied" in out
    assert "[" in err and "s]" in err  # timing goes to stderr only


def test_solve_so3_deterministic(capsys):
    args = ("solve", str(THEORY_DIR / "so3.json"), "--order", "4",
            "--method", "fixed-point")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "Omega^1 terms by cp-degree" in out1
    assert "Omega^1 = " in out1


def test_solve_verify_roundtrip(capsys, tmp_path):
    omega_path = tmp_path / "omega.json"
    code, out, _ = run(capsys, "solve", str(THEORY_DIR / "so3.json"),
                       "--order", "4", "--method", "fixed-point",
                       "--out", str(omega_path))
    assert code == 0
    doc = json.loads(omega_path.read_text())
    assert doc["kind"] == "omega"
    assert doc["order"] == 4

    code, out, _ = run(capsys, "verify", str(THEORY_DIR / "so3.json"),
                       str(omega_path))
    assert code == 0
    assert "verification: passed" in out


def test_verify_rejects_tampered_charge(capsys, tmp_path):
    omega_path = tmp_path / "omega.json"
    run(capsys, "solve", str(THEORY_DIR / "so3.json"), "--order", "4",
        "--method", "fixed-point", "--out", str(omega_path))
    doc = json.loads(omega_path.read_text())
    doc["components"]["1"] = doc["components"]["1"].replace(
        "xi[1]*C[1,1]", "2*xi[1]*C[1,1]", 1)
    omega_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(THEORY_DIR / "so3.json"),
                       str(omega_path))
    assert code == 1
    assert "NONZERO" in out
    assert "boundary condition violated" in out
    assert "verification: FAILED" in out


def test_verify_rejects_disagreeing_structured_form(capsys, tmp_path,
                                                    monkeypatch):
    omega_path = tmp_path / "omega.json"
    run(capsys, "solve", str(THEORY_DIR / "so3.json"), "--order", "4",
        "--method", "fixed-point", "--out", str(omega_path))
    quad_term = solver_mod.quad_term

    def broken(pi, k=None):
        alg = pi.alg
        extra = ghost(alg, 1, 1) * ghost(alg, 2, 1) * ghost(alg, 3, 1)
        return quad_term(pi, k) + SymTensor(alg, 2, {(1, 1): extra})

    monkeypatch.setattr(solver_mod, "quad_term", broken)
    code, out, _ = run(capsys, "verify", str(THEORY_DIR / "so3.json"),
                       str(omega_path))
    assert "degree 3: residual zero  [structured form DISAGREES]" in out
    assert "master equations: satisfied" in out
    assert "verification: FAILED" in out
    assert code == 1


def test_lift_with_realization(capsys):
    code, out, _ = run(capsys, "lift", str(THEORY_DIR / "so3.json"),
                       "--observable", "J1sq", "--order", "4",
                       "--method", "fixed-point")
    assert code == 0
    assert "observable J1sq = xi[1]^2" in out
    assert "observable lift: verified through cp-degree 4" in out
    assert "realization with casimir: realization: bracket matches, product matches" in out
    assert "realization with casimir2: realization: bracket matches, product matches" in out
    assert "Phi' = " in out


def test_lift_rejects_non_first_class(capsys):
    code, out, _ = run(capsys, "lift", str(THEORY_DIR / "shift.json"),
                       "--observable", "q", "--order", "3",
                       "--method", "fixed-point")
    assert code == 1
    assert "rejected: not first class" in out


def test_lift_first_class_on_shift(capsys, tmp_path):
    out_path = tmp_path / "obs.json"
    code, out, _ = run(capsys, "lift", str(THEORY_DIR / "shift.json"),
                       "--observable", "Tq", "--order", "3",
                       "--method", "fixed-point", "--out", str(out_path))
    assert code == 0
    assert "realization with q: skipped (not first class)" in out
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "observable"
    assert doc["phi0"] == "xi[1]*xip[1]"
    assert doc["phi_prime"] == ("xi[1]*xip[1] - P[1,1]*C[1,1]"
                                " - P[1,2]*C[1,2] - lam[1]*pi[1]")


def test_check_identities(capsys):
    code, out, _ = run(capsys, "check-identities", "--degree", "2",
                       "--samples", "5", "--seed", "1")
    assert code == 0
    assert "identity suite: all identities hold" in out
    assert "[ker W]" in out
    code2, out2, _ = run(capsys, "check-identities", "--degree", "2",
                         "--samples", "5", "--seed", "1")
    assert out2 == out


@pytest.mark.parametrize("theory", ["so3", "shift"])
def test_check_identities_over_document(capsys, theory):
    # shift has a physical coordinate, which carries no N-weight
    code, out, _ = run(capsys, "check-identities", "--degree", "2",
                       "--samples", "3", "--seed", "0",
                       "--theory", str(THEORY_DIR / f"{theory}.json"))
    assert code == 0
    assert f"theory {theory}" in out
    assert out.splitlines()[-1] == "identity suite: all identities hold"


def test_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "solve", str(tmp_path / "missing.json"))
    assert code == 2
    assert "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text('{"format": 3}')
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "unsupported format" in err

    bad.write_text("{broken")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2

    code, out, err = run(capsys, "lift", str(THEORY_DIR / "so3.json"),
                         "--observable", "nope", "--order", "3")
    assert code == 2 and out == ""
    assert "no observable named" in err


def test_jacobi_violation_is_input_error(capsys, tmp_path):
    bad = tmp_path / "nonjacobi.json"
    bad.write_text(json.dumps({
        "format": 1,
        "label": "broken",
        "constraints": [{"name": "T1", "parity": 0}, {"name": "T2", "parity": 0},
                        {"name": "T3", "parity": 0}],
        "U": {"1,2,3": "1 + T1", "2,3,1": "1", "3,1,2": "1"},
    }))
    # the report goes to stdout and, as for every input error, one error
    # line to stderr
    for argv in (["solve", str(bad)], ["check-identities", "--theory", str(bad)]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "Jacobi identity: VIOLATED" in out
        assert _one_error_line(err) == "error: the structure table violates the Jacobi identity"


def test_term_budget_cap(capsys, monkeypatch):
    monkeypatch.setenv("SP2_BRST_MAX_TERMS", "10")
    code, _, err = run(capsys, "solve", str(THEORY_DIR / "so3.json"),
                       "--order", "4", "--method", "fixed-point")
    assert code == 2
    assert "budget 10" in err

    monkeypatch.setenv("SP2_BRST_MAX_TERMS", "zero")
    code, _, err = run(capsys, "solve", str(THEORY_DIR / "so3.json"))
    assert code == 2
    assert "SP2_BRST_MAX_TERMS" in err


BUDGET_RUNS = {
    "solve": ["solve", str(THEORY_DIR / "so3.json"), "--order", "4"],
    "lift": ["lift", str(THEORY_DIR / "so3.json"), "--observable", "1",
             "--order", "4"],
    "verify": ["verify", str(THEORY_DIR / "so3.json"),
               str(GOLDEN_DIR / "omega-so3.json")],
}


@pytest.mark.parametrize("command", sorted(BUDGET_RUNS))
def test_term_budget_applies_to_every_theory_command(command, capsys, monkeypatch):
    monkeypatch.setenv("SP2_BRST_MAX_TERMS", "10")
    code, _, err = run(capsys, *BUDGET_RUNS[command])
    assert code == 2
    assert "budget 10" in err

    # an invalid value is reported before the theory is loaded
    monkeypatch.setenv("SP2_BRST_MAX_TERMS", "zero")
    code, out, err = run(capsys, *BUDGET_RUNS[command])
    assert code == 2
    assert "SP2_BRST_MAX_TERMS" in err
    assert out == ""


DEFORMED = str(THEORY_DIR / "so3-deformed.json")
BUDGET_POINT_RUNS = {
    "solve": ["solve", DEFORMED],
    "lift": ["lift", DEFORMED, "--observable", "J2sq", "--method", "fixed-point"],
}


@pytest.mark.parametrize("command, budget, terms", [
    ("solve", 50, 52), ("lift", 50, 54),
    ("solve", 300, 301), ("lift", 300, 301),
    ("solve", 400, None), ("lift", 400, 401),
    ("lift", 550, 822),
    ("lift", 850, 880),
])
def test_term_budget_check_points(command, budget, terms, capsys, monkeypatch):
    # the count a budget stops at depends on the order terms form in and on
    # where they are checked; terms None: the run fits the budget
    monkeypatch.setenv("SP2_BRST_MAX_TERMS", str(budget))
    code, _, err = run(capsys, *BUDGET_POINT_RUNS[command])
    if terms is None:
        assert code == 0
    else:
        assert code == 2
        assert (f"error: a polynomial being formed has {terms} terms (budget {budget})"
                in err.splitlines())


def test_mixed_theory_document(capsys):
    code, out, _ = run(capsys, "solve", str(THEORY_DIR / "mixed2.json"))
    assert code == 0
    assert "theory mixed2: 2 constraints" in out


def test_lift_order_from_document(capsys):
    # shift.json carries order 4; --order overrides it above, absence uses it
    code, out, _ = run(capsys, "lift", str(THEORY_DIR / "shift.json"),
                       "--observable", "Tq", "--method", "fixed-point")
    assert code == 0
    assert "through cp-degree 4" in out


def _one_error_line(err):
    # the error itself, then the timing line every run prints
    lines = err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("error: ")
    assert "Traceback" not in err
    return lines[0]


@pytest.mark.parametrize("command", ["solve", "lift"])
def test_order_below_two_is_input_error(capsys, command):
    argv = [command, str(THEORY_DIR / "so3.json"), "--order", "1"]
    if command == "lift":
        argv += ["--observable", "J1sq"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""  # refused before the theory is read
    assert _one_error_line(err) == "error: argument --order: must be at least 2, got 1"


def test_identity_degree_below_one_is_input_error(capsys):
    code, out, err = run(capsys, "check-identities", "--degree", "0")
    assert code == 2
    assert out == ""
    assert _one_error_line(err) == "error: argument --degree: must be at least 1, got 0"


def test_identity_zero_samples_is_input_error(capsys):
    code, out, err = run(capsys, "check-identities", "--samples", "0")
    assert code == 2
    assert "all identities hold" not in out
    assert _one_error_line(err) == "error: argument --samples: must be at least 1, got 0"


def test_lift_observable_by_index(capsys):
    args = (str(THEORY_DIR / "so3.json"), "--order", "4", "--method", "fixed-point")
    code, by_index, _ = run(capsys, "lift", *args, "--observable", "3")
    assert code == 0
    code, by_name, _ = run(capsys, "lift", *args, "--observable", "J1sq")
    assert code == 0
    assert by_index == by_name
    code, out, err = run(capsys, "lift", *args, "--observable", "4")
    assert code == 2 and out == ""
    assert "no observable named '4'" in err


def test_convention_error_in_lift_exits_one(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ConventionError("Neumann term failed to raise cp-degree (3 -> 3)")

    monkeypatch.setattr(cli_mod, "lift", broken)
    code, out, err = run(capsys, "lift", str(THEORY_DIR / "so3.json"),
                         "--observable", "J1sq", "--order", "4",
                         "--method", "fixed-point")
    assert code == 1
    assert out.splitlines()[-1] == ("verification failed: Neumann term failed "
                                    "to raise cp-degree (3 -> 3)")
    assert "Traceback" not in out + err


def test_symmetry_error_in_solve_exits_one(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise SymmetryError("components at (1, 2) and (2, 1) differ; "
                            "result is not Sp(2)-symmetric")

    monkeypatch.setattr(cli_mod, "solve", broken)
    code, out, err = run(capsys, "solve", str(THEORY_DIR / "so3.json"),
                         "--order", "3")
    assert code == 1
    assert out.splitlines()[-1] == (
        "verification failed: components at (1, 2) and (2, 1) differ; "
        "result is not Sp(2)-symmetric")
    assert "Traceback" not in out + err


def test_outside_domain_error_in_identities_exits_one(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise OutsideDomainError("term outside the invertible domain of N: pi[1]")

    monkeypatch.setattr(cli_mod, "run_identity_suite", broken)
    code, out, err = run(capsys, "check-identities", "--degree", "2",
                         "--samples", "1")
    assert code == 1
    assert out.splitlines()[-1] == ("verification failed: term outside the "
                                    "invertible domain of N: pi[1]")
    assert "Traceback" not in out + err


def test_verify_rejects_charge_of_another_theory(capsys, tmp_path):
    omega_path = tmp_path / "omega.json"
    code, _, _ = run(capsys, "solve", str(THEORY_DIR / "abelian3.json"),
                     "--order", "3", "--out", str(omega_path))
    assert code == 0
    code, out, err = run(capsys, "verify", str(THEORY_DIR / "so3.json"),
                         str(omega_path))
    assert code == 2
    assert _one_error_line(err) == ("error: omega document is for theory "
                                    "'abelian3', not 'so3'")
    assert "verification" not in out


@pytest.mark.parametrize("observable", ["g", "J1sq"])
def test_ghost_observable_is_input_error(capsys, tmp_path, observable):
    # lifting g itself, or any other observable of a document containing g
    doc = json.loads((THEORY_DIR / "so3.json").read_text())
    doc["observables"].append({"name": "g", "expr": "C[1,1]"})
    path = tmp_path / "ghost.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "lift", str(path), "--observable", observable,
                         "--order", "3", "--method", "fixed-point")
    assert code == 2 and out == ""
    assert _one_error_line(err) == ("error: observable g: phi0 must be a "
                                    "polynomial in the matter variables only")


def test_identities_need_a_constraint(capsys, tmp_path):
    path = tmp_path / "free.json"
    path.write_text(json.dumps({"format": 1, "label": "free",
                                "physical": [{"name": "q", "parity": 0}]}))
    code, _, err = run(capsys, "check-identities", "--degree", "2",
                       "--samples", "2", "--theory", str(path))
    assert code == 2
    assert _one_error_line(err) == ("error: the identity suite needs at least "
                                    "one constraint")


def test_python_dash_m_runs_the_cli():
    # a checkout runs as `python -m sp2brst` with only src/ on the path
    root = THEORY_DIR.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "sp2brst", "solve", "theories/so3.json"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    want = (GOLDEN_DIR / "solve-so3.txt").read_text(encoding="utf-8")
    assert f"exit {proc.returncode}\n{proc.stdout}" == want, proc.stderr


# -- inputs past the parser's and the JSON decoder's limits -----------------


def _so3_text(u123=None, **fields):
    """theories/so3.json as text, its U entry 1,2,3 replaced by u123 if
    given and its top-level fields updated by fields."""
    doc = json.loads((THEORY_DIR / "so3.json").read_text(encoding="utf-8"))
    if u123 is not None:
        doc["U"]["1,2,3"] = u123
    doc.update(fields)
    return json.dumps(doc)


_LONG = "9" * 5000  # past the 4,300 digits int() converts by default
_WIDE = "9" * 4000  # int() reads it, str() cannot write its square
MALFORMED_THEORIES = {
    "parentheses": _so3_text(u123="(" * 260 + "1" + ")" * 260),
    "unary-minuses": _so3_text(u123="-" * 1000 + "1"),
    "long-literal": _so3_text(u123=_LONG),
    "long-product": _so3_text(u123=_WIDE + "*" + _WIDE),
    "huge-power": _so3_text(u123="2^99999999999"),  # refused before it is computed
    "long-exponent": _so3_text(u123="J1^" + _LONG),
    "long-index": _so3_text(u123=f"xi[{_LONG}]"),
    "long-order": _so3_text().replace('"order": 6', f'"order": {_LONG}'),
    "deep-json": _so3_text().replace('"order": 6', '"order": ' + "[" * 100_000
                                     + "]" * 100_000),
    "not-utf8": _so3_text().encode().replace(b'"so3"', b'"so3\xff"'),
    "lone-surrogate": _so3_text(label="so3\udcff"),  # spelled \udcff in the JSON
}


@pytest.mark.parametrize("name", sorted(MALFORMED_THEORIES))
def test_malformed_theory_is_input_error(capsys, tmp_path, name):
    path = tmp_path / "theory.json"
    text = MALFORMED_THEORIES[name]
    (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
    code, out, err = run(capsys, "solve", str(path), "--order", "2")
    assert code == 2 and out == ""
    _one_error_line(err)


def _omega_text(component, order="2"):
    return ('{"format": 1, "kind": "omega", "label": "so3", "order": %s, '
            '"components": {"1": "%s", "2": "0"}}' % (order, component))


MALFORMED_CHARGES = {
    "parentheses": _omega_text("(" * 2000 + "1" + ")" * 2000),
    "unary-minuses": _omega_text("-" * 2000 + "1"),
    "long-literal": _omega_text(_LONG),
    "long-order": _omega_text("0", order=_LONG),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CHARGES))
def test_malformed_charge_document_is_input_error(capsys, tmp_path, name):
    path = tmp_path / "omega.json"
    path.write_text(MALFORMED_CHARGES[name])
    code, _, err = run(capsys, "verify", str(THEORY_DIR / "so3.json"), str(path))
    assert code == 2
    _one_error_line(err)


_HUGE_ORDER = "1" + "0" * 4000  # a JSON integer that int() still converts


@pytest.mark.parametrize("argv, error", [
    (["solve", "{theory}"], "order must be an integer from 2 to 1000"),
    (["verify", str(THEORY_DIR / "so3.json"), "{omega}"],
     "omega document: order must be an integer from 2 to 1000"),
    (["solve", str(THEORY_DIR / "so3.json"), "--order", "1001"],
     "argument --order: must be at most 1000, got 1001"),
], ids=["theory-order", "charge-order", "option"])
def test_orders_past_the_cap_are_refused_at_once(tmp_path, argv, error):
    # each used to run for as long as its order asked, printing a line
    # per degree; a refusal must come at once, so a hang fails here
    theory, omega = tmp_path / "theory.json", tmp_path / "omega.json"
    theory.write_text(_so3_text().replace('"order": 6', '"order": ' + _HUGE_ORDER))
    omega.write_text(_omega_text("0", order=_HUGE_ORDER))
    argv = [a.format(theory=theory, omega=omega) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(THEORY_DIR.parent / "src"))
    started = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "sp2brst", *argv], env=env,
                          capture_output=True, text=True, timeout=20)
    assert time.monotonic() - started < 2
    assert proc.returncode == 2
    assert _one_error_line(proc.stderr) == "error: " + error
    # a bad theory, charge document or option is refused before any report
    assert proc.stdout == "", proc.stdout


def test_order_1000_is_accepted(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", str(THEORY_DIR / "so3.json"), "--order", "1000",
                       "--method", "fixed-point", "--out", str(tmp_path / "omega.json"))
    assert code == 0 and "  degree 1000: residual zero" in out.splitlines()
    theory = tmp_path / "theory.json"
    theory.write_text(_so3_text(order=1000))
    code, out, _ = run(capsys, "verify", str(theory), str(tmp_path / "omega.json"))
    assert code == 0 and "loaded charge document at truncation order 1000" in out


def test_long_observable_position_is_input_error(capsys):
    code, _, err = run(capsys, "lift", str(THEORY_DIR / "so3.json"),
                       "--observable", _LONG, "--order", "2")
    assert code == 2
    assert _one_error_line(err).startswith("error: no observable named")


def test_deformed_pipeline_repacks_nothing(capsys, tmp_path, monkeypatch):
    # every polynomial of solve, verify and lift on so3-deformed at k=5
    # is stored at MIN_WIDTH, so no kernel and no sum moves a key
    calls = []
    real = algebra_mod._repack

    def counted(nums, old, new):
        calls.append((len(nums), old, new))
        return real(nums, old, new)

    monkeypatch.setattr(algebra_mod, "_repack", counted)
    theory = str(THEORY_DIR / "so3-deformed.json")
    omega = str(tmp_path / "omega.json")
    for argv in (("solve", theory, "--method", "fixed-point", "--out", omega),
                 ("verify", theory, omega),
                 ("lift", theory, "--observable", "J2sq", "--method", "fixed-point")):
        code, out, _ = run(capsys, *argv)
        assert code == 0, out
    assert calls == []


def test_deformed_pipeline_kernel_calls(capsys, tmp_path, monkeypatch):
    # A, F and the first-class check each form their brackets in one
    # batched call, so each command makes this many kernel calls
    counts = []
    real = algebra_mod.Algebra._brackets

    def counted(self, *args):
        counts[-1] += 1
        return real(self, *args)

    monkeypatch.setattr(algebra_mod.Algebra, "_brackets", counted)
    theory = str(THEORY_DIR / "so3-deformed.json")
    omega = str(tmp_path / "omega.json")
    for argv in (("solve", theory, "--method", "fixed-point", "--out", omega),
                 ("verify", theory, omega),
                 ("lift", theory, "--observable", "J2sq", "--method", "fixed-point")):
        counts.append(0)
        code, out, _ = run(capsys, *argv)
        assert code == 0, out
    assert counts == [15, 6, 28]


def test_printed_polynomials_are_serialized_once(capsys, tmp_path, monkeypatch):
    # each command serializes a polynomial once, for its stdout line, and
    # writes that text into its document; each lift forms Phi' = phi0 + K
    # once, counted as the additions to an observable given to lift
    serialized, formed, lifted = [], [], set()
    serialize, add, lift = expr_mod.serialize, GradedPoly.__add__, cli_mod.lift

    def counted_serialize(p):
        serialized[-1] += 1
        return serialize(p)

    def counted_lift(phi0, res):
        lifted.add(id(phi0))  # phi0 lives as long as the command
        return lift(phi0, res)

    def counted_add(self, other):
        formed[-1] += id(self) in lifted
        return add(self, other)

    monkeypatch.setattr(expr_mod, "serialize", counted_serialize)
    monkeypatch.setattr(cli_mod, "lift", counted_lift)
    monkeypatch.setattr(GradedPoly, "__add__", counted_add)
    theory = str(THEORY_DIR / "so3-deformed.json")
    omega, lifted_doc = str(tmp_path / "omega.json"), str(tmp_path / "lift.json")
    outputs = []
    for argv in (("solve", theory, "--method", "fixed-point", "--out", omega),
                 ("verify", theory, omega),
                 ("lift", theory, "--observable", "J2sq", "--method", "fixed-point",
                  "--out", lifted_doc),
                 # casimir, then the two other observables for the realization
                 ("lift", str(THEORY_DIR / "so3.json"), "--observable", "casimir")):
        serialized.append(0)
        formed.append(0)
        lifted.clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0, out
        outputs.append(out.splitlines())
    assert serialized == [2, 0, 2, 2]
    assert formed == [0, 0, 1, 3]
    charges = json.loads(Path(omega).read_text())["components"]
    assert [f"Omega^{a} = {charges[a]}" for a in "12"] == [
        line for line in outputs[0] if line.startswith("Omega^") and " = " in line]
    doc = json.loads(Path(lifted_doc).read_text())
    assert f"observable J2sq = {doc['phi0']}" in outputs[2]
    assert f"Phi' = {doc['phi_prime']}" in outputs[2]


@pytest.mark.parametrize("argv", [
    ("solve", str(THEORY_DIR / "so3.json")),
    ("check-identities", "--theory", str(THEORY_DIR / "so3.json"), "--samples", "4"),
    ("check-identities", "--samples", "4"),
], ids=["solve", "check-identities-theory", "check-identities"])
def test_each_command_builds_one_algebra(capsys, monkeypatch, argv):
    # the algebra loaded for the Jacobi check is the one solved and sampled
    built = []
    init = algebra_mod.Algebra.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(algebra_mod.Algebra, "__init__", counted_init)
    code, out, _ = run(capsys, *argv)
    assert code == 0, out
    assert len(built) == 1


# -- parse errors name their entry and the text their column counts in ------


def _shown_text(line):
    """(entry, shown text, line, column) of a parse error naming its text."""
    m = re.fullmatch(r"error: (?:invalid structure table: )?(.+?) ('.*'): "
                     r"line (\d+), col (\d+): .*", line)
    assert m, line
    return m[1], ast.literal_eval(m[2]), int(m[3]), int(m[4])


@pytest.mark.parametrize("theory, field, key, text, want", [
    ("so3.json", "U", "1,2,3", "J1 * J2 + )",
     "U[1,2,3] 'J1 * J2 + )': line 1, col 11: unexpected ')'"),
    ("shift.json", "mixed", "1,2", "T *\n  (q + ))",
     "mixed[1,2] 'T *\\n  (q + ))': line 2, col 8: unexpected ')'"),
])
def test_structure_entry_parse_error_names_its_entry(capsys, tmp_path, theory, field,
                                                     key, text, want):
    # the message shows the text as written, and the column counts in it
    doc = json.loads((THEORY_DIR / theory).read_text())
    doc[field][key] = text
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", str(path), "--order", "2")
    assert code == 2 and out == ""
    error = _one_error_line(err)
    assert error == "error: invalid structure table: " + want
    _, shown, line, col = _shown_text(error)
    assert shown.split("\n")[line - 1][col - 1] == ")"


def test_observable_parse_error_names_its_text(capsys, tmp_path):
    doc = json.loads((THEORY_DIR / "so3.json").read_text())
    doc["observables"].append({"name": "bad", "expr": "J1 *\n J2 +"})
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "lift", str(path), "--observable", "J1sq",
                         "--order", "2", "--method", "fixed-point")
    assert code == 2 and out == ""
    line = _one_error_line(err)
    assert line == ("error: observable bad 'J1 *\\n J2 +': "
                    "line 2, col 6: unexpected end of input")
    assert _shown_text(line) == ("observable bad", "J1 *\n J2 +", 2, 6)


@pytest.mark.parametrize("text, shown", [
    ("1" + " " * 78 + ")", "'1" + " " * 78 + ")'"),  # 80 characters: echoed
    ("1" + " " * 79 + ")", "(81 characters)"),
])
def test_parse_error_echoes_only_short_entries(capsys, tmp_path, text, shown):
    path = tmp_path / "theory.json"
    path.write_text(_so3_text(u123=text))
    code, _, err = run(capsys, "solve", str(path), "--order", "2")
    assert code == 2
    assert _one_error_line(err) == (f"error: invalid structure table: U[1,2,3] {shown}: "
                                    f"line 1, col {len(text)}: unexpected ')'")


def test_long_entries_give_short_error_lines(capsys, tmp_path):
    # a 5,000-digit literal is named by its entry and length, and the
    # column still counts in the text as written
    path = tmp_path / "theory.json"
    path.write_text(_so3_text(u123="1 + " + _LONG))
    code, _, err = run(capsys, "solve", str(path), "--order", "2")
    assert code == 2
    assert _one_error_line(err) == (
        "error: invalid structure table: U[1,2,3] (5004 characters): "
        "line 1, col 5: integer of 5000 digits is too long")

    doc = json.loads(_so3_text())
    doc["observables"].append({"name": "bad", "expr": "J1 * " + _LONG})
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "lift", str(path), "--observable", "J1sq", "--order", "2")
    assert code == 2
    assert _one_error_line(err) == ("error: observable bad (5005 characters): "
                                    "line 1, col 6: integer of 5000 digits is too long")


def test_own_coefficient_past_the_digit_limit_exits_2(capsys, tmp_path):
    # 3,000-digit structure constants parse, but the order-4 charges have
    # coefficients past 4,300 digits: like an exceeded term budget, the
    # lines printed before stay, then one error line
    path = tmp_path / "theory.json"
    doc = json.loads(_so3_text())
    doc["U"] = {key: "7" * 3000 for key in doc["U"]}
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", str(path), "--order", "4")
    assert code == 2
    assert out.splitlines() == ["theory so3: 3 constraints, 0 physical coordinates",
                                "Jacobi identity: holds on all coordinate triples"]
    assert _one_error_line(err) == (
        "error: a coefficient of more than 4300 digits is too long to write")


# -- one check rendering and pass rule for solve and verify ------------------


def test_solve_reports_boundary_violations_in_verify_wording(capsys, monkeypatch):
    golden = (GOLDEN_DIR / "verify-omega-so3-tampered.txt").read_text(encoding="utf-8")
    violated = [r for r in golden.splitlines() if r.startswith("boundary condition violated: ")]
    assert len(violated) == 1
    problem = violated[0].removeprefix("boundary condition violated: ")
    monkeypatch.setattr(solver_mod, "boundary_violations", lambda omega: [problem])
    code, out, _ = run(capsys, "solve", str(THEORY_DIR / "so3.json"), "--order", "3",
                       "--method", "fixed-point")
    assert code == 1
    rows = out.splitlines()
    assert rows[-1] == violated[0]
    assert "master equations: satisfied through cp-degree 3" in rows
    assert not any("VIOLATED" in r for r in rows)


# -- every input error is one InputError, every bad command line one line ----


def test_input_errors_are_one_class():
    assert sp2brst.InputError is InputError and issubclass(InputError, ValueError)
    for cls in (TheoryError, TheoryFileError, ExprError, DigitLimitError):
        assert issubclass(cls, InputError), cls
    # failed checks and an exhausted term budget are not bad input
    for cls in (NotFirstClassError, SymmetryError, OutsideDomainError, ConventionError,
                TermBudgetError):
        assert not issubclass(cls, InputError), cls


_SO3 = str(THEORY_DIR / "so3.json")


@pytest.mark.parametrize("argv, named", [
    ([], "command"),
    (["frobnicate"], "'frobnicate'"),
    (["solve"], "file"),
    (["lift", _SO3], "--observable"),
    (["solve", _SO3, "--order", "abc"], "argument --order: invalid integer value: 'abc'"),
    (["solve", _SO3, "--order", "1"], "argument --order: must be at least 2, got 1"),
    (["solve", _SO3, "--order", "1001"], "argument --order: must be at most 1000, got 1001"),
    (["solve", _SO3, "--method", "nope"], "argument --method: invalid choice: 'nope'"),
    (["solve", _SO3, "--bogus"], "unrecognized arguments: --bogus"),
    (["check-identities", "--samples", "0"], "argument --samples: must be at least 1, got 0"),
    (["check-identities", "--degree", "x"], "argument --degree: invalid integer value: 'x'"),
    (["solve", _SO3, "a\nb"], "unrecognized arguments: a b"),
], ids=["nothing", "unknown-command", "no-file", "no-observable", "order-not-integer",
        "order-1", "order-1001", "unknown-method", "unknown-option", "samples-0",
        "degree-not-integer", "newline"])
def test_bad_command_lines_are_input_errors(capsys, argv, named):
    # argparse refuses them, as one error line and exit 2, not with its
    # usage text and SystemExit
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert named in _one_error_line(err)
    assert "usage:" not in err


_NINES = "9" * 5000


@pytest.mark.parametrize("argv, error", [
    (["check-identities", "--samples", " 1_0"],
     "argument --samples: invalid integer value: ' 1_0'"),
    (["check-identities", "--seed", "+1"], "argument --seed: invalid integer value: '+1'"),
    (["solve", _SO3, "--order", "\u0663"], "argument --order: invalid integer value: '\u0663'"),
    (["solve", _SO3, "--order", "3 "], "argument --order: invalid integer value: '3 '"),
    (["solve", _SO3, "--order", _NINES], "argument --order: integer of 5000 digits is too long"),
    (["solve", _SO3, "--order", "9" * 81],
     "argument --order: must be at most 1000, got (81 characters)"),
    (["solve", _SO3, "--order", "x" * 81],
     "argument --order: invalid integer value: (81 characters)"),
    (["check-identities", "--degree", "-" + "9" * 100],
     "argument --degree: must be at least 1, got (101 characters)"),
], ids=["space-underscore", "plus", "arabic-indic-digit", "trailing-space", "5000-nines",
        "81-nines", "81-letters", "long-negative"])
def test_option_integers_are_ascii_digits(capsys, argv, error):
    # int() reads all but the last three of these; an option reads only
    # -?[0-9]+, and a long refused value is shown by its length
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert _one_error_line(err) == "error: " + error


@pytest.mark.parametrize("raw, shown", [
    (" 10", "' 10'"), ("1_000", "'1_000'"), ("+10", "'+10'"), ("\u0661\u0660", "'\u0661\u0660'"),
    ("0", "'0'"), (_NINES, "(5000 characters)")])
def test_term_budget_is_read_as_ascii_digits(capsys, monkeypatch, raw, shown):
    monkeypatch.setenv("SP2_BRST_MAX_TERMS", raw)
    code, out, err = run(capsys, "solve", _SO3, "--order", "2")
    assert code == 2 and out == ""
    assert _one_error_line(err) == (
        f"error: SP2_BRST_MAX_TERMS must be a positive integer, got {shown}")


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as e:
        main(["solve", "--help"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sp2brst solve ")


def _out_argv(command, out_path):
    argv = [command, str(THEORY_DIR / "shift.json"), "--out", str(out_path)]
    return argv + ["--observable", "Tq"] if command == "lift" else argv


@pytest.mark.parametrize("command", ["solve", "lift"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_is_refused_before_the_run(capsys, tmp_path, command, where):
    out_path = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    code, out, err = run(capsys, *_out_argv(command, out_path))
    assert code == 2 and out == ""  # refused before the header, and before the solve
    error = _one_error_line(err)
    assert error.startswith("error: argument --out: [Errno ") and str(out_path) in error


@pytest.mark.parametrize("argv, budget, code", [
    (["solve", _SO3, "--order", "4"], "10", 2),
    (["lift", _SO3, "--observable", "1", "--order", "4"], "10", 2),
    (["lift", str(THEORY_DIR / "shift.json"), "--observable", "q"], None, 1),
], ids=["solve-past-budget", "lift-past-budget", "lift-rejected"])
def test_a_run_that_stops_before_its_write_leaves_no_file(capsys, tmp_path, monkeypatch,
                                                          argv, budget, code):
    if budget:
        monkeypatch.setenv("SP2_BRST_MAX_TERMS", budget)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept")
    for path in (new, old):
        assert run(capsys, *argv, "--out", str(path))[0] == code
    assert not new.exists() and old.read_text() == "kept"


def test_huge_polynomial_power_is_refused_at_once(capsys, tmp_path):
    # (1+J1)^100000 is refused at the squaring whose pairs of terms pass
    # the term budget, before that product forms
    doc = json.loads(_so3_text())
    doc["U"] = {"1,2,1": "(1+J1)^100000"}
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(doc))
    started = time.monotonic()
    code, out, err = run(capsys, "solve", str(path), "--order", "2")
    assert time.monotonic() - started < 5
    assert code == 2 and out == ""
    assert _one_error_line(err) == (
        "error: invalid structure table: U[1,2,1] '(1+J1)^100000': line 1, col 8: "
        "a product of 1025 by 1025 terms is past the term budget (1000000)")
