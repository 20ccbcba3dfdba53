"""Command-line pipeline: exit codes, determinism, document round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sp2brst.cli as cli_mod
import sp2brst.solver as solver_mod
from sp2brst.cli import main
from sp2brst.operators import OutsideDomainError
from sp2brst.solver import ConventionError
from sp2brst.tensors import SymmetryError, SymTensor

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
        extra = alg.ghost(1, 1) * alg.ghost(2, 1) * alg.ghost(3, 1)
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

    code, _, err = run(capsys, "lift", str(THEORY_DIR / "so3.json"),
                       "--observable", "nope", "--order", "3")
    assert code == 2
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
    code, out, _ = run(capsys, "solve", str(bad))
    assert code == 2
    assert "Jacobi identity: VIOLATED" in out


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
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert _one_error_line(err) == "error: --order must be at least 2, got 1"


def test_identity_degree_below_one_is_input_error(capsys):
    code, out, err = run(capsys, "check-identities", "--degree", "0")
    assert code == 2
    assert out == ""
    assert _one_error_line(err) == "error: --degree must be at least 1, got 0"


def test_identity_zero_samples_is_input_error(capsys):
    code, out, err = run(capsys, "check-identities", "--samples", "0")
    assert code == 2
    assert "all identities hold" not in out
    assert _one_error_line(err) == "error: --samples must be at least 1, got 0"


def test_lift_observable_by_index(capsys):
    args = (str(THEORY_DIR / "so3.json"), "--order", "4", "--method", "fixed-point")
    code, by_index, _ = run(capsys, "lift", *args, "--observable", "3")
    assert code == 0
    code, by_name, _ = run(capsys, "lift", *args, "--observable", "J1sq")
    assert code == 0
    assert by_index == by_name
    code, _, err = run(capsys, "lift", *args, "--observable", "4")
    assert code == 2
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
    assert code == 2
    assert _one_error_line(err) == ("error: observable g: phi0 must be a "
                                    "polynomial in the matter variables only")
    assert "observable lift" not in out


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
