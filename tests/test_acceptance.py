"""Acceptance suite: the end-to-end claims of the package, checked exactly.

Each criterion is one test that does its own work from scratch (no shared
solver fixtures), measures its own runtime against a fixed budget, and
prints exactly one pass/fail summary line.  Run with ``pytest -s`` to see
the lines as they are produced.

All arithmetic is exact rational arithmetic; every "zero" below means
identically zero through the stated cp-degree, not zero to tolerance.
"""

import time

import pytest

from sp2brst.algebra import Algebra
from sp2brst.cli import main
from sp2brst.identities import run_identity_suite
from sp2brst.observables import (NotFirstClassError, check_first_class,
                                 lift, restrict, verify_realization)
from conftest import THEORY_DIR, bundled
from solver_oracles import (boundary_seed, descendant_expand, descendant_trees,
                            double_factorial, ghost, multi_bracket, xip)
from sp2brst.solver import (Method, SymTensor, build_pi0, solve,
                            solve_pi_descendants, solve_pi_fixed_point,
                            verify_master)
from sp2brst.theory import TheorySpec, jacobi_violations, mixed_parity_spec


def _finish(num, label, failures, elapsed, budget=None):
    ok = not failures and (budget is None or elapsed <= budget)
    timing = f"{elapsed:.2f}s" + (f" <= {budget:.0f}s" if budget else "")
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}  {label}  [{timing}]")
    assert not failures, f"criterion {num}: " + "; ".join(failures)
    if budget is not None:
        assert elapsed <= budget, (
            f"criterion {num}: runtime {elapsed:.2f}s over budget {budget}s")


def test_criterion_1_operator_identity_suite():
    start = time.perf_counter()
    failures = []
    rep = run_identity_suite(degree=4, samples=100, seed=0)
    if not rep.ok:
        failures += [f"{r.name} failed {r.failures}/{r.samples}"
                     for r in rep.results if not r.ok]
    if len(rep.results) != 21:
        failures.append(f"expected 21 identities, saw {len(rep.results)}")
    if rep.samples != 100:
        failures.append("wrong sample count")
    _finish(1, "operator identity suite (100 mixed-parity samples)",
            failures, time.perf_counter() - start, budget=60)


def test_criterion_2_abelian_collapses_to_boundary():
    start = time.perf_counter()
    failures = []
    res = solve(bundled("abelian3"), 6, Method.BOTH)
    alg = res.algebra
    if not res.pi.is_zero():
        failures.append("correction Pi is nonzero for an abelian theory")
    if res.omega != res.omega1:
        failures.append("Omega differs from the boundary charge")
    if not res.report.residual.is_zero():
        failures.append("master residual is nonzero")
    if not res.report.agree:
        failures.append("direct and structured residuals disagree")
    phi0 = alg.mul(alg.xi(1), alg.xi(2)) + alg.mul(alg.xi(3), alg.xi(3))
    lifted = lift(phi0, res)
    if not lifted.k_part.is_zero():
        failures.append("lift produced a nonzero correction K")
    if not lifted.ok:
        failures.append("lift verification failed")
    _finish(2, "abelian theory collapses to the boundary charge",
            failures, time.perf_counter() - start, budget=5)


def test_criterion_3_so3_end_to_end():
    start = time.perf_counter()
    failures = []
    res = solve(bundled("so3"), 6, Method.BOTH)
    # report.residual is the direct evaluation of {Omega^a, Omega^b}',
    # independent of how Pi was produced
    if not res.report.residual.is_zero():
        failures.append("direct master residual nonzero through cp-degree 6")
    if not res.report.agree:
        failures.append("direct and structured residuals disagree")
    if res.report.boundary:
        failures.append("boundary read-offs violated: "
                        + "; ".join(res.report.boundary))
    seed = boundary_seed(res.algebra)
    pi_fp = solve_pi_fixed_point(seed, res.k)
    pi_ds = solve_pi_descendants(build_pi0(seed, res.k), res.k)
    if pi_fp != pi_ds:
        failures.append("fixed-point and descendant corrections differ")
    if pi_fp != res.pi:
        failures.append("solver output differs from the explicit methods")
    _finish(3, "so(3) charges verified end-to-end at cp-degree 6",
            failures, time.perf_counter() - start, budget=120)


def test_criterion_4_mixed_parity_theory():
    start = time.perf_counter()
    failures = []
    spec = mixed_parity_spec()
    alg = Algebra(spec)
    if jacobi_violations(alg):
        failures.append("structure functions fail the Jacobi identity")
    res = solve(alg, 4, Method.BOTH)
    if not res.ok:
        failures.append("mixed-parity solve failed verification")
    _finish(4, "mixed-parity theory verified at cp-degree 4",
            failures, time.perf_counter() - start, budget=120)


def _oracle_trees(leaves):
    """Unordered full pairing trees by root bipartition: the block holding
    the first leaf pairs against its complement.  Independent of the
    pair-collapse recursion used by descendant_trees."""
    if len(leaves) == 1:
        return {leaves[0]}
    first, rest = leaves[0], list(leaves[1:])
    out = set()
    for bits in range(2 ** len(rest) - 1):
        left = [first] + [x for i, x in enumerate(rest) if bits & (1 << i)]
        right = [x for i, x in enumerate(rest) if not bits & (1 << i)]
        for lt in _oracle_trees(left):
            for rt in _oracle_trees(right):
                out.add("(" + min(lt, rt) + "," + max(lt, rt) + ")")
    return out


def test_criterion_5_descendant_combinatorics():
    start = time.perf_counter()
    failures = []
    three = descendant_trees(3)
    if three != {"((1,2),3)", "((1,3),2)", "((2,3),1)"}:
        failures.append(f"wrong trees for m=3: {sorted(three)}")
    four = descendant_trees(4)
    if len(four) != 15 or double_factorial(2 * 4 - 3) != 15:
        failures.append(f"expected 15 trees for m=4, saw {len(four)}")
    for m in (3, 4):
        if descendant_trees(m) != _oracle_trees([str(i) for i in range(1, m + 1)]):
            failures.append(f"tree set for m={m} differs from enumeration oracle")
    alg = bundled("so3")
    pi0 = build_pi0(boundary_seed(alg), 6)
    for m in (3, 4):
        xs = [pi0] * m
        if multi_bracket(xs, 6) != descendant_expand(xs, 6):
            failures.append(f"recursion and descendant sum differ at m={m}")
    _finish(5, "descendant tree combinatorics", failures,
            time.perf_counter() - start, budget=30)


def test_criterion_6_casimir_realization():
    start = time.perf_counter()
    failures = []
    res = solve(bundled("so3"), 6, Method.BOTH)
    alg = res.algebra
    casimir = sum((alg.mul(alg.xi(i), alg.xi(i)) for i in (1, 2, 3)),
                  alg.zero())
    casimir2 = alg.mul(casimir, casimir)
    lifts = []
    for phi0 in (casimir, casimir2):
        lifted = lift(phi0, res)
        lifts.append(lifted)
        if not lifted.ok:
            failures.append("lift verification failed")
        if restrict(lifted.phi_prime) != phi0:
            failures.append("restriction does not invert the lift")
    real = verify_realization(lifts[0], lifts[1])
    if not real.bracket_ok:
        failures.append("bracket of lifts does not restrict to the bracket")
    if not real.product_ok:
        failures.append("product of lifts does not restrict to the product")
    _finish(6, "Casimir observable lifts and realization",
            failures, time.perf_counter() - start, budget=120)


def test_criterion_7_negative_controls(tmp_path, capsys):
    start = time.perf_counter()
    failures = []

    # a perturbed charge must be caught, in the library and by the CLI
    res = solve(bundled("so3"), 4, Method.BOTH)
    alg = res.algebra
    extra = alg.mul(alg.xi(1), ghost(alg, 1, 1))
    bad = SymTensor.from_full(
        alg, 1,
        lambda idx: res.omega.get(idx) + (extra if idx == (1,) else alg.zero()))
    rep = verify_master(bad, 4)
    if rep.ok:
        failures.append("verify_master accepted a perturbed charge")
    if rep.residual.is_zero():
        failures.append("perturbed charge left no residual")

    theory = THEORY_DIR / "so3.json"
    omega_path = tmp_path / "omega.json"
    if main(["solve", str(theory), "--order", "4",
             "--out", str(omega_path)]) != 0:
        failures.append("baseline solve did not exit 0")
    doc = omega_path.read_text()
    assert "xi[1]*C[1,1]" in doc
    tampered = tmp_path / "tampered.json"
    tampered.write_text(doc.replace("xi[1]*C[1,1]", "2*xi[1]*C[1,1]", 1))
    if main(["verify", str(theory), str(tampered)]) != 1:
        failures.append("CLI did not exit 1 on a tampered charge")

    # a non-first-class observable must be rejected with a witness
    spec = TheorySpec((0,), physical_parities=(0,),
                      mixed_table={(1, 2): "1"}, label="shift")
    shift_res = solve(Algebra(spec), 3, Method.BOTH)
    q = xip(shift_res.algebra, 1)
    with pytest.raises(NotFirstClassError) as err:
        check_first_class(q)
    if err.value.alpha != 1 or err.value.remainder.is_zero():
        failures.append("first-class check produced no witness for q")
    with pytest.raises(NotFirstClassError) as err:
        lift(q, shift_res)
    if err.value.alpha != 1 or err.value.remainder.is_zero():
        failures.append("rejection carries no usable witness")
    if main(["lift", str(THEORY_DIR / "shift.json"),
             "--observable", "q"]) != 1:
        failures.append("CLI did not exit 1 on a non-first-class observable")

    capsys.readouterr()  # drop the CLI chatter; keep one summary line
    _finish(7, "negative controls are detected",
            failures, time.perf_counter() - start)
