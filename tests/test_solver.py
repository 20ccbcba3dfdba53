"""Charge construction: boundary part, residuals, methods, regressions."""

import random

import pytest

import sp2brst.solver as solver_mod
from solver_oracles import (a_component_by_brackets, boundary_seed, ghost, lagrange,
                            lagrange_mom, term_cpdeg, term_parity)
from sp2brst.algebra import Algebra, TermBudgetError, TheoryError
from sp2brst.identities import random_element
from sp2brst.operators import apply_W, apply_W_plus, w_component
from sp2brst.solver import (
    MAX_ORDER,
    Method,
    apply_A,
    build_omega1,
    build_pi0,
    solve,
    solve_pi_descendants,
    solve_pi_fixed_point,
    validate_upsilon,
    verify_master,
)
from sp2brst.tensors import SymTensor
from sp2brst.theory import abelian_spec, deformed_so3_spec, so3_spec


def test_omega1_explicit_form():
    alg = Algebra(abelian_spec(2))
    om1 = build_omega1(alg)
    a = alg
    want1 = (a.xi(1) * ghost(a, 1, 1) + a.xi(2) * ghost(a, 2, 1)
             + a.ghost_mom(1, 2) * lagrange_mom(a, 1)
             + a.ghost_mom(2, 2) * lagrange_mom(a, 2))
    want2 = (a.xi(1) * ghost(a, 1, 2) + a.xi(2) * ghost(a, 2, 2)
             - a.ghost_mom(1, 1) * lagrange_mom(a, 1)
             - a.ghost_mom(2, 1) * lagrange_mom(a, 2))
    assert om1.get((1,)) == want1
    assert om1.get((2,)) == want2
    for a_idx in (1, 2):
        comp = om1.get((a_idx,))
        assert comp.parity() == 1
        assert comp.ngh() == 1


def test_f_equals_direct_omega1_bracket(so3_result):
    alg = so3_result.algebra
    om1 = so3_result.omega1
    direct = SymTensor.from_full(
        alg, 2, lambda idx: alg.bracket(om1.get((idx[0],)), om1.get((idx[1],))))
    assert so3_result.f == direct
    assert not direct.is_zero()


def test_f_vanishes_for_abelian(abelian_result):
    assert abelian_result.f.is_zero()
    assert abelian_result.pi.is_zero()
    assert abelian_result.omega == abelian_result.omega1
    assert abelian_result.ok


def test_omega1_bracket_is_w_plus_a():
    # {Omega_1^a, Y}' = W^a Y + A^a Y for every Y: the identity that welds
    # the operator calculus to the bracket, with A^a Y the matter bracket
    # {Xi^a, Y}' and, as the oracle has it, C^(alpha a) {xi_alpha, Y}'.
    alg = Algebra(so3_spec())
    om1 = build_omega1(alg)
    rng = random.Random(21)
    for _ in range(15):
        y = random_element(alg, rng, max_cp=3, max_n=3)
        ay = apply_A(SymTensor.from_scalar(y))
        for a in (1, 2):
            full = alg.bracket(om1.get((a,)), y)
            assert full == w_component(y, a) + ay.get((a,))
            assert full == w_component(y, a) + a_component_by_brackets(y, a)


def test_so3_solution(so3_result):
    res = so3_result
    assert res.ok
    assert res.report.agree
    assert not res.report.boundary
    # the so(3) correction terminates at cp-degree 3
    alg = res.algebra
    degs = {term_cpdeg(alg, m) for c in res.pi.comps.values() for m in c.terms}
    assert degs == {2, 3}
    # boundary part untouched: Pi starts at cp-degree 2
    assert (res.omega - res.pi) == res.omega1


def test_so3_truncation_stability(so3_result):
    # solving at a lower order reproduces the truncation of the k=6 solution
    res4 = solve(Algebra(so3_spec()), 4, Method.FIXED_POINT)
    assert res4.pi == so3_result.pi.truncate_cp(4)
    assert res4.ok


def test_methods_agree_independently(so3_result):
    seed = boundary_seed(so3_result.algebra)
    pi0 = build_pi0(seed, 4)
    fixed = solve_pi_fixed_point(seed, 4)
    desc = solve_pi_descendants(pi0, 4)
    assert fixed == desc
    assert fixed == so3_result.pi.truncate_cp(4)


def test_mixed_parity_solution(mixed2_result):
    assert mixed2_result.ok
    assert mixed2_result.report.agree
    assert not mixed2_result.pi.is_zero()


def test_deformed_so3_solution():
    res = solve(Algebra(deformed_so3_spec()), 4, Method.FIXED_POINT)
    assert res.ok
    assert res.pi.min_cp() == 2


def test_pair_normalisation_is_pinned(monkeypatch):
    # with -1/4 in place of -1/2 the fixed point no longer solves the
    # master equations: the residual shows up at cp-degree 3
    monkeypatch.setattr(solver_mod, "PAIR_DIVISOR", -4)
    res = solve(Algebra(so3_spec()), 4, Method.FIXED_POINT)
    assert not res.ok
    bad = [line.degree for line in res.report.lines if not line.direct_zero]
    assert bad and bad[0] == 3
    assert res.report.agree  # the two residual evaluations still agree


def test_residual_identity_for_arbitrary_pi(so3_result):
    # G = W Pi + F + A Pi + quad(Pi) equals {Omega, Omega} for ANY odd Pi,
    # solution or not
    alg = so3_result.algebra
    rng = random.Random(22)
    junk = alg.zero()
    while junk.is_zero():
        raw = random_element(alg, rng, max_cp=3, max_n=2)
        junk = alg.poly({m: c for m, c in raw.terms.items()
                         if term_parity(alg, m) == 1})
    pert = SymTensor.from_full(alg, 1, lambda idx: junk)
    omega = so3_result.omega + pert
    report = verify_master(omega, 4)
    assert report.agree
    assert not report.residual.is_zero()


def test_tampered_omega_detected(so3_result):
    alg = so3_result.algebra
    omega = so3_result.omega
    tampered = omega + SymTensor.from_full(
        alg, 1, lambda idx: alg.xi(2) * ghost(alg, 2, idx[0]))
    report = verify_master(tampered, so3_result.k)
    assert not report.residual.is_zero()
    assert report.agree


def test_upsilon_threading():
    alg = Algebra(so3_spec())
    ups = _upsilon(alg)
    assert not ups.is_zero()
    validate_upsilon(alg, ups)
    res = solve(alg, 4, Method.BOTH, upsilon=ups)
    assert res.ok
    assert res.report.agree
    # the W+ part of Pi is exactly the datum
    assert apply_W_plus(res.pi) == apply_W_plus(ups)
    plain = solve(Algebra(so3_spec()), 4, Method.FIXED_POINT)
    assert res.pi != plain.pi


def _upsilon(alg):
    """A boundary datum: odd, ngh 1, from cp-degree 2 and W-closed."""
    return apply_W(SymTensor.from_scalar(lagrange(alg, 1) * ghost(alg, 1, 1) * ghost(alg, 1, 2)))


def test_upsilon_validation():
    alg = Algebra(so3_spec())
    with pytest.raises(TheoryError):
        validate_upsilon(alg, SymTensor.zero(alg, 2))
    even = SymTensor.from_full(
        alg, 1, lambda idx: lagrange_mom(alg, 1) * ghost(alg, 1, 1) * ghost(alg, 1, 2))
    with pytest.raises(TheoryError):
        validate_upsilon(alg, even)
    mixed = SymTensor.from_full(alg, 1, lambda idx: ghost(alg, 1, 1) + alg.xi(1))
    with pytest.raises(TheoryError, match="odd with ngh = 1"):
        validate_upsilon(alg, mixed)  # terms of both parities
    foreign = _upsilon(Algebra(abelian_spec(3)))
    with pytest.raises(TheoryError, match="theory"):
        validate_upsilon(alg, foreign)
    with pytest.raises(TheoryError, match="theory"):
        solve(alg, 3, upsilon=foreign)
    low = build_omega1(alg)  # odd, ngh 1, but cp-degree 1
    with pytest.raises(TheoryError):
        validate_upsilon(alg, low)
    not_closed = SymTensor.from_full(
        alg, 1, lambda idx: lagrange(alg, 1) * ghost(alg, 1, 1) * lagrange_mom(alg, 1))
    with pytest.raises(TheoryError):
        validate_upsilon(alg, not_closed)


def test_term_budget_enforced():
    alg = Algebra(so3_spec(), max_terms=10)
    with pytest.raises(TermBudgetError):
        solve(alg, 4, Method.FIXED_POINT)


def test_config_validation():
    with pytest.raises(ValueError):
        solve(Algebra(so3_spec()), 1)
    with pytest.raises(ValueError):
        Algebra(so3_spec(), max_terms=0)


def test_solve_caps_the_order():
    # one abelian constraint has no correction, so even MAX_ORDER is quick
    alg = Algebra(abelian_spec(1))
    assert solve(alg, MAX_ORDER).k == MAX_ORDER == 1000
    with pytest.raises(ValueError, match="from 2 to 1000"):
        solve(alg, MAX_ORDER + 1)


def test_twin_instance_compatibility():
    # a solve over one Algebra instance verifies against tensors built over
    # a structurally identical instance
    res = solve(Algebra(so3_spec()), 3, Method.FIXED_POINT)
    other = Algebra(so3_spec())
    om1_other = build_omega1(other)
    assert res.omega1 == om1_other
    report = verify_master(res.omega1 + (res.omega - om1_other), res.k)
    assert report.ok


def test_apply_a_matches_component_sum():
    alg = Algebra(so3_spec())
    rng = random.Random(23)
    t = SymTensor.from_full(alg, 1,
                            lambda idx: random_element(alg, rng, max_cp=2, max_n=2)
                            if idx == (1,) else alg.xi(1))
    at = apply_A(t)
    assert at.rank == 2
    assert at.get((1, 2)) == (a_component_by_brackets(t.get((2,)), 1)
                              + a_component_by_brackets(t.get((1,)), 2))
