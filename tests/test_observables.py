"""Lifting first-class functions and the realization of their algebra."""

import pytest

from solver_oracles import ghost, lagrange, lagrange_mom, xip
from sp2brst.algebra import Algebra, TermBudgetError
from sp2brst.observables import (
    BAR_GAMMA,
    NGH,
    NotFirstClassError,
    check_first_class,
    lift,
    restrict,
    verify_realization,
)
from sp2brst.solver import Method, solve
from sp2brst.theory import TheorySpec, deformed_so3_spec, so3_spec

SHIFT = TheorySpec((0,), physical_parities=(0,),
                   mixed_table={(1, 2): "1"}, label="shift")


def _casimir(alg):
    return alg.xi(1) ** 2 + alg.xi(2) ** 2 + alg.xi(3) ** 2


def test_central_function_lifts_to_itself(so3_result):
    alg = so3_result.algebra
    phi0 = _casimir(alg)
    check_first_class(phi0, alg)
    lifted = lift(phi0, so3_result)
    assert lifted.ok
    assert lifted.k_part.is_zero()
    assert lifted.phi_prime == phi0
    assert restrict(lifted.phi_prime) == phi0


def test_noncentral_lift_needs_correction(so3_result):
    alg = so3_result.algebra
    phi0 = alg.xi(1) ** 2
    lifted = lift(phi0, so3_result)
    assert lifted.ok
    assert not lifted.k_part.is_zero()
    assert lifted.report.boundary == ()  # barGamma K = 0, restriction, ngh 0
    assert restrict(lifted.phi_prime) == phi0
    # every correction term carries at least one elevated variable, so the
    # lift is invisible at C = pi = 0
    assert restrict(lifted.k_part).is_zero()


@pytest.mark.parametrize("failed, rows", [
    ((BAR_GAMMA,), ["  boundary barGamma K = 0: NO", "  restriction returns phi0: yes"]),
    ((NGH,), ["  boundary barGamma K = 0: yes", "  restriction returns phi0: yes"]),
])
def test_a_failed_lift_condition_fails_the_one_pass_rule(so3_result, failed, rows):
    # the commutator vanishes, yet a failed boundary condition fails the lift
    lifted = lift(so3_result.algebra.xi(1) ** 2, so3_result)
    bad = lifted._replace(report=lifted.report._replace(boundary=failed))
    assert lifted.ok and not bad.ok and bad.report.residual.is_zero()
    shown = bad.render().splitlines()
    assert shown[0] == "observable lift: FAILED through cp-degree 6"
    assert shown[-2:] == rows


def test_realization_of_the_bracket(so3_result):
    alg = so3_result.algebra
    l1 = lift(alg.xi(1) ** 2, so3_result)
    l2 = lift(alg.xi(2) ** 2, so3_result)
    report = verify_realization(l1, l2)
    assert report.ok
    # {xi1^2, xi2^2} = 4 xi1 xi2 {xi1, xi2} = 4 xi1 xi2 xi3
    want = 4 * alg.xi(1) * alg.xi(2) * alg.xi(3)
    assert report.bracket_expected == want
    assert report.bracket_restricted == want
    assert report.product_expected == alg.xi(1) ** 2 * alg.xi(2) ** 2


def test_realization_with_casimir(so3_result):
    alg = so3_result.algebra
    l1 = lift(_casimir(alg), so3_result)
    l2 = lift(alg.xi(1) ** 2, so3_result)
    report = verify_realization(l1, l2)
    assert report.ok
    assert report.bracket_expected.is_zero()


def test_abelian_lift_is_trivial(abelian_result):
    alg = abelian_result.algebra
    phi0 = alg.xi(1) * alg.xi(2) + alg.xi(3) ** 2
    lifted = lift(phi0, abelian_result)
    assert lifted.ok
    assert lifted.k_part.is_zero()


def test_mixed_parity_lift(mixed2_result):
    alg = mixed2_result.algebra
    phi0 = alg.xi(1) ** 2
    lifted = lift(phi0, mixed2_result)
    assert lifted.ok


def test_deformed_lift():
    res = solve(Algebra(deformed_so3_spec()), 4, Method.FIXED_POINT)
    assert res.ok
    alg = res.algebra
    lifted = lift(alg.xi(2) ** 2, res)
    assert lifted.ok
    assert not lifted.k_part.is_zero()


def test_non_first_class_rejected():
    res = solve(Algebra(SHIFT), 3, Method.FIXED_POINT)
    assert res.ok
    alg = res.algebra
    q = xip(alg, 1)
    with pytest.raises(NotFirstClassError) as err:
        check_first_class(q, alg)
    assert err.value.alpha == 1
    assert err.value.remainder == -1  # {q, xi_1}' = -1 survives at xi = 0
    with pytest.raises(NotFirstClassError) as err:
        lift(q, res)
    assert err.value.alpha == 1
    assert "remainder" in str(err.value)


def test_shift_product_observable_lifts():
    res = solve(Algebra(SHIFT), 3, Method.FIXED_POINT)
    alg = res.algebra
    phi0 = alg.xi(1) * xip(alg, 1)
    check_first_class(phi0, alg)
    lifted = lift(phi0, res)
    assert lifted.ok
    want = (alg.xi(1) * xip(alg, 1)
            - alg.ghost_mom(1, 1) * ghost(alg, 1, 1)
            - alg.ghost_mom(1, 2) * ghost(alg, 1, 2)
            - lagrange(alg, 1) * lagrange_mom(alg, 1))
    assert lifted.phi_prime == want


def test_lift_guards(so3_result):
    alg = so3_result.algebra
    with pytest.raises(ValueError):
        lift(ghost(alg, 1, 1), so3_result)  # not a matter polynomial
    with pytest.raises(ValueError):
        check_first_class(lagrange(alg, 1), alg)
    other = Algebra(SHIFT)
    with pytest.raises(ValueError):
        lift(xip(other, 1), so3_result)


def test_lift_keeps_the_solve_budget():
    # the solve fits in 100 terms, the Neumann series of J1^2's lift does not
    res = solve(Algebra(so3_spec(), max_terms=100), 4, Method.FIXED_POINT)
    with pytest.raises(TermBudgetError):
        lift(res.algebra.xi(1) ** 2, res)


def test_lift_budget_bounds_each_polynomial():
    # the solve forms no polynomial above 40 terms and the lift of J1^2
    # none of its tensors above 160, but one of its polynomials has 254
    res = solve(Algebra(so3_spec(), max_terms=200), 4, Method.FIXED_POINT)
    assert res.ok
    with pytest.raises(TermBudgetError, match="budget 200"):
        lift(res.algebra.xi(1) ** 2, res)


def test_realization_order_mismatch(so3_result):
    alg = so3_result.algebra
    res3 = solve(alg, 3, Method.FIXED_POINT)
    l6 = lift(_casimir(alg), so3_result)
    l3 = lift(_casimir(alg), res3)
    with pytest.raises(ValueError):
        verify_realization(l6, l3)


def test_lift_restrict_roundtrip(so3_result):
    # lifting the restriction of a lifted element reproduces it
    alg = so3_result.algebra
    lifted = lift(alg.xi(1) ** 2, so3_result)
    again = lift(restrict(lifted.phi_prime), so3_result)
    assert again.phi_prime == lifted.phi_prime
