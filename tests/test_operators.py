"""Operator calculus: literal actions, inverses, decomposition, domains."""

import random
from fractions import Fraction

import pytest

from conftest import bundled
from solver_oracles import apply_N_inverse, apply_Q, ghost, lagrange, lagrange_mom
from sp2brst.algebra import Algebra
from sp2brst.identities import random_tensor
from sp2brst.operators import (
    OutsideDomainError,
    apply_Gamma,
    apply_M,
    apply_N,
    apply_W,
    apply_W_plus,
    bar_gamma,
    bar_w,
    gamma_component,
    m_component,
    n_apply,
    n_inverse,
    w_component,
)
from sp2brst.tensors import SymTensor
from sp2brst.theory import mixed_parity_spec

ALG = bundled("so3")


def test_w_literal_actions():
    a = ALG
    assert w_component(a.ghost_mom(1, 1), 1) == a.xi(1)
    assert w_component(a.ghost_mom(1, 1), 2).is_zero()
    assert w_component(a.ghost_mom(2, 2), 2) == a.xi(2)
    # eps^12 = +1, eps^21 = -1
    assert w_component(lagrange(a, 1), 1) == a.ghost_mom(1, 2)
    assert w_component(lagrange(a, 1), 2) == -a.ghost_mom(1, 1)
    assert w_component(ghost(a, 1, 2), 1) == lagrange_mom(a, 1)
    assert w_component(ghost(a, 1, 1), 1).is_zero()
    assert w_component(ghost(a, 1, 1), 2) == -lagrange_mom(a, 1)
    assert w_component(a.xi(1), 1).is_zero()
    assert w_component(lagrange_mom(a, 1), 1).is_zero()


def test_w_sign_on_odd_constraint():
    a = Algebra(mixed_parity_spec())  # constraint 2 is fermionic
    assert w_component(ghost(a, 1, 2), 1) == lagrange_mom(a, 1)
    assert w_component(ghost(a, 2, 2), 1) == -lagrange_mom(a, 2)


def test_gamma_literal_actions():
    a = ALG
    assert gamma_component(a.xi(1), 1) == a.ghost_mom(1, 1)
    assert gamma_component(a.xi(1), 2) == a.ghost_mom(1, 2)
    # -eps_ab lam: eps_12 = -1, eps_21 = +1
    assert gamma_component(a.ghost_mom(1, 2), 1) == lagrange(a, 1)
    assert gamma_component(a.ghost_mom(1, 1), 2) == -lagrange(a, 1)
    assert gamma_component(a.ghost_mom(1, 1), 1).is_zero()
    assert gamma_component(lagrange(a, 1), 1).is_zero()
    assert gamma_component(ghost(a, 1, 1), 1).is_zero()


def test_n_counts_constraint_sector():
    a = ALG
    x = a.xi(1) * lagrange(a, 2) * ghost(a, 1, 1)
    assert n_apply(x) == 2 * x
    assert n_apply(x, 3) == n_apply(n_apply(n_apply(x)))
    assert n_apply(ghost(a, 1, 1)).is_zero()
    assert n_apply(lagrange_mom(a, 1)).is_zero()
    assert n_inverse(x) == x * Fraction(1, 2)
    assert n_inverse(x, 2) == x * Fraction(1, 4)
    with pytest.raises(OutsideDomainError):
        n_inverse(ghost(a, 1, 1))


def test_m_golden_values():
    a = ALG
    # M = Gamma_a W^a: on lam[1] both index routes contribute
    assert m_component(lagrange(a, 1)) == 2 * lagrange(a, 1)
    assert m_component(a.ghost_mom(1, 1)) == a.ghost_mom(1, 1)
    assert m_component(a.xi(1)).is_zero()


def test_q_inverts_nN_plus_M():
    rng = random.Random(3)
    for rank in (1, 2):
        t = random_tensor(ALG, rng, rank, max_cp=3, max_n=3)
        lhs = apply_N(t) * rank + apply_M(t)
        assert apply_Q(lhs) == t
        assert apply_N(apply_Q(t)) * rank + apply_M(apply_Q(t)) == t


def test_q_commutes_through_w():
    # Q on rank 0 is pinned by Q W = W Q
    rng = random.Random(4)
    for rank in (0, 1):
        t = random_tensor(ALG, rng, rank, max_cp=3, max_n=3)
        assert apply_Q(apply_W(t)) == apply_W(apply_Q(t))


def test_outside_domain_propagates():
    t = SymTensor.from_scalar(ghost(ALG, 1, 1))
    with pytest.raises(OutsideDomainError):
        apply_Q(t)


def test_decompose_reconstructs():
    rng = random.Random(5)
    for rank in (1, 2):
        t = random_tensor(ALG, rng, rank, max_cp=3, max_n=3)
        head = apply_W_plus(apply_W(t))
        tail = apply_W(apply_W_plus(t))
        assert head + tail == t
        # the head lies in the image of W+, which (W+)^2 = 0 detects
        assert apply_W_plus(head).is_zero()


def test_v_polynomial_is_not_the_complement():
    # Since Q_n W = W Q_(n-1) for n >= 1, (I - W+ W) X = W Q Gamma X = W W+ X:
    # the complement factor is the identity.  Substituting the rank-n
    # polynomial
    #     V = (n(n^2+4n+6) I - (n-4) M N^-1 - 2 M^2 N^-2) / (n(n+1)(n+2))
    # for Q breaks the reconstruction X = W+ W X + W Q Gamma X, because M's
    # minimal polynomial m(m-N)(m-2N) pins the factor to the identity.
    a = ALG

    def comp(idx):
        i, j = idx
        return a.mul(a.ghost_mom(1, i), a.ghost_mom(2, j)) \
            + a.mul(a.ghost_mom(1, j), a.ghost_mom(2, i))

    def apply_V(x, n):
        c = Fraction(1, n * (n + 1) * (n + 2))
        return (x * (c * n * (n * n + 4 * n + 6))
                - apply_M(apply_N_inverse(x, 1)) * (c * (n - 4))
                - apply_M(apply_M(apply_N_inverse(x, 2))) * (2 * c))

    t = SymTensor.from_full(a, 2, comp)
    head = apply_W_plus(apply_W(t))
    good = head + apply_W(apply_Q(apply_Gamma(t)))
    assert good == t
    bad = head + apply_W(apply_V(apply_Gamma(t), 2))
    assert bad != t


def test_bar_identity_fails_off_kernel():
    # barW barGamma - barGamma barW = 4N^2 - 2MN does not hold on all of V:
    # lam[1] is a counterexample (it is not W-closed).
    x = lagrange(ALG, 1)
    assert bar_gamma(x).is_zero()
    assert bar_w(x) == 2 * ALG.xi(1)
    lhs = bar_w(bar_gamma(x)) - bar_gamma(bar_w(x))
    rhs = 4 * n_apply(n_apply(x)) - 2 * m_component(n_apply(x))
    assert lhs == -4 * x
    assert rhs.is_zero()
    assert lhs != rhs
    assert not apply_W(SymTensor.from_scalar(x)).is_zero()


def test_w_raises_rank_symmetrically():
    rng = random.Random(6)
    t = random_tensor(ALG, rng, 1, max_cp=2, max_n=2)
    wt = apply_W(t)
    assert wt.rank == 2
    # each component is the sum over placements of the new index
    assert wt.get((1, 2)) == (w_component(t.get((2,)), 1)
                              + w_component(t.get((1,)), 2))
    assert wt.get((1, 1)) == 2 * w_component(t.get((1,)), 1)
    assert apply_W(wt).is_zero()  # symmetrized nilpotency at the tensor level

