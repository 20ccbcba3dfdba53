"""W+ = Q Gamma as the Q step on each component of the Gamma
contraction, against its definition.

apply_Gamma is the GradedPoly sum of two gamma_component passes per
output component, and it must equal gamma_by_passes.  apply_W_plus then
applies M twice to each component and folds Q's powers of N into one
scale per term; it must equal Q with M applied three times after the
Gamma contraction, and the whole-tensor passes of replace_left it
replaced, also where the term budget stops them.
"""

import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from solver_oracles import (apply_Q, apply_Q_three_m, apply_W_plus_by_passes,
                            gamma_by_passes, ghost, lagrange, m_by_passes, term_ndeg)
from sp2brst.algebra import Algebra, TermBudgetError
from sp2brst.identities import random_element, random_tensor
from sp2brst.operators import apply_Gamma, apply_W_plus, m_component
from sp2brst.tensors import SymTensor
from sp2brst.theoryfile import build_algebra, parse_theory

THEORY_DIR = Path(__file__).resolve().parent.parent / "theories"
THEORIES = ("mixed2", "so3-deformed", "shift")


@cache
def _algebra(name):
    return build_algebra(parse_theory((THEORY_DIR / f"{name}.json").read_bytes()))


def _tensors(name, rank, count=3):
    """Seeded random tensors; random_element mixes the denominators."""
    alg = _algebra(name)
    rng = random.Random(f"w-plus-chain-{name}-{rank}")
    max_n = 3 if rank < 4 else 2
    return [random_tensor(alg, rng, rank, max_cp=3, max_n=max_n) for _ in range(count)]


def _twin(t: SymTensor, max_terms: int) -> SymTensor:
    """t over a twin algebra with the given term budget."""
    small = Algebra(t.alg.spec, max_terms=max_terms)
    return SymTensor(small, t.rank,
                     {idx: small.poly(p.terms) for idx, p in t.comps.items()})


@pytest.mark.parametrize("name", THEORIES)
@pytest.mark.parametrize("rank", range(5))
def test_w_plus_matches_q_three_m_after_gamma(name, rank):
    for t in _tensors(name, rank):
        want = apply_Q_three_m(gamma_by_passes(t)) if rank else SymTensor.zero(t.alg, 0)
        assert apply_W_plus(t) == want
        assert apply_W_plus(t) == apply_W_plus_by_passes(t)
        if rank:
            assert apply_Gamma(t) == gamma_by_passes(t)


@pytest.mark.parametrize("rank", range(5))
def test_q_matches_q_three_m_on_deformed(rank):
    for t in _tensors("so3-deformed", rank):
        assert apply_Q(t) == apply_Q_three_m(t)


@pytest.mark.parametrize("name", THEORIES)
def test_m_component_is_gamma_a_w_a(name):
    alg = _algebra(name)
    rng = random.Random(f"m-component-{name}")
    for _ in range(20):
        p = random_element(alg, rng, max_cp=3, max_n=3)
        assert m_component(p) == m_by_passes(p)
    assert m_component(alg.zero()).is_zero()


@pytest.mark.parametrize("name", THEORIES)
def test_w_plus_on_rank_zero_is_rank_zero_zero(name):
    t = _tensors(name, 0, count=1)[0]
    assert t
    out = apply_W_plus(t)
    assert out.rank == 0 and out.is_zero()


def test_w_plus_with_cancelling_gamma_images():
    # Gamma_1 P[1,2] = lam[1] = -Gamma_2 P[1,1]: the contraction of the
    # (1, .) components of t is zero, a cancellation inside one sum
    alg = _algebra("so3-deformed")
    rng = random.Random("w-plus-cancel")
    rest = random_element(alg, rng, max_cp=2, max_n=2)
    t = SymTensor(alg, 2, {(1, 1): alg.ghost_mom(1, 2), (1, 2): alg.ghost_mom(1, 1),
                           (2, 2): rest})
    assert gamma_by_passes(t).get((1,)).is_zero()
    assert apply_Gamma(t).get((1,)).is_zero()
    out = apply_W_plus(t)
    assert out == apply_Q_three_m(gamma_by_passes(t))
    assert out == apply_W_plus_by_passes(t)
    assert out.get((1,)).is_zero() and out.get((2,))


def test_budget_checked_inside_the_chain():
    # The budget B sits at or above every input, contraction and output
    # component but below the largest polynomial formed by the passes of
    # M: W+ must raise where the pass-by-pass oracle does, with the same
    # message, and a chain that checked only its result would not.
    t = _tensors("so3-deformed", 3)[1]
    x = gamma_by_passes(t)
    out = apply_W_plus(t)
    floor = max(p.term_count() for T in (t, x, out) for p in T.comps.values())
    need = floor
    while True:
        try:
            apply_W_plus_by_passes(_twin(t, need))
            break
        except TermBudgetError:
            need += 1
    assert floor < need, "no intermediate above the chain's ends"
    for budget in range(floor, need):
        with pytest.raises(TermBudgetError) as want:
            apply_W_plus_by_passes(_twin(t, budget))
        with pytest.raises(TermBudgetError, match=f"budget {budget}") as got:
            apply_W_plus(_twin(t, budget))
        assert str(got.value) == str(want.value)
    assert apply_W_plus(_twin(t, need)).comps == out.comps


@pytest.mark.parametrize("n", (7, 8, 15, 16))
def test_q_reads_n_degree_at_field_edges(n):
    # mixed2's xi[1], P[2,i], lam[1] and C[2,i] are even, so a term can
    # carry any N-degree: a pure-N term of degree n = 7 or 15 fills the
    # 3- or 4-bit field of its chain, and 8 and 16 take one bit more
    alg = _algebra("mixed2")
    xi, lam = alg.xi(1), lagrange(alg, 1)

    def comp(i):
        p_i = alg.ghost_mom(2, i)
        return (xi ** (n - 4) * p_i ** 2 * lam ** 2 * Fraction(3, 5)
                + xi ** (n - 3) * ghost(alg, 2, 3 - i) * p_i * Fraction(-7, 2)
                + xi * lam ** (n - 1))

    for rank in range(3):
        t = SymTensor(alg, rank, {idx: comp(1 + sum(idx) % 2)
                                  for idx in SymTensor.zero(alg, rank).indices()})
        assert max(term_ndeg(alg, m) for p in t.comps.values() for m in p.terms) == n
        assert apply_Q(t) == apply_Q_three_m(t)
        if rank:
            assert apply_W_plus(t) == apply_Q_three_m(gamma_by_passes(t))
            assert apply_W_plus(t) == apply_W_plus_by_passes(t)
