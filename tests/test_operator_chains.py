"""W, Gamma and the bar operators, composed of packed passes, against the
same compositions of derivative-by-derivative passes.

apply_W is SymTensor.placement_sum of w_component, apply_Gamma the sum
of two gamma_component passes per output component, and bar_w and
bar_gamma are GradedPoly differences of w_component or gamma_component
applied twice.  Each must equal the same composition of
derivative-by-derivative passes (solver_oracles), and raise where those
passes do, with the same message, when the term budget stops them.
"""

import random
from functools import cache
from pathlib import Path

import pytest

from solver_oracles import (apply_W_by_passes, bar_gamma_by_passes, bar_w_by_passes,
                            gamma_by_passes)
from sp2brst.algebra import Algebra, GradedPoly, TermBudgetError
from sp2brst.identities import random_element, random_tensor
from sp2brst.operators import apply_Gamma, apply_W, bar_gamma, bar_w
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
    rng = random.Random(f"operator-chains-{name}-{rank}")
    return [random_tensor(alg, rng, rank, max_cp=3, max_n=2) for _ in range(count)]


def _elements(name, count=12):
    alg = _algebra(name)
    rng = random.Random(f"bar-chains-{name}")
    return [random_element(alg, rng, max_cp=3, max_n=3) + random_element(alg, rng)
            for _ in range(count)]


def _twin(alg, max_terms):
    return Algebra(alg.spec, max_terms=max_terms)


def _twin_tensor(t: SymTensor, max_terms: int) -> SymTensor:
    small = _twin(t.alg, max_terms)
    return SymTensor(small, t.rank,
                     {idx: small.poly(p.terms) for idx, p in t.comps.items()})


def _twin_poly(p: GradedPoly, max_terms: int) -> GradedPoly:
    return _twin(p.alg, max_terms).poly(p.terms)


def _same_budget_errors(chain, oracle, twin, floor):
    """From budget floor up, chain and oracle on twin(budget) must raise
    the same TermBudgetError until the budget at which the oracle first
    passes; returns that budget and the term counts the errors named."""
    need = floor
    counts = set()
    while True:
        try:
            oracle(twin(need))
            break
        except TermBudgetError as want:
            with pytest.raises(TermBudgetError, match=f"budget {need}") as got:
                chain(twin(need))
            assert str(got.value) == str(want)
            counts.add(int(str(want).split()[5]))
        need += 1
    return need, counts


@pytest.mark.parametrize("name", THEORIES)
@pytest.mark.parametrize("rank", range(5))
def test_apply_w_matches_placement_sum_of_passes(name, rank):
    for t in _tensors(name, rank):
        out = apply_W(t)
        assert out.rank == rank + 1
        assert out == apply_W_by_passes(t)
    assert apply_W(SymTensor.zero(_algebra(name), rank)).is_zero()


@pytest.mark.parametrize("name", THEORIES)
def test_bar_chains_match_their_passes(name):
    alg = _algebra(name)
    nonzero = 0
    for p in _elements(name):
        bw, bg = bar_w(p), bar_gamma(p)
        assert bw == bar_w_by_passes(p)
        assert bg == bar_gamma_by_passes(p)
        nonzero += bool(bw) + bool(bg)
    assert nonzero
    assert bar_w(alg.zero()).is_zero() and bar_gamma(alg.zero()).is_zero()


@pytest.mark.parametrize("name", THEORIES)
def test_budget_checked_inside_apply_w(name):
    # From the largest input component up to the budget the passes first
    # fit in, apply_W must raise where placement_sum of the passes does,
    # and apply_Gamma where the sum of its two passes does, with the same
    # message: after each pass and after each addition to an output
    # component.  Some error must name a polynomial that is no output
    # component, which a chain that checked only its results would never
    # raise on.
    alg = _algebra(name)
    for chain, oracle in ((apply_W, apply_W_by_passes), (apply_Gamma, gamma_by_passes)):
        rng = random.Random(f"apply-w-budget-{name}")
        inside = False
        for _ in range(8):
            t = (random_tensor(alg, rng, 2, max_cp=3, max_n=3)
                 + random_tensor(alg, rng, 2, max_cp=3, max_n=3))
            out = chain(t)
            floor = max(p.term_count() for p in t.comps.values())
            need, counts = _same_budget_errors(
                chain, oracle, lambda b: _twin_tensor(t, b), floor)
            inside |= bool(counts - {p.term_count() for p in out.comps.values()})
            assert chain(_twin_tensor(t, need)).comps == out.comps
        assert inside, f"no error of {chain.__name__} named an intermediate"


@pytest.mark.parametrize("name", THEORIES)
@pytest.mark.parametrize("which", ("bar_w", "bar_gamma"))
def test_budget_checked_inside_bar_chains(name, which):
    # From the input's size up to the budget the four passes first fit
    # in, the chain must raise where its passes do, with the same message.
    # For some input that budget is above both the input and the result,
    # where a chain that checked only its result would not raise.
    chain, oracle = {"bar_w": (bar_w, bar_w_by_passes),
                     "bar_gamma": (bar_gamma, bar_gamma_by_passes)}[which]
    alg = _algebra(name)
    rng = random.Random(f"bar-budget-{name}")
    inside = False
    for _ in range(12):
        p = (random_element(alg, rng, max_cp=3, max_n=3)
             + random_element(alg, rng, max_cp=3, max_n=3))
        out = chain(p)
        need, _ = _same_budget_errors(chain, oracle, lambda b: _twin_poly(p, b),
                                      p.term_count())
        inside |= need > max(p.term_count(), out.term_count())
        assert chain(_twin_poly(p, need)).terms == out.terms
    assert inside, "no pass above the chain's ends"
