"""The degree-graded solver against the reference constructions.

solve_pi_fixed_point solves one cp-degree at a time and
solve_pi_descendants builds <Pi_0^m> by size; both must reproduce,
tensor for tensor, the round-based iteration and the subset-memoised
multi-bracket recursion kept in solver_oracles.
"""

import math
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

import sp2brst.solver as solver_mod
from solver_oracles import fixed_point_by_rounds, multi_bracket
from sp2brst.algebra import Algebra
from sp2brst.solver import (ConventionError, SolverConfig, build_pi0,
                            power_brackets, solve_pi_descendants,
                            solve_pi_fixed_point)
from sp2brst.tensors import SymTensor
from sp2brst.theory import so3_spec
from sp2brst.theoryfile import build_algebra, parse_theory

THEORY_DIR = Path(__file__).resolve().parent.parent / "theories"
THEORIES = ("abelian3", "mixed2", "shift", "so3", "so3-deformed")


@cache
def _bundled(name):
    """Algebra, config at the document order, and Pi_0 of a bundled theory."""
    doc = parse_theory((THEORY_DIR / f"{name}.json").read_bytes())
    alg = build_algebra(doc)
    config = SolverConfig(k=doc.order)
    return alg, config, build_pi0(alg, config)


@cache
def _subset_powers(name):
    """multi_bracket([Pi_0] * m) for every m the exponential sum uses."""
    _, config, pi0 = _bundled(name)
    if pi0.is_zero():
        return []
    top = (config.k - 1) // (max(2, pi0.min_cp()) - 1)
    return [multi_bracket([pi0] * m, config.k) for m in range(1, top + 1)]


@pytest.mark.parametrize("name", THEORIES)
def test_fixed_point_matches_round_oracle(name):
    alg, config, pi0 = _bundled(name)
    assert solve_pi_fixed_point(alg, config, pi0) == \
        fixed_point_by_rounds(alg, config, pi0)


@pytest.mark.parametrize("name", THEORIES)
def test_descendants_match_subset_oracle(name):
    alg, config, pi0 = _bundled(name)
    want = SymTensor.zero(alg, 1)
    for m, term in enumerate(_subset_powers(name), 1):
        want = (want + term * Fraction(1, math.factorial(m))).truncate_cp(config.k)
    assert solve_pi_descendants(alg, config, pi0) == want


@pytest.mark.parametrize("name", ("so3", "so3-deformed"))
def test_power_brackets_match_subset_recursion(name):
    # so3 at k=6 covers m = 1..5; so3-deformed at k=5 covers m = 1..4, and
    # its <Pi_0^5> starts at cp-degree 6, so it must truncate to zero
    _, config, pi0 = _bundled(name)
    subset = _subset_powers(name)
    powers = power_brackets(pi0, 5, config.k)
    assert powers[:len(subset)] == subset
    assert all(p.is_zero() for p in powers[len(subset):])
    assert len(subset) == {"so3": 5, "so3-deformed": 4}[name]


def test_descendants_bracket_count(monkeypatch):
    # <Pi_0^m> for m <= 7 at order 8: one pair bracket per r <= m/2
    alg = Algebra(so3_spec())
    config = SolverConfig(k=8)
    pi0 = build_pi0(alg, config)
    calls = []
    original = solver_mod.pair_bracket

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(solver_mod, "pair_bracket", counted)
    solve_pi_descendants(alg, config, pi0)
    assert len(calls) == sum(m // 2 for m in range(2, 8)) == 12


def test_graded_loop_rejects_non_raising_bracket(monkeypatch):
    alg = Algebra(so3_spec())
    config = SolverConfig(k=4)
    pi0 = build_pi0(alg, config)
    # a "bracket" that returns its first argument stays at that degree
    monkeypatch.setattr(solver_mod, "pair_bracket", lambda x, y, k, budget: x)
    with pytest.raises(ConventionError, match="failed to raise"):
        solve_pi_fixed_point(alg, config, pi0)
