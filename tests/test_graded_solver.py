"""The degree-graded solver against the reference constructions.

solve_pi_fixed_point and neumann_apply solve one cp-degree at a time and
solve_pi_descendants builds <Pi_0^m> by size; they must reproduce,
tensor for tensor, the round-based iteration, the whole-tensor Neumann
series and the subset-memoised multi-bracket recursion kept in
solver_oracles.
"""

import math
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

import sp2brst.solver as solver_mod
from solver_oracles import (boundary_seed, fixed_point_by_rounds, multi_bracket,
                            neumann_by_terms)
from sp2brst import expr
from sp2brst.algebra import Algebra
from sp2brst.operators import apply_W, apply_W_plus
from sp2brst.solver import (PAIR_DIVISOR, ConventionError, apply_A,
                            build_F, build_omega1, build_pi0, neumann_apply,
                            power_brackets, solve_pi_descendants,
                            solve_pi_fixed_point, tensor_bracket)
from sp2brst.tensors import SymTensor
from sp2brst.theory import so3_spec
from sp2brst.theoryfile import build_algebra, parse_theory

THEORY_DIR = Path(__file__).resolve().parent.parent / "theories"
THEORIES = ("abelian3", "mixed2", "shift", "so3", "so3-deformed")
# a first-class observable of each bundled theory
LIFTED = {"abelian3": "quad", "mixed2": "Bsq", "shift": "Tq", "so3": "J1sq",
          "so3-deformed": "J2sq"}


@cache
def _document(name):
    return parse_theory((THEORY_DIR / f"{name}.json").read_bytes())


@cache
def _bundled(name):
    """Algebra, the document order, and Pi_0 of a bundled theory."""
    doc = _document(name)
    alg = build_algebra(doc)
    return alg, doc.order, build_pi0(boundary_seed(alg), doc.order)


@cache
def _subset_powers(name):
    """multi_bracket([Pi_0] * m) for every m the exponential sum uses."""
    _, k, pi0 = _bundled(name)
    if pi0.is_zero():
        return []
    top = (k - 1) // (max(2, pi0.min_cp()) - 1)
    return [multi_bracket([pi0] * m, k) for m in range(1, top + 1)]


@pytest.mark.parametrize("name", THEORIES)
def test_fixed_point_matches_round_oracle(name):
    alg, k, pi0 = _bundled(name)
    assert solve_pi_fixed_point(boundary_seed(alg), k) == \
        fixed_point_by_rounds(pi0, k)


@pytest.mark.parametrize("name", THEORIES)
def test_descendants_match_subset_oracle(name):
    alg, k, pi0 = _bundled(name)
    want = SymTensor.zero(alg, 1)
    for m, term in enumerate(_subset_powers(name), 1):
        want = (want + term * Fraction(1, math.factorial(m))).truncate_cp(k)
    assert solve_pi_descendants(pi0, k) == want


@pytest.mark.parametrize("name", ("so3", "so3-deformed"))
def test_power_brackets_match_subset_recursion(name):
    # so3 at k=6 covers m = 1..5; so3-deformed at k=5 covers m = 1..4, and
    # its <Pi_0^5> starts at cp-degree 6, so it must truncate to zero
    _, k, pi0 = _bundled(name)
    subset = _subset_powers(name)
    powers = power_brackets(pi0, 5, k)
    assert powers[:len(subset)] == subset
    assert all(p.is_zero() for p in powers[len(subset):])
    assert len(subset) == {"so3": 5, "so3-deformed": 4}[name]


@pytest.mark.parametrize("name", THEORIES)
def test_tensor_bracket_is_symmetric_on_parts_of_pi(name):
    # {f, g}' = {g, f}' for odd f, g: the solver brackets each pair once
    alg, k, _ = _bundled(name)
    pi = solve_pi_fixed_point(boundary_seed(alg), k)
    parts = [part for part in map(pi.cp_part, range(k + 1)) if part]
    for i, x in enumerate(parts):
        for y in parts[i + 1:]:
            assert tensor_bracket(x, y) == tensor_bracket(y, x)


def test_descendants_bracket_count(monkeypatch):
    # <Pi_0^m> for m <= 7 at order 8: one pair bracket per r <= m/2
    pi0 = build_pi0(boundary_seed(Algebra(so3_spec())), 8)
    calls = []
    original = solver_mod.pair_bracket

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(solver_mod, "pair_bracket", counted)
    solve_pi_descendants(pi0, 8)
    assert len(calls) == sum(m // 2 for m in range(2, 8)) == 12


def test_graded_loop_rejects_non_raising_bracket(monkeypatch):
    seed = boundary_seed(Algebra(so3_spec()))
    # W in place of A: W+ W keeps the cp-degree of the part it acts on
    monkeypatch.setattr(solver_mod, "apply_A", apply_W)
    with pytest.raises(ConventionError, match="failed to raise"):
        solve_pi_fixed_point(seed, 4)


def test_neumann_rejects_non_raising_operator():
    pi0 = build_pi0(boundary_seed(Algebra(so3_spec())), 4)
    with pytest.raises(ConventionError, match="failed to raise"):
        neumann_apply(apply_W, pi0, 4)


def _inverse_cases(name):
    """(op, seed) of each (I + W+ op)^-1 the pipeline takes: Pi_0's, the
    pair bracket <Pi_0, Pi_0>'s and the lift's of a first-class observable."""
    alg, k, pi0 = _bundled(name)
    doc = _document(name)
    phi0 = expr.parse(alg, doc.observable(LIFTED[name])[1])
    pi = solve_pi_fixed_point(boundary_seed(alg), k)
    omega = build_omega1(alg) + pi

    def lift_op(t):
        return apply_A(t) + tensor_bracket(pi, t)

    pair = tensor_bracket(pi0, pi0) * 2
    return {
        "pi0": (apply_A, -apply_W_plus(build_F(alg))),
        "pair": (apply_A, apply_W_plus(pair).truncate_cp(k) / PAIR_DIVISOR),
        "lift": (lift_op, -apply_W_plus(tensor_bracket(
            omega, SymTensor.from_scalar(phi0)))),
    }


@pytest.mark.parametrize("name", THEORIES)
def test_neumann_matches_whole_tensor_series(name):
    _, k, _ = _bundled(name)
    for case, (op, seed) in _inverse_cases(name).items():
        assert neumann_apply(op, seed, k) == \
            neumann_by_terms(op, seed, k), case
