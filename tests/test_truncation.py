"""Truncated products and the placement sum against their references.

bracket and mul with max_cp must equal the full product truncated at
that cp-degree; apply_W, apply_A and tensor_bracket, which evaluate each
distinct (component, index) pair once, must equal the placement sum taken
over every full index tuple, A taken there as m brackets per component
with the generators; F, one bracket of Xi^a with Xi^b per index pair,
must equal its m^2 generator brackets; Q with M applied twice must equal
Q as its closed form reads.
"""

import random
from functools import cache
from pathlib import Path

import pytest

from solver_oracles import (a_component_by_brackets, apply_Q, apply_Q_three_m,
                            build_F_by_brackets, placement_sum_by_tuples)
from sp2brst.identities import random_element, random_tensor
from sp2brst.operators import apply_W, w_component
from sp2brst.solver import apply_A, build_F, tensor_bracket
from sp2brst.theoryfile import build_algebra, parse_theory

THEORY_DIR = Path(__file__).resolve().parent.parent / "theories"
THEORIES = ("abelian3", "mixed2", "shift", "so3", "so3-deformed")
LIMITS = range(6)


@cache
def _algebra(name):
    return build_algebra(parse_theory((THEORY_DIR / f"{name}.json").read_bytes()))


def _pairs(name, count=16):
    """Seeded random (x, y) of cp-degree up to 5 each."""
    alg = _algebra(name)
    rng = random.Random(f"truncation-{name}")
    return [(random_element(alg, rng, max_cp=5, max_n=2),
             random_element(alg, rng, max_cp=5, max_n=2)) for _ in range(count)]


def truncation_mismatches(alg, pairs, bracket, mul):
    """(kernel, limit) for every limit at which bracket(x, y, limit) or
    mul(x, y, limit) differs from the full product truncated there."""
    bad = set()
    for x, y in pairs:
        full = {"bracket": alg.bracket(x, y), "mul": alg.mul(x, y)}
        for d in LIMITS:
            if bracket(x, y, d) != full["bracket"].truncate_cp(d):
                bad.add(("bracket", d))
            if mul(x, y, d) != full["mul"].truncate_cp(d):
                bad.add(("mul", d))
    return bad


@pytest.mark.parametrize("name", THEORIES)
def test_truncated_kernel_matches_truncated_product(name):
    alg = _algebra(name)
    pairs = _pairs(name)
    # every limit drops terms from some bracket and some product
    fulls = [(alg.bracket(x, y), alg.mul(x, y)) for x, y in pairs]
    for d in LIMITS:
        assert any(br.truncate_cp(d) != br for br, _ in fulls), d
        assert any(pr.truncate_cp(d) != pr for _, pr in fulls), d
    assert not truncation_mismatches(
        alg, pairs,
        lambda x, y, d: alg.bracket(x, y, max_cp=d),
        lambda x, y, d: alg.mul(x, y, max_cp=d))


def test_off_by_one_limit_fails_the_kernel_check():
    # a limit one too high keeps the terms of cp-degree d + 1
    alg = _algebra("so3")
    bad = truncation_mismatches(
        alg, _pairs("so3"),
        lambda x, y, d: alg.bracket(x, y, max_cp=d + 1),
        lambda x, y, d: alg.mul(x, y, max_cp=d + 1))
    assert {kernel for kernel, _ in bad} == {"bracket", "mul"}


@pytest.mark.parametrize("name", THEORIES)
@pytest.mark.parametrize("rank", range(4))
def test_placement_sums_match_full_tuple_oracle(name, rank):
    alg = _algebra(name)
    rng = random.Random(f"placement-{name}-{rank}")
    t = random_tensor(alg, rng, rank, max_cp=2, max_n=2)
    x = random_tensor(alg, rng, 1, max_cp=2, max_n=2)

    def bracket_x(p, a):
        return alg.bracket(x.get((a,)), p)

    assert apply_W(t) == placement_sum_by_tuples(t, w_component)
    assert apply_A(t) == placement_sum_by_tuples(t, a_component_by_brackets)
    full = placement_sum_by_tuples(t, bracket_x)
    assert tensor_bracket(x, t) == full
    assert tensor_bracket(x, t, 3) == full.truncate_cp(3)


@pytest.mark.parametrize("name", THEORIES)
def test_f_matches_generator_bracket_oracle(name):
    alg = _algebra(name)
    assert build_F(alg) == build_F_by_brackets(alg)


@pytest.mark.parametrize("name", ("mixed2", "so3", "shift"))
def test_q_with_m_twice_matches_closed_form(name):
    alg = _algebra(name)
    rng = random.Random(f"apply-q-{name}")
    for rank in range(4):
        for _ in range(5):
            t = random_tensor(alg, rng, rank, max_cp=3, max_n=3)
            assert apply_Q(t) == apply_Q_three_m(t)
