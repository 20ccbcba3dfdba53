"""The first-order pass from cached per-pattern plans, and the widths the
brackets store their results at.

Algebra.replace_sum looks each key's pattern, key & sel, up in its
table's plans and forms the terms of that pattern's plan.  Inputs are
streamed through one algebra and one set of tables, so later inputs meet
plans built for earlier ones, and every pass must equal the pass that
tests every source of every key (solver_oracles.replace_sum_by_sources)
term for term and in dict order, and the derivative-by-derivative sum
(replace_by_derivatives).  The tables are those of W^a and Gamma_a and
drawn ones with repeated sources, a source equal to its destination and
rational coefficients, at field widths 4 and 5; each pass's output is
passed once more, so exponents above 1 reach every source.

Algebra.brackets forms products at the width their degree bound needs
and stores every result at that width, so a result past MIN_WIDTH sums
with polynomials stored at MIN_WIDTH by repacking them.
"""

import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from solver_oracles import (bracket_by_merges, ghost, lagrange, replace_by_derivatives,
                            replace_sum_by_sources)
from test_generated_theories import deformed_so3, direct_sums, mixed2

from sp2brst.algebra import MIN_WIDTH, Algebra, keys_at
from sp2brst.identities import random_element
from sp2brst.operators import _gamma_fields, _w_fields
from sp2brst.theory import abelian_spec
from sp2brst.theoryfile import build_algebra, parse_theory

THEORY_DIR = Path(__file__).resolve().parent.parent / "theories"
BUNDLED = ("abelian3", "mixed2", "shift", "so3", "so3-deformed")


@cache
def _spec(name):
    return parse_theory((THEORY_DIR / f"{name}.json").read_bytes())


def _field_sets(alg, rng):
    """W^a and Gamma_a, then three drawn sets of (src, dst, coeff)."""
    sets = [_w_fields(alg, a) for a in (1, 2)] + [_gamma_fields(alg, a) for a in (1, 2)]
    n = len(alg.vars)
    for _ in range(3):
        src = rng.randrange(n)
        fields = [(src, src, 2), (src, rng.randrange(n), Fraction(-1, 3))]
        fields += [(rng.randrange(n), rng.randrange(n),
                    Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
                    for _ in range(rng.randint(1, 5))]
        sets.append(tuple(fields))
    return sets


def _check_pass(alg, p, nums, width, fields, table, fden, scale=1):
    """One pass of nums (p's keys at width) against both references; its
    output dict."""
    got = alg.replace_sum(nums, table, {}, scale)
    want = replace_sum_by_sources(alg, nums, table, {}, scale)
    assert list(got.items()) == list(want.items())
    if scale == 1:
        assert (alg.from_keys(dict(got), width, p.den * fden)
                == replace_by_derivatives(p, fields))
    return got


def _stream(alg, rng, count, width):
    """Pass count random inputs through one set of tables of alg at width,
    each output passed once more; returns (keys whose pattern had a plan
    already, keys passed)."""
    tables = [(fields, *alg.replace_table(fields, width)) for fields in _field_sets(alg, rng)]
    served = passed = 0
    for _ in range(count):
        p = random_element(alg, rng, max_cp=3, max_n=3) * random_element(alg, rng, max_n=2)
        for fields, table, fden in tables:
            nums = keys_at(p, width)
            served += sum(k & table.sel in table.plans for k in nums)
            passed += len(nums)
            out = _check_pass(alg, p, nums, width, fields, table, fden)
            q = alg.from_keys(dict(out), width, p.den * fden)
            if q:
                _check_pass(alg, q, q.nums, width, fields, table, fden)
    return served, passed


@pytest.mark.parametrize("width", (4, 5))
@pytest.mark.parametrize("name", BUNDLED)
def test_streamed_passes_match_the_reference(name, width):
    alg = build_algebra(_spec(name))
    served, passed = _stream(alg, random.Random(f"plans-{name}-{width}"), 24, width)
    assert 0 < served < passed  # plans were built, and later inputs reused them


@settings(derandomize=True, deadline=None, max_examples=40)
@given(spec=st.one_of(direct_sums(), deformed_so3(), mixed2()),
       seed=st.integers(0, 2 ** 16), width=st.sampled_from((4, 5)))
def test_streamed_passes_on_generated_theories(spec, seed, width):
    _stream(Algebra(spec), random.Random(seed), 6, width)


def _vid(alg, name):
    return alg.by_name[name]


def test_keys_agreeing_on_the_selector_share_a_plan(mixed_alg):
    alg = mixed_alg
    width = 4
    table, _ = alg.replace_table(_w_fields(alg, 1), width)
    outside = [v for v in range(len(alg.vars))
               if not alg.var_parity[v] and not (table.mask << width * v) & table.sel]
    assert outside
    k1 = next(iter(keys_at(alg.ghost_mom(1, 1) * alg.xi(2) * alg.ghost_mom(2, 2), width)))
    k2 = k1 + (3 << width * outside[0])
    assert k1 != k2 and k1 & table.sel == k2 & table.sel
    got = alg.replace_sum({k1: 3}, table, {})
    assert len(table.plans) == 1
    got2 = alg.replace_sum({k2: 5}, table, {})
    assert len(table.plans) == 1
    assert got and list(got2.items()) == list(
        replace_sum_by_sources(alg, {k2: 5}, table, {}).items())
    # the same plan: each term of k2 is k1's, moved by k2 - k1 and scaled
    assert [(k + k2 - k1, n * 5 // 3) for k, n in got.items()] == list(got2.items())


def test_an_odd_destination_already_present(mixed_alg):
    # xi[1] even, P[1,i] odd; xi[2] odd, P[2,i] even (see mixed_parity_spec)
    alg = mixed_alg
    fields = ((_vid(alg, "xi[1]"), _vid(alg, "P[1,1]"), 1),
              (_vid(alg, "xi[1]"), _vid(alg, "xi[2]"), 2))
    table, _ = alg.replace_table(fields, 4)
    cases = [
        (alg.xi(1) ** 2 * alg.ghost_mom(1, 1), 1),   # P[1,1] present: one term left
        (alg.xi(1) * alg.xi(2) * alg.ghost_mom(1, 1), 0),  # both present: none
        (alg.xi(1) ** 3 * alg.ghost_mom(1, 2) * ghost(alg, 2, 1), 2),
    ]
    for p, count in cases:
        got = _check_pass(alg, p, keys_at(p, 4), 4, fields, table, 1)
        assert len(got) == count
    # W^1 moves P[2,1] (even) to xi[2] (odd): dropped where xi[2] is present
    p = alg.xi(2) * alg.ghost_mom(2, 1) ** 2
    w1, _ = alg.replace_table(_w_fields(alg, 1), 4)
    assert _check_pass(alg, p, keys_at(p, 4), 4, _w_fields(alg, 1), w1, 1) == {}


@pytest.mark.parametrize("width", (4, 5))
def test_scale_multiplies_each_numerator(mixed_alg, width):
    alg = mixed_alg
    rng = random.Random(f"scale-{width}")
    table, _ = alg.replace_table(_gamma_fields(alg, 2), width)
    for scale in (-1, 2, 6, 35):
        p = random_element(alg, rng) + random_element(alg, rng, max_n=2)
        nums = keys_at(p, width)
        plain = alg.replace_sum(nums, table, {})
        got = _check_pass(alg, p, nums, width, _gamma_fields(alg, 2), table, 1, scale)
        assert list(got.items()) == [(k, n * scale) for k, n in plain.items()]
        # added into a dict that already holds terms, as _contract does
        out = dict(plain)
        alg.replace_sum(nums, table, out, scale)
        assert out == {k: n * (1 + scale) for k, n in plain.items() if n * (1 + scale)}


def test_exponents_filling_the_field(mixed_alg):
    # a source of exponent 15 fills a width-4 field, and 16 needs width 5
    alg = mixed_alg
    fields = ((_vid(alg, "xi[1]"), _vid(alg, "lam[1]"), 3),
              (_vid(alg, "lam[1]"), _vid(alg, "xi[1]"), 1))
    for n, width in ((15, 4), (15, 5), (16, 5)):
        table, _ = alg.replace_table(fields, width)
        p = alg.xi(1) ** n + alg.xi(1) ** (n - 1) * lagrange(alg, 1)
        got = _check_pass(alg, p, keys_at(p, width), width, fields, table, 1)
        assert alg.from_keys(got, width, 1) == (
            3 * n * alg.xi(1) ** (n - 1) * lagrange(alg, 1)
            + 3 * (n - 1) * alg.xi(1) ** (n - 2) * lagrange(alg, 1) ** 2
            + alg.xi(1) ** n)


# -- bracket result widths ---------------------------------------------------


def _abelian():
    return Algebra(abelian_spec(3))


def test_bracket_result_is_stored_at_the_call_width():
    # the bound 30 + 30 - 2 needs width 6, and the result of degree 4,
    # which MIN_WIDTH holds, stays at width 6
    alg = _abelian()
    x = ghost(alg, 1, 1) * alg.xi(1) ** 2 + alg.xi(1) ** 30
    y = alg.ghost_mom(1, 1) * alg.xi(2) ** 2 + alg.xi(2) ** 30
    assert (x.width, y.width) == (MIN_WIDTH, MIN_WIDTH) == (5, 5)
    got = alg.bracket(x, y)
    assert got.width == 6
    assert got.terms == bracket_by_merges(alg, x, y)
    assert got == alg.xi(1) ** 2 * alg.xi(2) ** 2


def test_bracket_result_of_total_degree_32_sums_with_width_5_polynomials():
    # one batched call whose bound 17 + 17 - 2 needs width 6: the first
    # result has a term of total degree 32, the second one of degree 17,
    # and both stay at the call's width
    alg = _abelian()
    x32 = ghost(alg, 1, 1) * alg.xi(1) ** 16
    x17 = ghost(alg, 1, 1) * alg.xi(3)
    y = alg.ghost_mom(1, 1) * alg.xi(2) ** 16
    got = alg.brackets([x32, x17], [y])
    assert [row[0].width for row in got] == [6, 6]
    assert got[0][0]._degree() == 32
    for x, (r,) in zip((x32, x17), got):
        assert r.terms == bracket_by_merges(alg, x, y)
        assert r == alg.bracket(x, y)
    (r32,), (r17,) = got
    x3x2 = alg.xi(3) * alg.xi(2) ** 16
    assert x3x2.width == 5 and r17 == x3x2
    assert (r17 - x3x2).is_zero() and (x3x2 - r17).is_zero()
    want = alg.poly({((0, 16), (1, 16)): 1, ((1, 16), (2, 1)): 2, ((2, 1),): -1})
    for total in (r32 + r17 + x3x2 - alg.xi(3), -alg.xi(3) + x3x2 + r17 + r32):
        assert total.width == 6
        assert total.terms == want.terms
