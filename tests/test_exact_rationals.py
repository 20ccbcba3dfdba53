"""Exact rationals as int numerators over one denominator.

serialize writes each coefficient from a polynomial's int numerators and
denominator; fraction_serialize below is the rendering through Fraction
coefficients it replaced, kept as the oracle.  p / n divides exactly by
a nonzero int, as p * Fraction(1, n) does.  The parser's digit limit
applies to each coefficient in lowest terms, not to the common
denominator of a polynomial."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from sp2brst.algebra import Algebra
from sp2brst.expr import DigitLimitError, _digit_limit, parse, serialize
from sp2brst.tensors import SymTensor
from sp2brst.theory import mixed_parity_spec, so3_spec

ALG = Algebra(mixed_parity_spec())
SO3 = Algebra(so3_spec())


def fraction_serialize(p):
    """serialize through the Fraction coefficients of p.terms: terms in
    canonical monomial order, each coefficient written by str()."""
    if not p:
        return "0"
    terms = p.terms
    names = [v.name for v in p.alg.vars]
    chunks = []
    for mono in sorted(terms, key=lambda m: (sum(e for _, e in m), m)):
        c = terms[mono]
        neg = c < 0
        mag = -c if neg else c
        factors = [f"{names[v]}^{e}" if e > 1 else names[v] for v, e in mono]
        if mag != 1 or not factors:
            try:
                factors.insert(0, str(mag))
            except ValueError:
                raise DigitLimitError("too long to write") from None
        chunks.append((" - " if neg else " + ") + "*".join(factors))
    text = "".join(chunks)
    return "-" + text[3:] if text[1] == "-" else text[3:]


def _monomial(alg):
    """A monomial of up to three factors, odd variables at most once."""
    nv = len(alg.vars)

    def build(pairs):
        exps = {}
        for v, e in pairs:
            exps[v] = 1 if alg.var_parity[v] else exps.get(v, 0) + e
        return tuple(sorted(exps.items()))

    return st.lists(st.tuples(st.integers(0, nv - 1), st.integers(1, 3)),
                    max_size=3).map(build)


# small, large and very large numerators and denominators, so that the
# reduction by gcd(n, den) and the common denominator both show
_SIZES = st.sampled_from([1, 9, 10 ** 6, 10 ** 40, 10 ** 300])
_INTS = _SIZES.flatmap(lambda m: st.integers(-m, m))
_DENS = _SIZES.flatmap(lambda m: st.integers(1, m))
_COEFFS = st.one_of(_INTS, st.builds(Fraction, _INTS, _DENS))


def _polys(alg):
    return st.dictionaries(_monomial(alg), _COEFFS, max_size=6).map(alg.poly)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(p=st.one_of(_polys(ALG), _polys(SO3)))
def test_serialize_matches_the_fraction_rendering(p):
    text = serialize(p)
    assert text == fraction_serialize(p)
    assert parse(p.alg, text) == p


def test_serialize_reduces_each_coefficient():
    # one denominator 12 over the terms, each written in lowest terms
    p = ALG.poly({((0, 1),): Fraction(1, 4), ((1, 1),): Fraction(-2, 3),
                  ((0, 2),): 6})
    assert p.den == 12
    assert serialize(p) == fraction_serialize(p) == "1/4*xi[1] - 2/3*xi[2] + 6*xi[1]^2"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(p=_polys(ALG), n=st.one_of(_INTS, st.sampled_from([-1, 1, -2520])).filter(bool))
def test_division_by_an_int_is_exact(p, n):
    q = p / n
    assert q == p * Fraction(1, n)
    assert q * n == p
    # canonical: the gcd of the denominator and every numerator is 1
    assert q.den > 0 and gcd(q.den, *q.nums.values()) == 1
    t = SymTensor(ALG, 1, {(1,): p, (2,): p * 3})
    assert t / n == t * Fraction(1, n)


@pytest.mark.parametrize("value", [ALG.xi(1) * Fraction(1, 3), ALG.zero(),
                                   SymTensor(ALG, 1, {(1,): ALG.xi(1)}),
                                   SymTensor.zero(ALG, 2)])
def test_division_by_zero_raises(value):
    with pytest.raises(ZeroDivisionError):
        value / 0


def test_division_by_anything_but_an_int_is_refused():
    for value in (ALG.xi(1), SymTensor(ALG, 1, {(1,): ALG.xi(1)})):
        with pytest.raises(TypeError):
            value / Fraction(1, 2)
        with pytest.raises(TypeError):
            value / 2.0


def test_a_common_denominator_past_the_digit_limit_is_accepted():
    # two coprime denominators of about 0.6 times the limit's digits each:
    # their lcm, the polynomial's one denominator, passes the limit, while
    # every coefficient in lowest terms stays under it
    limit = _digit_limit()
    if not limit:
        pytest.skip("this Python has no digit limit")
    digits = limit * 6 // 10
    a, b = 10 ** digits + 1, 10 ** digits + 3  # odd, and differ by 2
    sum_text = f"(1/{a}*xi[1] + 1/{b}*xi[2])"
    for text in (sum_text, sum_text + "*xi[1]", f"xi[1]*{sum_text}",
                 f"{sum_text} + 2/{a}*xi[1]"):
        p = parse(ALG, text)
        assert p.den >= 10 ** limit
        assert parse(ALG, serialize(p)) == p
    assert parse(ALG, sum_text) == (ALG.xi(1) * Fraction(1, a) + ALG.xi(2) * Fraction(1, b))
