"""The packed representation of GradedPoly against the tuple-dict oracles.

A GradedPoly stores packed int keys, one field of exponent bits per
variable, over one canonical denominator, and records the field width of
its keys.  Every kernel reads and returns those keys; the oracles in
solver_oracles compute on raw {monomial tuple: Fraction} dicts, as the
algebra did before.  Both must give the same terms in the same order.
Exponents sit on both sides of field edges (7|8, 15|16, 31|32), and
operands are widened to other widths, so the repack paths of addition,
equality, mul, bracket and the W chain run."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from sp2brst import expr
from sp2brst.algebra import Sector
from sp2brst.operators import OutsideDomainError, apply_W, n_apply, n_inverse
from sp2brst.tensors import SymTensor
from conftest import bundled
from solver_oracles import (add_terms, apply_W_by_passes, bracket_by_merges,
                            cp_select_terms, mul_sum, n_apply_terms,
                            n_inverse_terms, scale_terms, substitute_zero_terms,
                            ghost, lagrange, term_cpdeg, term_ndeg)

# mixed2 has a fermionic constraint, so even ghosts that carry exponents;
# so3-deformed has 21 variables and structure functions in its bracket
ALGEBRAS = [
    bundled(name)
    for name in ("mixed2", "so3-deformed")
]

_EXPONENTS = st.sampled_from([1, 7, 8, 15, 16, 31, 32])
_COEFFS = st.sampled_from([Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2, 3, 6)])
_SCALARS = st.sampled_from([0, 1, -2, Fraction(1, 3), Fraction(-3, 4)])
_SECTORS = st.lists(st.sampled_from(list(Sector)), max_size=3)
_MAX_CP = st.one_of(st.none(), st.integers(0, 3))
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)


def widen(p, extra):
    """p stored `extra` bits wider: a term of high degree in an even
    variable is added and taken away again, so the sum is formed at its
    width and p's terms keep their order."""
    if not extra:
        return p
    alg = p.alg
    even = next(v for v in range(len(alg.vars)) if not alg.var_parity[v])
    big = alg.gen(even) ** (2 ** (p.width + extra - 1))
    out = (p + big) - big
    assert out.width == p.width + extra
    return out


@st.composite
def cases(draw):
    """(alg, p, q): two polynomials over a few shared variables, each
    stored at its own width, so that terms meet and cancel; one time in
    four q is p at another width."""
    alg = draw(st.sampled_from(ALGEBRAS))
    pool = sorted(draw(st.lists(st.integers(0, len(alg.vars) - 1),
                                min_size=1, max_size=4, unique=True)))

    def poly():
        terms = {}
        for _ in range(draw(st.integers(1, 5))):
            mono = tuple((v, 1 if alg.var_parity[v] else draw(_EXPONENTS))
                         for v in pool if draw(st.booleans()))
            terms[mono] = draw(_COEFFS)
        return widen(alg.poly(terms), draw(st.integers(0, 2)))

    p = poly()
    q = widen(p, draw(st.integers(1, 2))) if draw(st.integers(0, 3)) == 0 else poly()
    return alg, p, q


def items(p):
    return list(p.terms.items())


def assert_canonical(p):
    assert gcd(p.den, *p.nums.values()) == 1
    assert p.den > 0 and (p.nums or p.den == 1)


@given(cases(), _SCALARS)
@SETTINGS
def test_arithmetic_matches_the_oracle(case, c):
    alg, p, q = case
    pt, qt = p.terms, q.terms
    for got, want in ((p + q, add_terms(alg, pt, qt)),
                      (p - q, add_terms(alg, pt, qt, -1)),
                      (-p, scale_terms(pt, -1)),
                      (p * c, scale_terms(pt, c)),
                      (c * q, scale_terms(qt, c))):
        assert items(got) == list(want.items())
        assert_canonical(got)
    assert (p == q) == (pt == qt)
    assert p == alg.poly(pt) and p == widen(p, 1)
    # the canonical denominator makes equal sums equal
    assert p * Fraction(1, 3) + p * Fraction(2, 3) == p
    assert (p + q) - q == p
    assert (p - p).is_zero() and (p - p).den == 1


@given(cases(), _MAX_CP)
@SETTINGS
def test_products_match_the_oracle(case, max_cp):
    alg, p, q = case
    got = alg.mul(p, q, max_cp=max_cp)
    assert items(got) == list(mul_sum(alg, [(p.terms, q.terms)], max_cp).items())
    assert_canonical(got)
    got = alg.bracket(p, q, max_cp=max_cp)
    assert items(got) == list(bracket_by_merges(alg, p, q, max_cp).items())
    assert_canonical(got)


@given(cases(), st.integers(0, 3), _SECTORS)
@SETTINGS
def test_filters_and_n_match_the_oracle(case, k, sectors):
    alg, p, _ = case
    pt = p.terms
    for got, want in (
            (p.truncate_cp(k), cp_select_terms(alg, pt, lambda d: d <= k)),
            (p.cp_part(k), cp_select_terms(alg, pt, lambda d: d == k)),
            (p.substitute_zero(sectors), substitute_zero_terms(alg, pt, sectors)),
            (n_apply(p), n_apply_terms(alg, pt))):
        assert items(got) == list(want.items())
        assert_canonical(got)
    assert p.min_cp() == min(term_cpdeg(alg, m) for m in pt)
    if all(term_ndeg(alg, m) for m in pt):
        for power in (1, 2):
            got = n_inverse(p, power)
            assert items(got) == list(n_inverse_terms(alg, pt, power).items())
            assert_canonical(got)
    else:
        with pytest.raises(OutsideDomainError):
            n_inverse(p)
    assert expr.parse(alg, expr.serialize(p)) == p


@given(cases())
@SETTINGS
def test_w_chain_repacks_narrower_components(case):
    alg, p, q = case
    wide = widen(q, 1)
    t = SymTensor(alg, 1, {(1,): p, (2,): wide})
    got = apply_W(t)
    assert got == apply_W_by_passes(t)
    # each W component is stored at the widest width of the components it sums
    summed = {(1, 1): (p,), (1, 2): (p, wide), (2, 2): (wide,)}
    for key, comp in got.comps.items():
        assert comp.width == max(c.width for c in summed[key])
        assert_canonical(comp)


def test_each_kernel_meets_two_widths():
    # one fixed pair per algebra, so the repack paths run whatever the
    # generator draws
    for alg in ALGEBRAS:
        x, lam = alg.xi(1), lagrange(alg, 1)
        p = x ** 7 * lam + Fraction(1, 2) * lam ** 8 + ghost(alg, 1, 1) * x
        q = widen(x ** 8 * alg.ghost_mom(1, 2) - Fraction(2, 3) * lam ** 15, 2)
        assert p.width != q.width
        assert items(p + q) == list(add_terms(alg, p.terms, q.terms).items())
        assert widen(p, 2) == p and widen(p, 2) != q
        assert items(alg.mul(p, q)) == list(mul_sum(alg, [(p.terms, q.terms)]).items())
        assert items(alg.bracket(q, p)) == list(bracket_by_merges(alg, q, p).items())
        t = SymTensor(alg, 1, {(1,): p, (2,): q})
        assert apply_W(t) == apply_W_by_passes(t)
