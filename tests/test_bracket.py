"""Graded Poisson bracket: canonical pairings, symmetry, Leibniz, Jacobi."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from solver_oracles import ghost, lagrange, lagrange_mom, term_ngh, term_parity, xip
from sp2brst.algebra import Algebra
from sp2brst.theory import TheorySpec, mixed_parity_spec, so3_spec

ALG = Algebra(mixed_parity_spec())  # constraints: one even, one odd


def test_ghost_pairings_even_constraint():
    a = ALG
    for i in (1, 2):
        assert a.bracket(ghost(a, 1, i), a.ghost_mom(1, i)) == 1
        assert a.bracket(a.ghost_mom(1, i), ghost(a, 1, i)) == 1
    assert a.bracket(lagrange_mom(a, 1), lagrange(a, 1)) == 1
    assert a.bracket(lagrange(a, 1), lagrange_mom(a, 1)) == -1


def test_ghost_pairings_odd_constraint():
    a = ALG
    for i in (1, 2):
        assert a.bracket(ghost(a, 2, i), a.ghost_mom(2, i)) == 1
        assert a.bracket(a.ghost_mom(2, i), ghost(a, 2, i)) == -1
    assert a.bracket(lagrange_mom(a, 2), lagrange(a, 2)) == 1
    assert a.bracket(lagrange(a, 2), lagrange_mom(a, 2)) == 1


def test_cross_pairings_vanish():
    a = ALG
    assert a.bracket(ghost(a, 1, 1), a.ghost_mom(1, 2)).is_zero()
    assert a.bracket(ghost(a, 1, 1), a.ghost_mom(2, 1)).is_zero()
    assert a.bracket(ghost(a, 1, 1), lagrange(a, 1)).is_zero()
    assert a.bracket(lagrange_mom(a, 1), lagrange(a, 2)).is_zero()
    assert a.bracket(a.xi(1), ghost(a, 1, 1)).is_zero()


def test_so3_constraint_brackets():
    a = Algebra(so3_spec())
    assert a.bracket(a.xi(1), a.xi(2)) == a.xi(3)
    assert a.bracket(a.xi(2), a.xi(3)) == a.xi(1)
    assert a.bracket(a.xi(3), a.xi(1)) == a.xi(2)
    assert a.bracket(a.xi(2), a.xi(1)) == -a.xi(3)
    assert a.bracket(a.xi(1), a.xi(1)).is_zero()


def test_mixed_coordinate_bracket():
    spec = TheorySpec((0,), physical_parities=(0,), mixed_table={(1, 2): "1"})
    a = Algebra(spec)
    assert a.bracket(a.xi(1), xip(a, 1)) == 1
    assert a.bracket(xip(a, 1), a.xi(1)) == -1
    # Leibniz read-off: {xi, q^2} = 2 q {xi, q}
    q = xip(a, 1)
    assert a.bracket(a.xi(1), q * q) == 2 * q


def test_bracket_is_bilinear():
    a = ALG
    x = ghost(a, 1, 1) * a.ghost_mom(1, 1)
    y = lagrange(a, 1) * lagrange_mom(a, 1)
    z = a.xi(1)
    lhs = a.bracket(x + 3 * y, z * Fraction(1, 2))
    rhs = a.bracket(x, z) * Fraction(1, 2) + a.bracket(y, z) * Fraction(3, 2)
    assert lhs == rhs


# -- randomised structure checks -------------------------------------------

_IDS = st.lists(st.integers(0, len(ALG.vars) - 1), min_size=0, max_size=3)


def _monomial(ids):
    p = ALG.one()
    for i in ids:
        p = ALG.mul(p, ALG.gen(i))
    return p


_COEFF = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def elements(draw, max_monomials=3):
    p = ALG.zero()
    for _ in range(draw(st.integers(1, max_monomials))):
        p = p + _monomial(draw(_IDS)) * draw(_COEFF)
    return p


def _parity_part(p, eps):
    return ALG.poly({m: c for m, c in p.terms.items()
                     if term_parity(ALG, m) == eps})


@given(elements(), elements(), st.integers(0, 1), st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_graded_antisymmetry(x, y, ex, ey):
    x, y = _parity_part(x, ex), _parity_part(y, ey)
    sign = -1 if (ex & ey) == 0 else 1
    assert ALG.bracket(x, y) == sign * ALG.bracket(y, x)


@given(elements(), elements(), elements(), st.integers(0, 1), st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_graded_leibniz(x, y, z, ex, ey):
    x, y = _parity_part(x, ex), _parity_part(y, ey)
    lhs = ALG.bracket(x, ALG.mul(y, z))
    rhs = ALG.mul(ALG.bracket(x, y), z)
    yxz = ALG.mul(y, ALG.bracket(x, z))
    rhs = rhs + (-yxz if (ex & ey) else yxz)
    assert lhs == rhs


@given(elements(2), elements(2), elements(2),
       st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_graded_jacobi(x, y, z, ex, ey, ez):
    x, y = _parity_part(x, ex), _parity_part(y, ey)
    z = _parity_part(z, ez)
    total = ALG.zero()
    for (a, ea), (b, _), (c, ec) in (((x, ex), (y, ey), (z, ez)),
                                     ((y, ey), (z, ez), (x, ex)),
                                     ((z, ez), (x, ex), (y, ey))):
        term = ALG.bracket(a, ALG.bracket(b, c))
        total = total + (-term if (ea & ec) else term)
    assert total.is_zero()


@given(elements(), elements())
@settings(max_examples=60, deadline=None)
def test_bracket_grading_additivity(x, y):
    b = ALG.bracket(x, y)
    if b.is_zero():
        return
    by_ngh = {}
    for m, c in x.terms.items():
        for n, d in y.terms.items():
            by_ngh[(term_ngh(ALG, m), term_ngh(ALG, n))] = True
    # every term of the bracket has the ngh of some source pair
    sums = {gx + gy for gx, gy in by_ngh}
    for m in b.terms:
        assert term_ngh(ALG, m) in sums


def test_ngh_additivity_homogeneous():
    a = ALG
    x = ghost(a, 1, 1) * ghost(a, 1, 2)       # ngh +2
    y = a.ghost_mom(1, 1) * lagrange(a, 1)   # ngh -3
    b = a.bracket(x, y)
    assert not b.is_zero()
    assert b.ngh() == -1
    assert b.parity() == (x.parity() + y.parity()) % 2
