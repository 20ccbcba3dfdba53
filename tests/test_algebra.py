"""Graded algebra foundations: variables, gradings, products, guards, the
one-pass derivative walk against a derivative-at-a-time oracle, and the
fused replace_left kernel against derivative-by-derivative sums."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from sp2brst.algebra import Algebra, Sector, TermBudgetError, TheoryError
from sp2brst.identities import random_element
from sp2brst.theory import TheorySpec, abelian_spec, mixed_parity_spec, so3_spec
from sp2brst.theoryfile import build_algebra, parse_theory
from solver_oracles import (derive_right, derive_terms, ghost, lagrange, lagrange_mom,
                            term_cpdeg, term_ndeg, xip)

THEORY_DIR = Path(__file__).resolve().parent.parent / "theories"


def _degrees(gen):
    """(N-degree, cp-degree) of a single generator."""
    (mono,) = gen.terms
    return term_ndeg(gen.alg, mono), term_cpdeg(gen.alg, mono)


def test_variable_gradings_mixed_theory(mixed_alg):
    alg = mixed_alg  # constraints: parity 0 and parity 1
    for a, eps in ((1, 0), (2, 1)):
        assert alg.xi(a).parity() == eps
        assert alg.xi(a).ngh() == 0
        assert _degrees(alg.xi(a)) == (1, 0)
        for i in (1, 2):
            assert alg.ghost_mom(a, i).parity() == (eps + 1) % 2
            assert alg.ghost_mom(a, i).ngh() == -1
            assert _degrees(alg.ghost_mom(a, i)) == (1, 0)
            assert ghost(alg, a, i).parity() == (eps + 1) % 2
            assert ghost(alg, a, i).ngh() == 1
            assert _degrees(ghost(alg, a, i)) == (0, 1)
        assert lagrange(alg, a).parity() == eps
        assert lagrange(alg, a).ngh() == -2
        assert _degrees(lagrange(alg, a)) == (1, 0)
        assert lagrange_mom(alg, a).ngh() == 2
        assert _degrees(lagrange_mom(alg, a)) == (0, 1)


def test_canonical_variable_order():
    spec = TheorySpec((0, 0), physical_parities=(0,))
    alg = Algebra(spec)
    sectors = [v.sector for v in alg.vars]
    want = ([Sector.XI] * 2 + [Sector.XI_PHYS] + [Sector.GHOST_MOM] * 4
            + [Sector.GHOST] * 4 + [Sector.LAGRANGE] * 2 + [Sector.LAGRANGE_MOM] * 2)
    assert sectors == want


def test_odd_variables_square_to_zero(mixed_alg):
    alg = mixed_alg
    f = alg.xi(2)  # fermionic constraint
    assert alg.mul(f, f).is_zero()
    c = ghost(alg, 1, 1)  # ghost of a bosonic constraint is odd
    assert alg.mul(c, c).is_zero()
    assert (f + c) * (f + c) == alg.mul(f, c) + alg.mul(c, f)


_MIXED = Algebra(mixed_parity_spec())
_X, _P11 = _MIXED.by_name["xi[1]"], _MIXED.by_name["P[1,1]"]  # even, odd
_NV = len(_MIXED.vars)


@pytest.mark.parametrize("terms", [
    {((_P11, 2),): 1},                                  # an odd variable squared
    {((_P11, 3),): 0},                                  # ... even with coefficient 0
    {((_X, 1), (_X, 1)): 1, ((_X, 2),): 1},             # a repeated id
    {((_X, 1), (_P11, 1)): 1, ((_P11, 1), (_X, 1)): 1},  # ids out of order
    {((_NV, 1),): 1},                                   # an id past the last variable
    {((-1, 1),): 1},                                    # a negative id
    {((_X, 0),): 1},                                    # exponent 0
    {((_X, -2),): 1},                                   # a negative exponent
])
def test_poly_rejects_malformed_monomials(terms):
    assert _MIXED.var_parity[_X] == 0 and _MIXED.var_parity[_P11] == 1
    with pytest.raises(ValueError, match="monomial"):
        _MIXED.poly(terms)


def test_poly_packs_well_formed_monomials():
    alg = _MIXED
    x, p11 = alg.xi(1), alg.ghost_mom(1, 1)
    assert alg.poly({((_X, 2),): 2}) == 2 * x * x
    assert alg.poly({((_X, 1), (_P11, 1)): 1, ((_X, 3),): 0}) == x * p11
    assert alg.poly({((_X, 31),): Fraction(1, 2)}).width == 5
    assert alg.poly({((_X, 32),): Fraction(1, 2)}).width == 6
    assert alg.poly({}) == alg.zero() and alg.poly({(): 3}) == 3


def test_graded_commutativity(mixed_alg):
    alg = mixed_alg
    b, f = alg.xi(1), alg.xi(2)
    assert alg.mul(b, f) == alg.mul(f, b)
    c1, c2 = ghost(alg, 1, 1), ghost(alg, 1, 2)
    assert alg.mul(c1, c2) == -alg.mul(c2, c1)
    assert alg.mul(b, c1) == alg.mul(c1, b)


def test_scalar_arithmetic(mixed_alg):
    alg = mixed_alg
    x = alg.xi(1)
    p = 2 * x + x * Fraction(1, 2) - x
    assert p == x * Fraction(3, 2)
    assert (p - p).is_zero()
    assert (x + 0) == x
    assert (x * 0).is_zero()
    assert x ** 3 == alg.mul(alg.mul(x, x), x)


def test_homogeneity_errors(mixed_alg):
    alg = mixed_alg
    p = alg.xi(1) + ghost(alg, 1, 1)
    with pytest.raises(ValueError):
        p.ngh()
    with pytest.raises(ValueError):
        p.parity()
    assert p.min_cp() == 0


def test_truncate_and_parts(mixed_alg):
    alg = mixed_alg
    p = alg.xi(1) + alg.mul(ghost(alg, 1, 1), alg.xi(2)) \
        + alg.mul(alg.mul(ghost(alg, 1, 1), lagrange_mom(alg, 2)), alg.xi(1))
    assert p.truncate_cp(1).term_count() == 2
    assert p.cp_part(0) == alg.xi(1)
    assert p.truncate_cp(5) is p
    assert p.min_cp() == 0
    assert all(term_ndeg(alg, m) >= 1 for m in p.terms)
    assert not all(term_ndeg(alg, m) >= 1 for m in (p + ghost(alg, 1, 1)).terms)


def test_substitute_zero_restriction():
    # setting the constraint sector to zero kills xi terms, leaves physical ones
    spec = TheorySpec((0,), physical_parities=(0,), mixed_table={(1, 2): "1"})
    alg = Algebra(spec)
    p = alg.xi(1) + xip(alg, 1)
    q = p.substitute_zero((Sector.XI,))
    assert q == xip(alg, 1)
    assert alg.xi(1).substitute_zero((Sector.XI,)).is_zero()


def test_cross_theory_mixing_rejected():
    a1 = Algebra(so3_spec())
    a2 = Algebra(abelian_spec(3))
    with pytest.raises(TheoryError):
        a1.mul(a1.xi(1), a2.xi(1))
    with pytest.raises(TheoryError):
        a1.bracket(a1.xi(1), a2.xi(1))
    with pytest.raises(TheoryError):
        a1.xi(1) + a2.xi(1)


def test_twin_algebras_are_compatible():
    # regression: equality and mixing must be structural, not instance-based
    a1 = Algebra(so3_spec())
    a2 = Algebra(so3_spec())
    assert a1.compatible(a2)
    assert a1.xi(1) == a2.xi(1)
    assert a1.xi(1) + a2.xi(2) == a2.xi(1) + a1.xi(2)
    assert a1.bracket(a1.xi(1), a2.xi(2)) == a1.xi(3)
    assert not (a1.xi(1) == a2.xi(2))


def test_term_budget_checked_where_terms_form():
    # elements of a twin algebra with the default budget, combined by one
    # whose budget is 3 terms
    wide = Algebra(so3_spec())
    small = Algebra(so3_spec(), max_terms=3)
    q = wide.xi(1) + wide.xi(2) + wide.xi(3) + lagrange(wide, 1)
    x = small.xi(1) + small.xi(2) + small.xi(3)  # at the budget
    with pytest.raises(TermBudgetError, match="budget 3"):
        x + lagrange(small, 1)
    with pytest.raises(TermBudgetError, match="budget 3"):
        small.mul(x, x)
    with pytest.raises(TermBudgetError, match="budget 3"):
        small.bracket(ghost(wide, 1, 1), wide.ghost_mom(1, 1) * q)
    fields = [(v, v, 1) for v in {w for mono in q.terms for w, _ in mono}]
    with pytest.raises(TermBudgetError, match="budget 3"):
        small.replace_left(q, fields)
    assert small.bracket(ghost(wide, 1, 1), wide.ghost_mom(1, 1) * x) == x


def test_power_squares_only_for_bits_still_to_come():
    # p ** 2 is p p: it forms no p ** 4, whose 44-term partial sum would
    # break this algebra's 40-term budget
    alg = Algebra(so3_spec(), max_terms=40)
    p = (alg.xi(1) + alg.xi(2) + alg.xi(3)
         + ghost(alg, 1, 1) * alg.ghost_mom(1, 1) + lagrange_mom(alg, 1))
    square = p ** 2
    assert square.term_count() == 14
    assert square == alg.mul(p, p)
    assert p ** 3 == alg.mul(square, p)
    assert p ** 1 == p and p ** 0 == alg.one()


def test_spec_validation_errors():
    with pytest.raises(TheoryError):
        Algebra(TheorySpec((0, 0), u_table={(1, 1, 2): "1"}))  # even self-bracket
    with pytest.raises(TheoryError):
        Algebra(TheorySpec((0, 0), u_table={(1, 3, 2): "1"}))  # index range
    with pytest.raises(TheoryError):
        # violates graded antisymmetry
        Algebra(TheorySpec((0, 0, 0), u_table={(1, 2, 3): "1", (2, 1, 3): "1"}))
    with pytest.raises(TheoryError):
        # ghosts may not appear in structure entries
        Algebra(TheorySpec((0, 0), u_table={(1, 2, 1): "C[1,1]"}))
    with pytest.raises(TheoryError):
        # wrong parity for the entry
        Algebra(TheorySpec((0, 1), u_table={(1, 2, 1): "1"}))


def test_fermionic_self_bracket_allowed():
    alg = Algebra(mixed_parity_spec())
    # {xi_2, xi_2} = (1 + xi_1) * xi_1 for this theory
    got = alg.bracket(alg.xi(2), alg.xi(2))
    assert got == alg.xi(1) + alg.mul(alg.xi(1), alg.xi(1))


@pytest.mark.parametrize(
    "name", ("abelian3", "mixed2", "shift", "so3", "so3-deformed"))
def test_derivatives_match_oracle(name):
    alg = build_algebra(parse_theory((THEORY_DIR / f"{name}.json").read_bytes()))
    rng = random.Random(5)
    signs = powers = physical = 0
    for _ in range(40):
        p = random_element(alg, rng) + random_element(alg, rng)
        for vid, var in enumerate(alg.vars):
            left = alg.derive_left(p, (vid,))[0]
            right = derive_right(p, vid)
            assert left.terms == derive_terms(alg, p.terms, vid, True)
            signs += var.parity and left != right
            powers += any(v == vid and e > 1 for m in p.terms for v, e in m)
            physical += bool(left) and var.sector == Sector.XI_PHYS
        # every variable in one walk, in the order asked for
        vids = list(reversed(range(len(alg.vars))))
        assert [q.terms for q in alg.derive_left(p, vids)] == [
            derive_terms(alg, p.terms, vid, True) for vid in vids]
    # the samples reach the cases the walk treats apart: odd variables whose
    # two derivatives differ in sign, exponents of 2 or more, and shift's
    # physical coordinate
    assert signs and powers
    assert physical or name != "shift"


def _replace_left_oracle(alg, p, fields):
    """sum coeff * dst * d_l p / d src, one triple at a time."""
    out = alg.zero()
    for src, dst, coeff in fields:
        out = out + alg.mul(alg.gen(dst), alg.derive_left(p, (src,))[0]) * Fraction(coeff)
    return out


@pytest.mark.parametrize("name", ("mixed2", "so3", "shift"))
def test_replace_left_matches_derivative_oracle(name):
    alg = build_algebra(parse_theory((THEORY_DIR / f"{name}.json").read_bytes()))
    rng = random.Random(7)
    n = len(alg.vars)
    for _ in range(150):
        p = random_element(alg, rng) + random_element(alg, rng)
        fields = tuple(
            (rng.randrange(n), rng.randrange(n),
             Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))))
            for _ in range(rng.randint(1, 6)))
        assert alg.replace_left(p, fields) == _replace_left_oracle(alg, p, fields)


def test_replace_left_edge_cases(mixed_alg):
    alg = mixed_alg  # xi[1], lam[1] even and P[1,i] odd; xi[2] odd, P[2,i] even
    vid = alg.by_name.__getitem__
    cases = [
        # two triples with the same source
        (alg.xi(1) * alg.ghost_mom(1, 1),
         ((vid("P[1,1]"), vid("lam[1]"), 1), (vid("P[1,1]"), vid("pi[1]"), 2)),
         alg.xi(1) * (lagrange(alg, 1) + 2 * lagrange_mom(alg, 1))),
        # an even dst already present: exponents merge
        (alg.xi(1) ** 2 * lagrange(alg, 1),
         ((vid("lam[1]"), vid("xi[1]"), 3),),
         3 * alg.xi(1) ** 3),
        (alg.ghost_mom(2, 1) ** 2 * alg.xi(2),
         ((vid("xi[2]"), vid("P[2,1]"), 1),),
         alg.ghost_mom(2, 1) ** 3),
        # an odd dst already present: the term is dropped
        (alg.ghost_mom(1, 1) * alg.ghost_mom(1, 2),
         ((vid("P[1,2]"), vid("P[1,1]"), 1),),
         alg.zero()),
        # a zero coefficient contributes nothing
        (alg.xi(1) * lagrange(alg, 1),
         ((vid("lam[1]"), vid("pi[1]"), 0), (vid("xi[1]"), vid("lam[1]"), 0)),
         alg.zero()),
        # an odd source equal to its destination, with odd factors before
        # it: the drop and insert signs cancel
        (alg.xi(2) * alg.ghost_mom(1, 1) * alg.ghost_mom(1, 2),
         ((vid("P[1,2]"), vid("P[1,2]"), 2), (vid("P[1,1]"), vid("P[1,1]"), -1)),
         alg.xi(2) * alg.ghost_mom(1, 1) * alg.ghost_mom(1, 2)),
        # an odd destination already present, next to a full-width exponent
        (alg.xi(1) ** 7 * alg.ghost_mom(1, 1) * alg.ghost_mom(1, 2),
         ((vid("P[1,2]"), vid("P[1,1]"), 1),),
         alg.zero()),
    ]
    # packed field widths hold the total degree: exponents 7 and 15 fill
    # a 3- and a 4-bit field, 8 and 16 need one bit more
    for n in (7, 8, 15, 16):
        # an even destination gaining a power up to n
        cases.append((alg.xi(1) ** (n - 1) * lagrange(alg, 1),
                      ((vid("lam[1]"), vid("xi[1]"), 3),),
                      3 * alg.xi(1) ** n))
        # a source of exponent n, and an odd destination moving past odd
        # factors
        cases.append((alg.xi(1) ** n * alg.xi(2) * ghost(alg, 1, 1),
                      ((vid("xi[1]"), vid("lam[1]"), 1), (vid("xi[1]"), vid("P[1,1]"), 1)),
                      n * alg.xi(1) ** (n - 1) * alg.xi(2) * ghost(alg, 1, 1) * lagrange(alg, 1)
                      - n * alg.xi(1) ** (n - 1) * alg.xi(2) * alg.ghost_mom(1, 1)
                      * ghost(alg, 1, 1)))
        # an odd source below an even exponent-n factor
        cases.append((alg.xi(2) * alg.ghost_mom(1, 2) * alg.ghost_mom(2, 1) ** n,
                      ((vid("P[1,2]"), vid("lam[1]"), 1),),
                      -alg.xi(2) * alg.ghost_mom(2, 1) ** n * lagrange(alg, 1)))
    for p, fields, want in cases:
        assert alg.replace_left(p, fields) == want
        assert _replace_left_oracle(alg, p, fields) == want
