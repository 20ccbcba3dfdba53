"""The product kernel against the tuple-merge oracle.

Algebra.mul and Algebra.bracket form every product through one packed-key
accumulator with integer numerators.  The oracle (solver_oracles.mul_sum)
merges each pair of monomials and adds one Fraction product at a time, as
the kernel did before packing.  Both must give the same terms in the same
order, with or without a cp-degree limit, and a term budget must stop
both at the same row with the same reported count."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from sp2brst.algebra import Algebra, TermBudgetError
from sp2brst.theory import so3_spec
from sp2brst.theoryfile import build_algebra, parse_theory
from solver_oracles import bracket_by_merges, ghost, lagrange, lagrange_mom, mul_sum

THEORY_DIR = Path(__file__).resolve().parent.parent / "theories"

# so3-deformed has structure-function pairings (a w factor between the
# derivatives); mixed2 has a fermionic constraint, so even ghosts and odd
# coordinates; shift has a physical coordinate
ALGEBRAS = [
    build_algebra(parse_theory((THEORY_DIR / f"{name}.json").read_text()))
    for name in ("so3-deformed", "mixed2", "shift")
]

# both sides of the field-width boundaries: the width is one more than the
# bit length of the largest exponent, so 1|2, 3|4 and 7|8 change it
_EXPONENTS = st.sampled_from([1, 2, 3, 4, 7, 8, 2 ** 20])


@st.composite
def poly_pairs(draw):
    """(algebra, p, q): two polynomials over a few shared variables, so
    that products meet and cancel, with integer or mixed coefficients;
    one time in four q is p, whose odd cross terms cancel in p p."""
    alg = draw(st.sampled_from(ALGEBRAS))
    pool = draw(st.lists(st.integers(0, len(alg.vars) - 1),
                         min_size=1, max_size=5, unique=True))
    dens = draw(st.sampled_from([(1,), (1, 2, 3, 4, 6, 9, 16, 27)]))

    def poly():
        terms = {}
        for _ in range(draw(st.integers(1, 6))):
            mono = []
            for v in sorted(pool):
                if draw(st.booleans()):
                    mono.append((v, 1 if alg.var_parity[v] else draw(_EXPONENTS)))
            num = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
            terms[tuple(mono)] = Fraction(num, draw(st.sampled_from(dens)))
        return alg.poly(terms)

    p = poly()
    return alg, p, p if draw(st.integers(0, 3)) == 0 else poly()


_MAX_CP = st.one_of(st.none(), st.integers(0, 4))


@seed(20240917)
@given(poly_pairs(), _MAX_CP)
@settings(max_examples=300, deadline=None)
def test_mul_matches_the_merge_oracle(case, max_cp):
    alg, p, q = case
    want = mul_sum(alg, [(p.terms, q.terms)], max_cp)
    assert list(alg.mul(p, q, max_cp=max_cp).terms.items()) == list(want.items())


@seed(20240917)
@given(poly_pairs(), _MAX_CP)
@settings(max_examples=300, deadline=None)
def test_bracket_matches_the_merge_oracle(case, max_cp):
    alg, x, y = case
    want = bracket_by_merges(alg, x, y, max_cp)
    assert list(alg.bracket(x, y, max_cp=max_cp).terms.items()) == list(want.items())


def _wide_pair():
    """Two so3 elements with a 13-term bracket and a 27-term product."""
    alg = Algebra(so3_spec())
    x = (alg.xi(1) * ghost(alg, 2, 1) * ghost(alg, 3, 2)
         + alg.xi(2) ** 2 * lagrange_mom(alg, 1) * Fraction(1, 3)
         + alg.ghost_mom(1, 1) * ghost(alg, 2, 2) * ghost(alg, 3, 1)
         - lagrange(alg, 2) * lagrange_mom(alg, 3) ** 2)
    y = (alg.ghost_mom(2, 2) * alg.ghost_mom(3, 1) * lagrange(alg, 1)
         + alg.xi(3) * ghost(alg, 1, 2) * Fraction(-2, 3)
         + ghost(alg, 1, 1) * lagrange(alg, 3) ** 2
         + alg.xi(1) * alg.xi(2) * alg.ghost_mom(1, 2) * lagrange_mom(alg, 2))
    return x + y, y * 2 - x


@pytest.mark.parametrize("budget", [1, 3, 7, 12])
def test_bracket_budget_stops_where_the_oracle_does(budget):
    x, y = _wide_pair()
    assert len(x.alg.bracket(x, y).terms) > budget
    small = Algebra(so3_spec(), max_terms=budget)
    with pytest.raises(TermBudgetError) as got:
        small.bracket(x, y)
    with pytest.raises(TermBudgetError) as want:
        bracket_by_merges(small, x, y)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("budget", [1, 7, 20, 26])
def test_mul_budget_stops_where_the_oracle_does(budget):
    x, y = _wide_pair()
    small = Algebra(so3_spec(), max_terms=budget)
    with pytest.raises(TermBudgetError) as got:
        small.mul(x, y)
    with pytest.raises(TermBudgetError) as want:
        mul_sum(small, [(x.terms, y.terms)])
    assert str(got.value) == str(want.value)
