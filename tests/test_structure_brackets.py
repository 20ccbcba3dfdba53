"""Brackets through a structure-function pairing, against the merge oracle.

On so3-deformed the matter pairing of xi[3] with xi[1] carries the
structure function w_31 = xi[2] + xi[2]^2, so the bracket forms dx * w
before multiplying by dy.  These tests pin the two places where that
three-factor product differs from a plain one: the term budget is
checked inside dx * w as well as in the final sum, and the packed field
width must hold one exponent from each of dx, w and dy."""

from pathlib import Path

import pytest

from sp2brst import expr
from sp2brst.algebra import Algebra, TermBudgetError
from sp2brst.theoryfile import parse_theory
from solver_oracles import bracket_by_merges, derive_terms, mul_sum

SPEC = parse_theory(
    (Path(__file__).resolve().parent.parent / "theories" / "so3-deformed.json")
    .read_text()).spec
ALG = Algebra(SPEC)


def _w(alg, a, b):
    """The structure function of the matter pairing (xi[a], xi[b]), as a
    raw term dict."""
    va, vb = alg.by_name[f"xi[{a}]"], alg.by_name[f"xi[{b}]"]
    (mid,) = [mid for x, y, _, mid in alg._omega if (x, y) == (va, vb)]
    return mid.terms


def _budget_pair(alg):
    """x = xi[3] A with six ghost monomials in A, y = xi[1] B with three
    multiplier monomials in B: the only pairing that fires is (xi[3],
    xi[1]), whose dx * w grows by two terms a row to 12, and whose
    bracket grows by three a row to 36."""
    x = expr.parse(alg, "xi[3]*(C[1,1] + C[1,2]*P[2,1] + 2*C[2,2]*C[3,1]"
                        " - lam[2]*P[1,1] + P[3,2] + 3*C[1,1]*P[3,2])")
    y = expr.parse(alg, "xi[1]*(lam[1] - 2*lam[3] + lam[2]*lam[3])")
    return x, y


def test_budget_pair_shapes():
    x, y = _budget_pair(ALG)
    dx = derive_terms(ALG, x.terms, ALG.by_name["xi[3]"], False)
    assert len(mul_sum(ALG, [(dx, _w(ALG, 3, 1))])) == 12
    assert len(ALG.bracket(x, y).terms) == 36
    assert ALG.bracket(x, y) == ALG.poly(bracket_by_merges(ALG, x, y))


# 3, 7 and 9 are passed while dx * w forms (after its 2nd, 4th and 5th
# rows), 12 and 30 only in the final sum; the two sums grow at different
# rates, so a budget checked in the final sum alone reports other counts
@pytest.mark.parametrize("budget", [3, 7, 9, 12, 30])
def test_budget_stops_where_the_oracle_does(budget):
    x, y = _budget_pair(ALG)
    small = Algebra(SPEC, max_terms=budget)
    with pytest.raises(TermBudgetError) as got:
        small.bracket(x, y)
    with pytest.raises(TermBudgetError) as want:
        bracket_by_merges(small, x, y)
    assert str(got.value) == str(want.value)
    reached = int(str(got.value).split()[5])
    assert (reached <= 12) == (budget < 12)


# xi[2]^7 in both arguments and xi[2]^2 in w_31 give an xi[2]^16 term: a
# field sized for two factors of exponent at most 7 holds only 15.  The
# ghosts make the right derivatives of x by C[1,1] and C[2,2] pass odd
# factors.
@pytest.mark.parametrize("x, y", [
    ("xi[2]^7*xi[3]", "xi[2]^7*xi[1]"),
    ("xi[2]^7*xi[3]*C[1,1]*C[2,2]*C[3,1] - 2*C[1,1]*C[2,2]*P[3,2]",
     "xi[2]^7*xi[1]*P[1,1]*P[2,2] + 3*C[3,2]*P[2,2]*P[1,1]"),
])
def test_three_factor_exponents_fit(x, y):
    x, y = expr.parse(ALG, x), expr.parse(ALG, y)
    got = ALG.bracket(x, y)
    want = bracket_by_merges(ALG, x, y)
    assert list(got.terms.items()) == list(want.items())
    assert max(e for mono in got.terms for _, e in mono) == 16
