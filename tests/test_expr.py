"""Expression parsing and deterministic serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sp2brst.algebra import Algebra
from sp2brst.expr import ExprError, _tokenize, parse, serialize
from sp2brst.solver import build_omega1
from sp2brst.theory import abelian_spec, mixed_parity_spec

ALG = Algebra(mixed_parity_spec())


def test_parse_basics():
    assert parse(ALG, "xi[1]") == ALG.xi(1)
    assert parse(ALG, "2*xi[1]") == 2 * ALG.xi(1)
    assert parse(ALG, "1/2*xi[1]") == ALG.xi(1) * Fraction(1, 2)
    assert parse(ALG, "xi[1]^2") == ALG.xi(1) ** 2
    assert parse(ALG, "-xi[1] + xi[1]").is_zero()
    assert parse(ALG, "0").is_zero()
    assert parse(ALG, "P[2,1]*C[2,1]") == ALG.mul(ALG.ghost_mom(2, 1), ALG.ghost(2, 1))
    assert parse(ALG, "lam[1]*pi[1]") == ALG.mul(ALG.lagrange(1), ALG.lagrange_mom(1))


def test_precedence_and_grouping():
    a = ALG
    assert parse(a, "xi[1] + 2*xi[2]") == a.xi(1) + 2 * a.xi(2)
    assert parse(a, "(xi[1] + xi[2])^2") == (a.xi(1) + a.xi(2)) ** 2
    assert parse(a, "-(xi[1] - xi[2])") == a.xi(2) - a.xi(1)
    assert parse(a, "2*xi[1]^2") == 2 * (a.xi(1) ** 2)
    assert parse(a, " xi[1]\n + xi[1] ") == 2 * a.xi(1)


def test_unary_minus_binds_looser_than_power():
    # the leading term of a serialized polynomial can be "-xi[1]^2"
    a = ALG
    assert parse(a, "-xi[1]^2") == -(a.xi(1) ** 2)
    assert parse(a, "(-xi[1])^2") == a.xi(1) ** 2
    assert parse(a, "2*-xi[1]^2") == -2 * (a.xi(1) ** 2)
    assert parse(a, "--xi[1]") == a.xi(1)
    with pytest.raises(ExprError):
        parse(a, "-xi[2]^2")  # odd generator squared


def test_serialize_golden():
    alg = Algebra(abelian_spec(1))
    om1 = build_omega1(alg)
    assert serialize(om1.get((1,))) == "xi[1]*C[1,1] + P[1,2]*pi[1]"
    assert serialize(om1.get((2,))) == "xi[1]*C[1,2] - P[1,1]*pi[1]"
    assert serialize(alg.zero()) == "0"
    assert serialize(alg.scalar(Fraction(-3, 7))) == "-3/7"
    assert serialize(alg.xi(1) * Fraction(5, 2)) == "5/2*xi[1]"
    assert serialize(alg.xi(1) ** 3 - alg.xi(1)) == "-xi[1] + xi[1]^3"


def test_error_positions():
    with pytest.raises(ExprError) as err:
        parse(ALG, "xi[1] + @")
    assert err.value.line == 1
    assert err.value.col == 9
    with pytest.raises(ExprError) as err:
        parse(ALG, "xi[1] +\n  foo[1]")
    assert err.value.line == 2
    assert "foo" in str(err.value)


def test_rejections():
    with pytest.raises(ExprError):
        parse(ALG, "xi[7]")  # index out of range
    with pytest.raises(ExprError):
        parse(ALG, "xi[1,2]")  # arity
    with pytest.raises(ExprError):
        parse(ALG, "C[1]")  # arity
    with pytest.raises(ExprError):
        parse(ALG, "C[1,3]")  # Sp(2) index
    with pytest.raises(ExprError):
        parse(ALG, "xi[2]^2")  # odd generator squared
    with pytest.raises(ExprError):
        parse(ALG, "1/0")
    with pytest.raises(ExprError):
        parse(ALG, "xi[1] +")
    with pytest.raises(ExprError):
        parse(ALG, "(xi[1]")
    with pytest.raises(ExprError):
        parse(ALG, "xip[1]")  # no physical coordinates in this theory


def test_odd_square_through_parentheses_is_zero():
    # only a bare odd generator with ^ is rejected; squaring a sum is legal
    p = parse(ALG, "(xi[2] + xi[1])^2")
    assert p == ALG.xi(1) ** 2 + 2 * ALG.mul(ALG.xi(1), ALG.xi(2))


_VAR_NAMES = [v.name for v in ALG.vars]


@st.composite
def polynomials(draw):
    p = ALG.zero()
    for _ in range(draw(st.integers(1, 4))):
        term = ALG.scalar(draw(st.fractions(min_value=-5, max_value=5,
                                            max_denominator=4)))
        for _ in range(draw(st.integers(0, 3))):
            term = ALG.mul(term, ALG.gen(draw(st.integers(0, len(ALG.vars) - 1))))
        p = p + term
    return p


@given(polynomials())
@settings(max_examples=80, deadline=None)
def test_roundtrip(p):
    assert parse(ALG, serialize(p)) == p


def test_serialization_is_deterministic():
    p = ALG.xi(1) * ALG.xi(2) + ALG.ghost(1, 1) * ALG.ghost_mom(2, 2) - ALG.one()
    q = -ALG.one() + ALG.ghost(1, 1) * ALG.ghost_mom(2, 2) + ALG.xi(1) * ALG.xi(2)
    assert serialize(p) == serialize(q)


def test_token_positions_across_tabs_crlf_and_blank_lines():
    # a tab and a CR each take one column; only LF starts a new line
    tokens = _tokenize("xi[1]\t+ 2\r\n\n\t*xi[2]")
    assert [(val, line, col) for _, val, line, col in tokens] == [
        ("xi", 1, 1), ("[", 1, 3), ("1", 1, 4), ("]", 1, 5), ("+", 1, 7),
        ("2", 1, 9), ("*", 3, 2), ("xi", 3, 3), ("[", 3, 5), ("2", 3, 6),
        ("]", 3, 7), ("", 3, 8)]
    assert [kind for kind, *_ in tokens[:3]] == ["NAME", "SYM", "INT"]
    assert tokens[-1][0] == "END"
    with pytest.raises(ExprError) as err:
        parse(ALG, "xi[1] +\r\n\n\t\t)")
    assert (err.value.line, err.value.col) == (3, 3)
