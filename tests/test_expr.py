"""Expression parsing and deterministic serialization."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sp2brst.algebra import Algebra, TermBudgetError, TheoryError
from sp2brst.expr import (MAX_DEPTH, DigitLimitError, ExprError, _position, _tokenize,
                          parse, serialize)
from sp2brst.identities import random_element
from sp2brst.solver import build_omega1
from sp2brst.theory import TheorySpec, abelian_spec, mixed_parity_spec
from sp2brst.theoryfile import build_algebra, parse_theory
from solver_oracles import ghost, lagrange, lagrange_mom

ALG = Algebra(mixed_parity_spec())
THEORY_DIR = Path(__file__).resolve().parent.parent / "theories"


def test_parse_basics():
    assert parse(ALG, "xi[1]") == ALG.xi(1)
    assert parse(ALG, "2*xi[1]") == 2 * ALG.xi(1)
    assert parse(ALG, "1/2*xi[1]") == ALG.xi(1) * Fraction(1, 2)
    assert parse(ALG, "xi[1]^2") == ALG.xi(1) ** 2
    assert parse(ALG, "-xi[1] + xi[1]").is_zero()
    assert parse(ALG, "0").is_zero()
    assert parse(ALG, "P[2,1]*C[2,1]") == ALG.mul(ALG.ghost_mom(2, 1), ghost(ALG, 2, 1))
    assert parse(ALG, "lam[1]*pi[1]") == ALG.mul(lagrange(ALG, 1), lagrange_mom(ALG, 1))


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
    p = ALG.xi(1) * ALG.xi(2) + ghost(ALG, 1, 1) * ALG.ghost_mom(2, 2) - ALG.one()
    q = -ALG.one() + ghost(ALG, 1, 1) * ALG.ghost_mom(2, 2) + ALG.xi(1) * ALG.xi(2)
    assert serialize(p) == serialize(q)


def test_token_positions_across_tabs_crlf_and_blank_lines():
    # a tab and a CR each take one column; only LF starts a new line.
    # Tokens carry offsets, and a position is computed from the offset.
    text = "xi[1]\t+ 2\r\n\n\t*xi[2]"
    tokens = _tokenize(text)
    assert [(val, *_position(text, at)) for _, val, at in tokens] == [
        ("xi", 1, 1), ("[", 1, 3), ("1", 1, 4), ("]", 1, 5), ("+", 1, 7),
        ("2", 1, 9), ("*", 3, 2), ("xi", 3, 3), ("[", 3, 5), ("2", 3, 6),
        ("]", 3, 7), ("", 3, 8)]
    assert [kind for kind, *_ in tokens[:3]] == ["NAME", "SYM", "INT"]
    assert tokens[-1][0] == "END"
    with pytest.raises(ExprError) as err:
        parse(ALG, "xi[1] +\r\n\n\t\t)")
    assert (err.value.line, err.value.col) == (3, 3)


# -- terms collected as monomials ------------------------------------------
# A term of numbers, variables and integer powers joined by '*' is
# collected as (coefficient, monomial) and the sum packed once; the cases
# below are those the collection treats apart from a product of polynomials.


def test_odd_factors_out_of_order_take_their_koszul_sign():
    a = ALG
    c11, c12, p11 = ghost(a, 1, 1), ghost(a, 1, 2), a.ghost_mom(1, 1)
    assert parse(a, "C[1,2]*C[1,1]") == -a.mul(c11, c12)
    assert parse(a, "C[1,2]*C[1,1]") == a.mul(c12, c11)
    assert parse(a, "C[1,2]*xi[1]*C[1,1]") == -a.mul(a.xi(1), a.mul(c11, c12))
    # three odd factors in reverse order: three transpositions
    assert parse(a, "C[1,2]*C[1,1]*P[1,1]") == -a.mul(p11, a.mul(c11, c12))
    # P[2,1] is even, as the second constraint is odd: no sign past it
    assert parse(a, "C[1,1]*P[2,1]") == a.mul(a.ghost_mom(2, 1), c11)


def test_repeated_odd_factor_gives_zero():
    a = ALG
    assert parse(a, "C[1,1]*C[1,1]").is_zero()
    assert parse(a, "2*C[1,1]*xi[1]*C[1,1] + xi[1]") == a.xi(1)
    assert parse(a, "xi[2]*C[1,1]*xi[2]").is_zero()  # xi[2] is odd in mixed2


def test_zeroth_and_rational_powers():
    a = ALG
    assert parse(a, "xi[1]^0") == 1
    assert parse(a, "C[1,1]^0*xi[1]") == a.xi(1)
    assert parse(a, "0^0") == 1
    assert parse(a, "1/2^3*xi[1]") == a.xi(1) * Fraction(1, 8)
    assert parse(a, "2/3^2*xi[1]^2*xi[1]^3") == a.xi(1) ** 5 * Fraction(4, 9)
    assert parse(a, "xi[1]^32") == a.xi(1) ** 32  # past the narrowest field width
    assert parse(a, "xi[1]^32").width == 6


def test_chains_of_unary_minus():
    a = ALG
    assert parse(a, "---xi[1]") == -a.xi(1)
    assert parse(a, "2*--xi[1]*-3") == -6 * a.xi(1)
    assert parse(a, "xi[1] - -xi[1]") == 2 * a.xi(1)
    assert parse(a, "-2^2") == -4
    assert parse(a, "- - C[1,2]*-C[1,1]") == a.mul(ghost(a, 1, 1), ghost(a, 1, 2))


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("-", ""), ("(-", ")")])
def test_nesting_depth_limit(opener, closer):
    # each opener is one level, or two for "(-": the limit counts them alike
    a = ALG
    per = len(opener)
    n = MAX_DEPTH // per
    text = opener * n + "xi[1]" + closer * n
    assert parse(a, text) == (-1) ** (n * opener.count("-")) * a.xi(1)
    deeper = opener * (n + 1) + "xi[1]" + closer * (n + 1)
    with pytest.raises(ExprError, match=f"nested more than {MAX_DEPTH} levels deep") as e:
        parse(a, deeper)
    assert (e.value.line, e.value.col) == (1, MAX_DEPTH + 1)
    # far past the interpreter's recursion limit, still one ExprError
    with pytest.raises(ExprError):
        parse(a, opener * 5000 + "1" + closer * 5000)
    # sibling groups do not add up
    assert parse(a, " + ".join([text] * 3)) == parse(a, text) * 3


@pytest.mark.parametrize("template, col", [
    ("{}", 1), ("xi[1]^{}", 7), ("xi[{}]", 4), ("1/{}", 3), ("C[1,{}]", 5)])
def test_integer_past_the_digit_limit(template, col):
    digits = "7" * 5000
    with pytest.raises(ExprError, match="integer of 5000 digits is too long") as e:
        parse(ALG, template.format(digits))
    assert (e.value.line, e.value.col) == (1, col)
    assert parse(ALG, template.format("1")) is not None


_WIDEST = "9" * 4300  # the most digits str() writes by default


@pytest.mark.parametrize("text, col", [
    (f"{_WIDEST}*{_WIDEST}", 4301),  # a product of numbers
    (f"{_WIDEST}*xi[1] + xi[1]", 4310),  # a sum, 10 ** 4300 * xi[1]
    ("2^99999999999", 3),  # a power, refused before it is computed
    ("1/2^99999999999", 5),
    ("10^4300", 4),  # 4,301 digits
    ("(2)^99999999999", 5),  # a polynomial's power, refused at a squaring
    ("(2*xi[1])^99999999999", 11),
    ("(10)^4300", 6),
    (f"({_WIDEST}*xi[1])*({_WIDEST})", 4309),  # a product of polynomials
], ids=["product", "sum", "power", "power-of-a-fraction", "power-past-by-one",
        "parenthesized-power", "power-of-a-term", "parenthesized-power-past-by-one",
        "product-of-polynomials"])
def test_formed_coefficient_past_the_digit_limit(text, col):
    with pytest.raises(ExprError, match="a coefficient of more than 4300 digits") as e:
        parse(ALG, text)
    assert (e.value.line, e.value.col) == (1, col)


def test_coefficients_up_to_the_digit_limit_parse_and_serialize():
    widest = int(_WIDEST)
    for text in (f"{_WIDEST}*1", "10^4299", "(10)^4299", f"{_WIDEST}*xi[1]^2 + 0",
                 f"1/{_WIDEST}*(xi[1] + 1)"):
        p = parse(ALG, text)
        assert parse(ALG, serialize(p)) == p
    assert serialize(ALG.scalar(widest)) == _WIDEST
    with pytest.raises(DigitLimitError, match="more than 4300 digits"):
        serialize(ALG.scalar(widest + 1) * ALG.xi(1))


def test_parenthesized_and_plain_terms_mixed():
    a = ALG
    x1, x2 = a.xi(1), a.xi(2)
    got = parse(a, "xi[1] + (xi[1] + xi[2])*2 - 3*xi[1] + (1/2)^2*xi[2]*(xi[1]) - xi[2]")
    assert got == x2 + a.mul(x2, x1) * Fraction(1, 4)
    assert parse(a, "(xi[1] - xi[1]) + xi[1]^2") == x1 ** 2
    assert parse(a, "xi[1]*(2) - (xi[1])*2").is_zero()


_ERRORS = [  # (text, line, column, message) as the one-product-at-a-time parser gave them
    ("xi[1] + 2*xi[2]^2", 1, 17, "odd variable raised to a power >= 2"),
    ("xi[1]*C[1,1]^2 + 1", 1, 14, "odd variable raised to a power >= 2"),
    ("2*xi[1]/3", 1, 8, "unexpected '/'"),
    ("1/0*xi[1]", 1, 3, "zero denominator"),
    ("xi[1]^-1", 1, 7, "expected integer exponent"),
    ("xi[1]*foo[1]", 1, 7, "unknown variable family 'foo'"),
    ("xi[1]*xi[1,2]", 1, 7, "xi takes one index"),
    ("xi[1] + C[1]", 1, 9, "C takes two indices"),
    ("-C[1,3]", 1, 2, "Sp(2) index must be 1 or 2"),
    ("xi[7]*2", 1, 1, "variable xi[7] does not exist in this theory"),
    ("xi[1]*(xi[2]", 1, 13, "expected ')'"),
    ("2*+xi[1]", 1, 3, "unexpected '+'"),
    ("xi[1]^2^3", 1, 8, "unexpected '^'"),
    ("P[1,]", 1, 5, "expected index"),
    ("3/x", 1, 3, "expected integer denominator"),
    ("xi[1]\n  + 2*xi[1]*@", 2, 13, "unexpected '@'"),
    ("(xi[1])*foo[2]", 1, 9, "unknown variable family 'foo'"),
    ("xi[1]*-", 1, 8, "unexpected end of input"),
    ("1/2/3", 1, 4, "unexpected '/'"),
    ("C[1,1]*C[1,1]*foo[1]", 1, 15, "unknown variable family 'foo'"),
]


def test_running_sum_is_held_to_the_term_budget():
    # the sum is checked after each term, as adding one term at a time did
    small = Algebra(mixed_parity_spec(), max_terms=2)
    assert parse(small, "xi[1] + lam[1] - lam[1] + xi[1]^2") == small.xi(1) + small.xi(1) ** 2
    with pytest.raises(TermBudgetError, match="3 terms"):
        parse(small, "xi[1] + lam[1] + xi[1]^2 - lam[1]")
    with pytest.raises(TermBudgetError, match="3 terms"):
        parse(small, "xi[1] + (lam[1] + xi[1]^2) - lam[1]")


@pytest.mark.parametrize("text, line, col, message", _ERRORS)
def test_error_columns_unchanged(text, line, col, message):
    with pytest.raises(ExprError) as err:
        parse(ALG, text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == f"line {line}, col {col}: {message}"


@st.composite
def plain_sums(draw):
    """(text, polynomial): a sum of plain terms, each a product of signed
    numbers, variables and powers, with the polynomial formed by the
    algebra's own products and sums."""
    chunks, total = [], ALG.zero()
    for t in range(draw(st.integers(1, 5))):
        factors, term = [], ALG.one()
        for _ in range(draw(st.integers(1, 4))):
            minus = draw(st.integers(0, 2))
            if draw(st.booleans()):
                num, den = draw(st.integers(0, 5)), draw(st.integers(1, 4))
                atom, value = f"{num}/{den}", ALG.scalar(Fraction(num, den))
            else:
                vid = draw(st.integers(0, len(ALG.vars) - 1))
                atom, value = _VAR_NAMES[vid], ALG.gen(vid)
            top = 1 if atom in _ODD else 3
            e = draw(st.one_of(st.none(), st.integers(0, top)))
            if e is not None:
                atom, value = f"{atom}^{e}", value ** e
            factors.append("-" * minus + atom)
            term = ALG.mul(term, -value if minus & 1 else value)
        sign = draw(st.sampled_from("+-")) if t else ""
        chunks.append(f" {sign} " + "*".join(factors) if t else "*".join(factors))
        total = total - term if sign == "-" else total + term
    return "".join(chunks), total


_ODD = {v.name for v in ALG.vars if v.parity}


@given(plain_sums())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_plain_sums_match_the_algebra(case):
    text, want = case
    assert parse(ALG, text) == want


@pytest.mark.parametrize(
    "name", ("abelian3", "mixed2", "shift", "so3", "so3-deformed"))
def test_roundtrip_on_bundled_theories(name):
    alg = build_algebra(parse_theory((THEORY_DIR / f"{name}.json").read_bytes()))
    rng = random.Random(11)
    for _ in range(40):
        p = random_element(alg, rng) + random_element(alg, rng) * random_element(alg, rng)
        assert parse(alg, serialize(p)) == p


def test_declared_names_read_as_their_coordinates():
    # the spec's i-th name is global coordinate i: constraints, then physical
    alg = Algebra(TheorySpec((0, 1), (0,), {(2, 2, 1): "1 + B"}, names=("B", "F", "q")))
    assert parse(alg, "B^2 - 3*F*q") == parse(alg, "xi[1]^2 - 3*xi[2]*xip[1]")
    assert alg.bracket(alg.xi(2), alg.xi(2)) == parse(alg, "xi[1] + xi[1]^2")
    assert serialize(parse(alg, "q*B")) == "xi[1]*xip[1]"
    for text, col, message in [("B[1]", 2, "unexpected '['"),
                               ("Bq", 1, "unknown variable family 'Bq'"),
                               ("2B", 2, "unexpected 'B'"),
                               ("b", 1, "unknown variable family 'b'")]:
        with pytest.raises(ExprError) as e:
            parse(alg, text)
        assert str(e.value) == f"line 1, col {col}: {message}"
    # names are not variables of the algebra itself
    assert "B" not in {v.name for v in alg.vars}
    with pytest.raises(ExprError, match="unknown variable family 'B'"):
        parse(ALG, "B")


def test_more_names_than_coordinates_is_a_theory_error():
    with pytest.raises(TheoryError, match="coordinate index 3 out of range 1..2"):
        Algebra(TheorySpec((0,), (0,), names=("a", "b", "c")))
