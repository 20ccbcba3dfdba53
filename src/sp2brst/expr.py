"""Plain-text expression format for polynomials.

Grammar (whitespace-insensitive):

    expr    := term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | atom ('^' INT)?
    atom    := RATIONAL | VARIABLE | '(' expr ')'
    RATIONAL:= INT ('/' INT)?
    VARIABLE:= ('xi'|'xip'|'lam'|'pi') '[' INT ']'  |  ('P'|'C') '[' INT ',' INT ']'  |  NAME
    NAME    := a declared coordinate name (TheorySpec.names), a whole identifier

Serialisation is deterministic: terms in canonical monomial order (total
degree, then factor ids), factors ascending, coefficients as 'p/q'.
Raising a Grassmann-odd variable to a power >= 2 is rejected as an error
rather than silently producing zero.

Numbers and variables are read as (monomial, coefficient) pairs and a
term of them as one such pair, odd factors moved into variable order with
their Koszul sign; only a parenthesized factor makes a term a product of
polynomials.  A sum's terms are packed by one Algebra.poly call.  A
coefficient is an int unless the text has a rational literal a/b: only
that makes a Fraction, importing fractions on its first use, and
serialize writes each coefficient from the polynomial's int numerators
and denominator.

Parentheses and unary minuses nest at most MAX_DEPTH deep, and an
integer may have no more digits than int() reads; past either limit the
parse raises ExprError.  So does a coefficient it forms, in a product, a
sum or a power's squaring, of more digits than str() writes in lowest
terms; serialize raises DigitLimitError for one formed elsewhere.
"""

from __future__ import annotations

import re
import sys
from math import gcd

from .algebra import _SECTOR_BASENAME, GradedPoly, InputError, Sector, _factors

# the canonical variable families, and the two that take an Sp(2) index
_FAMILIES = frozenset(_SECTOR_BASENAME.values())
_SP2_FAMILIES = frozenset(_SECTOR_BASENAME[s] for s in (Sector.GHOST_MOM, Sector.GHOST))


class ExprError(InputError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class DigitLimitError(InputError):
    """A coefficient has more digits than str() writes."""


def _digit_limit() -> int:
    """sys.get_int_max_str_digits(); 0, no limit, before Python 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_long(num, den=1) -> bool:
    """Whether num/den in lowest terms has a numerator or denominator past
    the digit limit, which is at least 640: 2 ** 2126 < 10 ** 640."""
    m = max(abs(num), den)
    limit = _digit_limit() if m.bit_length() > 2126 else 0
    return bool(limit) and m // gcd(num, den) >= 10 ** limit


def _monomials(p):
    """The (monomial, coefficient) pairs of polynomial p in stored order,
    each coefficient an int over p's denominator 1, else a Fraction: only
    a rational literal gives a parse a denominator, and it has loaded
    fractions already."""
    width, den = p.width, p.den
    if den == 1:
        return [(tuple(_factors(k, width)), n) for k, n in p.nums.items()]
    from fractions import Fraction

    return [(tuple(_factors(k, width)), Fraction(n, den)) for k, n in p.nums.items()]


# an int, a name or one other non-space character; finditer steps over
# whitespace, newlines included
_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\S)")
_KINDS = (None, "INT", "NAME", "SYM")

# the deepest nesting of parentheses and unary minuses a parse accepts: the
# parser recurses a few frames per level, and this many stay well inside
# the interpreter's default recursion limit
MAX_DEPTH = 100


def _tokenize(text):
    """The tokens of text as (kind, value, offset), offset the index of
    the token's first character; the END token's offset is len(text)."""
    tokens = [(_KINDS[m.lastindex], m.group(), m.start()) for m in _TOKEN.finditer(text)]
    tokens.append(("END", "", len(text)))
    return tokens


def _position(text, offset):
    """(line, column) of an offset into text, both from 1: only LF starts
    a new line, and every other character takes one column."""
    start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, start) + 1, offset - start + 1


class _Parser:
    def __init__(self, alg, text):
        self.alg = alg
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # parentheses and unary minuses open around the factor

    def error(self, message, offset):
        """The ExprError of message at an offset of the text."""
        return ExprError(message, *_position(self.text, offset))

    def integer(self, val, at):
        """The value of the INT token val at an offset of the text."""
        try:
            return int(val)
        except ValueError:  # more digits than the interpreter converts
            raise self.error(f"integer of {len(val)} digits is too long", at) from None

    def check(self, p, at):
        """p, a number or a polynomial formed at an offset of the text,
        unless a coefficient of it, in lowest terms, is past the digit
        limit."""
        if isinstance(p, GradedPoly):
            den = p.den
            pairs = ((n, den) for n in p.nums.values())
        else:
            pairs = ((p.numerator, p.denominator),)
        for n, d in pairs:
            if _too_long(n, d):
                raise self.error(f"a coefficient of more than {_digit_limit()} digits", at)
        return p

    def product(self, p, q, at):
        """p * q for two numbers or two polynomials formed at an offset of
        the text, checked as check() does; a product of polynomials whose
        pairs of terms outnumber the term budget is refused before it forms,
        so no power or product runs for long on a short text."""
        if isinstance(p, GradedPoly):
            m, n = p.term_count(), q.term_count()
            if m * n > self.alg.max_terms:
                raise self.error(f"a product of {m} by {n} terms is past the term "
                                 f"budget ({self.alg.max_terms})", at)
        return self.check(p * q, at)

    def nest(self, at):
        """Open one more level of nesting at an offset of the text; the
        caller closes it with self.depth -= 1."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error(f"nested more than {MAX_DEPTH} levels deep", at)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_sym(self, ch):
        kind, val, at = self.next()
        if kind != "SYM" or val != ch:
            raise self.error(f"expected '{ch}', found {val!r}" if val else f"expected '{ch}'", at)

    def parse(self):
        p = self.expr()
        kind, val, at = self.peek()
        if kind != "END":
            raise self.error(f"unexpected {val!r}", at)
        return p

    def expr(self):
        """A sum of terms, collected as {monomial: coefficient} in the order
        the running sum would hold them, checked against the term budget
        after each term, and packed by one Algebra.poly call."""
        terms = {}
        sign = 1
        while True:
            at = self.peek()[2]
            term = self.term()
            for mono, c in (term,) if isinstance(term, tuple) else _monomials(term):
                if not c:
                    continue
                if sign < 0:
                    c = -c
                old = terms.get(mono)
                if old is not None:
                    c = self.check(c + old, at)
                    if not c:
                        del terms[mono]
                        continue
                terms[mono] = c
            self.alg.check_budget(terms)
            kind, val, _ = self.peek()
            if kind == "SYM" and val in "+-":
                self.next()
                sign = 1 if val == "+" else -1
            else:
                return self.alg.poly(terms)

    def term(self):
        """A product of factors.  Numbers and variables are multiplied as
        (monomial, coefficient) pairs; from a parenthesized factor on, the
        product is a polynomial, each later factor multiplied in turn."""
        p = self.factor()
        while True:
            kind, val, at = self.peek()
            if kind != "SYM" or val != "*":
                return p
            self.next()
            q = self.factor()
            if isinstance(p, tuple) and isinstance(q, tuple):
                p = self._times(p, q, at)
            else:
                p = self.product(self._poly(p), self._poly(q), at)

    def _times(self, p, q, at):
        """The product of two (monomial, coefficient) pairs: exponents add,
        an odd variable in both gives coefficient 0, and the sign flips once
        for each odd factor of q moved left past a larger one of p."""
        (m1, c), (m2, c2) = p, q
        if c2 != 1:
            c = self.check(c * c2, at)
        if not m2 or not c:
            return m1, c
        par = self.alg.var_parity
        exps = dict(m1)
        for v, e in m2:
            if v in exps and par[v]:
                return m1, 0
            exps[v] = exps.get(v, 0) + e
            if par[v] and sum(par[u] for u, _ in m1 if u > v) & 1:
                c = -c
        return tuple(sorted(exps.items())), c

    def _poly(self, p):
        return self.alg.poly(dict((p,))) if isinstance(p, tuple) else p

    def factor(self):
        """A (monomial, coefficient) pair for a number or a variable, with
        any power and unary minus, and a polynomial otherwise."""
        kind, val, at = self.peek()
        if kind == "SYM" and val == "-":
            self.next()
            self.nest(at)
            p = self.factor()  # -x^2 is -(x^2), as serialize writes it
            self.depth -= 1
            return (p[0], -p[1]) if isinstance(p, tuple) else -p
        p = self.atom()
        kind, val, _ = self.peek()
        if kind == "SYM" and val == "^":
            self.next()
            tok = self.next()
            if tok[0] != "INT":
                raise self.error("expected integer exponent", tok[2])
            e = self.integer(tok[1], tok[2])
            if e >= 2 and self._is_odd_generator(p):
                raise self.error("odd variable raised to a power >= 2", tok[2])
            if isinstance(p, tuple):  # a number or one variable
                p = (tuple((v, e) for v, _ in p[0]) if e else (), self.power(p[1], e, tok[2]))
            else:
                p = self.power(p, e, tok[2])
        return p

    def power(self, p, e, at):
        """p ** e for a number or a polynomial p, by squaring, each step a
        product(), so none multiplies coefficients past the digit limit or
        more pairs of terms than the term budget."""
        out = self.alg.one() if isinstance(p, GradedPoly) else 1
        while e:
            if e & 1:
                out = self.product(out, p, at)
            e >>= 1
            if e:
                p = self.product(p, p, at)
        return out

    def _is_odd_generator(self, p):
        if not isinstance(p, tuple):
            if p.term_count() != 1:
                return False
            (p,) = _monomials(p)
        mono, c = p
        return len(mono) == 1 and mono[0][1] == 1 and \
            self.alg.var_parity[mono[0][0]] == 1 and c == 1

    def atom(self):
        kind, val, at = self.peek()
        if kind == "SYM" and val == "(":
            self.next()
            self.nest(at)
            p = self.expr()
            self.expect_sym(")")
            self.depth -= 1
            return p
        if kind == "INT":
            self.next()
            num = self.integer(val, at)
            k2, v2, _ = self.peek()
            if k2 == "SYM" and v2 == "/":
                self.next()
                tok = self.next()
                if tok[0] != "INT":
                    raise self.error("expected integer denominator", tok[2])
                den = self.integer(tok[1], tok[2])
                if den == 0:
                    raise self.error("zero denominator", tok[2])
                from fractions import Fraction  # loaded by a rational literal only

                return (), Fraction(num, den)
            return (), num
        if kind == "NAME":
            return ((self.variable(), 1),), 1
        raise self.error(f"unexpected {val!r}" if val else "unexpected end of input", at)

    def variable(self):
        kind, name, at = self.next()
        if name not in _FAMILIES:
            vid = self.alg.by_name.get(name)  # a declared coordinate name
            if vid is None:
                raise self.error(f"unknown variable family {name!r}", at)
            return vid
        self.expect_sym("[")
        tok = self.next()
        if tok[0] != "INT":
            raise self.error("expected index", tok[2])
        idx = [self.integer(tok[1], tok[2])]
        kind2, val2, _ = self.peek()
        if kind2 == "SYM" and val2 == ",":
            self.next()
            tok = self.next()
            if tok[0] != "INT":
                raise self.error("expected index", tok[2])
            idx.append(self.integer(tok[1], tok[2]))
        self.expect_sym("]")
        want_two = name in _SP2_FAMILIES
        if want_two != (len(idx) == 2):
            raise self.error(f"{name} takes {'two indices' if want_two else 'one index'}", at)
        if want_two and idx[1] not in (1, 2):
            raise self.error("Sp(2) index must be 1 or 2", at)
        full = f"{name}[{idx[0]},{idx[1]}]" if want_two else f"{name}[{idx[0]}]"
        vid = self.alg.by_name.get(full)
        if vid is None:
            raise self.error(f"variable {full} does not exist in this theory", at)
        return vid


def echo(text):
    """text as an error message shows it: quoted when at most 80 characters
    long, else only its length, so one bad entry gives one short line."""
    return repr(text) if len(text) <= 80 else f"({len(text)} characters)"


def parse(alg, text) -> GradedPoly:
    """Parse an expression string into a polynomial over `alg`."""
    return _Parser(alg, text).parse()


def serialize(p: GradedPoly) -> str:
    """Deterministic plain-text rendering; parse(serialize(p)) == p.  Each
    coefficient n/den is written from p's int numerator n and denominator
    den in lowest terms: n // g, then /den // g unless that is 1, with
    g = gcd(n, den)."""
    if not p:
        return "0"
    width, den = p.width, p.den
    rows = sorted((sum(e for _, e in mono), mono, n)
                  for mono, n in ((tuple(_factors(k, width)), n) for k, n in p.nums.items()))
    names = [v.name for v in p.alg.vars]
    chunks = []
    for _, mono, n in rows:  # monomials are distinct, so no n is compared
        g = gcd(n, den) if den != 1 else 1
        mag, d = abs(n) // g, den // g
        factors = [f"{names[v]}^{e}" if e > 1 else names[v] for v, e in mono]
        if mag != 1 or d != 1 or not factors:
            try:
                factors.insert(0, str(mag) if d == 1 else f"{mag}/{d}")
            except ValueError:  # past the interpreter's digit limit
                raise DigitLimitError(f"a coefficient of more than {_digit_limit()} "
                                      "digits is too long to write") from None
        chunks.append((" - " if n < 0 else " + ") + "*".join(factors))
    text = "".join(chunks)  # the first term's sign is "-" or nothing
    return "-" + text[3:] if text[1] == "-" else text[3:]
