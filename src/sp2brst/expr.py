"""Plain-text expression format for polynomials.

Grammar (whitespace-insensitive):

    expr    := term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | atom ('^' INT)?
    atom    := RATIONAL | VARIABLE | '(' expr ')'
    RATIONAL:= INT ('/' INT)?
    VARIABLE:= ('xi'|'xip'|'lam'|'pi') '[' INT ']'  |  ('P'|'C') '[' INT ',' INT ']'

Serialisation is deterministic: terms in canonical monomial order (total
degree, then factor ids), factors ascending, coefficients as 'p/q'.
Raising a Grassmann-odd variable to a power >= 2 is rejected as an error
rather than silently producing zero.

Numbers and variables are read as (monomial, coefficient) pairs and a
term of them as one such pair, odd factors moved into variable order with
their Koszul sign; only a parenthesized factor makes a term a product of
polynomials.  A sum's terms are packed by one Algebra.poly call.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import GradedPoly


class ExprError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# a newline, an int, a name or one other non-space character; finditer
# steps over the other whitespace, and a token's column is its offset
# from the start of its line, plus one
_TOKEN = re.compile(r"(\n)|(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\S)")
_KINDS = (None, None, "INT", "NAME", "SYM")


def _tokenize(text):
    tokens = []
    line, start = 1, 0
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 1:
            line += 1
            start = m.end()
        else:
            tokens.append((_KINDS[group], m.group(group), line, m.start() - start + 1))
    tokens.append(("END", "", line, len(text) - start + 1))
    return tokens


class _Parser:
    def __init__(self, alg, text):
        self.alg = alg
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_sym(self, ch):
        kind, val, line, col = self.next()
        if kind != "SYM" or val != ch:
            raise ExprError(f"expected '{ch}', found {val!r}" if val else f"expected '{ch}'",
                            line, col)

    def parse(self):
        p = self.expr()
        kind, val, line, col = self.peek()
        if kind != "END":
            raise ExprError(f"unexpected {val!r}", line, col)
        return p

    def expr(self):
        """A sum of terms, collected as {monomial: coefficient} in the order
        the running sum would hold them, checked against the term budget
        after each term, and packed by one Algebra.poly call."""
        terms = {}
        sign = 1
        while True:
            term = self.term()
            for mono, c in (term,) if isinstance(term, tuple) else term.terms.items():
                if not c:
                    continue
                if sign < 0:
                    c = -c
                old = terms.get(mono)
                if old is not None:
                    c += old
                    if not c:
                        del terms[mono]
                        continue
                terms[mono] = c
            self.alg.check_budget(terms)
            kind, val, _, _ = self.peek()
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
            kind, val, _, _ = self.peek()
            if kind != "SYM" or val != "*":
                return p
            self.next()
            q = self.factor()
            if isinstance(p, tuple) and isinstance(q, tuple):
                p = self._times(p, q)
            else:
                p = self._poly(p) * self._poly(q)

    def _times(self, p, q):
        """The product of two (monomial, coefficient) pairs: exponents add,
        an odd variable in both gives coefficient 0, and the sign flips once
        for each odd factor of q moved left past a larger one of p."""
        (m1, c), (m2, c2) = p, q
        if c2 != 1:
            c *= c2
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
        kind, val, _, _ = self.peek()
        if kind == "SYM" and val == "-":
            self.next()
            p = self.factor()  # -x^2 is -(x^2), as serialize writes it
            return (p[0], -p[1]) if isinstance(p, tuple) else -p
        p = self.atom()
        kind, val, _, _ = self.peek()
        if kind == "SYM" and val == "^":
            self.next()
            tok = self.next()
            if tok[0] != "INT":
                raise ExprError("expected integer exponent", tok[2], tok[3])
            e = int(tok[1])
            if e >= 2 and self._is_odd_generator(p):
                raise ExprError("odd variable raised to a power >= 2", tok[2], tok[3])
            if isinstance(p, tuple):  # a number or one variable
                p = (tuple((v, e) for v, _ in p[0]) if e else (), p[1] ** e)
            else:
                p = p ** e
        return p

    def _is_odd_generator(self, p):
        if not isinstance(p, tuple):
            if p.term_count() != 1:
                return False
            (p,) = p.terms.items()
        mono, c = p
        return len(mono) == 1 and mono[0][1] == 1 and \
            self.alg.var_parity[mono[0][0]] == 1 and c == 1

    def atom(self):
        kind, val, line, col = self.peek()
        if kind == "SYM" and val == "(":
            self.next()
            p = self.expr()
            self.expect_sym(")")
            return p
        if kind == "INT":
            self.next()
            num = int(val)
            k2, v2, _, _ = self.peek()
            if k2 == "SYM" and v2 == "/":
                self.next()
                tok = self.next()
                if tok[0] != "INT":
                    raise ExprError("expected integer denominator", tok[2], tok[3])
                den = int(tok[1])
                if den == 0:
                    raise ExprError("zero denominator", tok[2], tok[3])
                return (), Fraction(num, den)
            return (), num
        if kind == "NAME":
            return ((self.variable(), 1),), 1
        raise ExprError(f"unexpected {val!r}" if val else "unexpected end of input", line, col)

    def variable(self):
        kind, name, line, col = self.next()
        if name not in ("xi", "xip", "P", "C", "lam", "pi"):
            raise ExprError(f"unknown variable family {name!r}", line, col)
        self.expect_sym("[")
        tok = self.next()
        if tok[0] != "INT":
            raise ExprError("expected index", tok[2], tok[3])
        idx = [int(tok[1])]
        kind2, val2, l2, c2 = self.peek()
        if kind2 == "SYM" and val2 == ",":
            self.next()
            tok = self.next()
            if tok[0] != "INT":
                raise ExprError("expected index", tok[2], tok[3])
            idx.append(int(tok[1]))
        self.expect_sym("]")
        want_two = name in ("P", "C")
        if want_two != (len(idx) == 2):
            raise ExprError(f"{name} takes {'two indices' if want_two else 'one index'}",
                            line, col)
        if want_two and idx[1] not in (1, 2):
            raise ExprError("Sp(2) index must be 1 or 2", line, col)
        full = f"{name}[{idx[0]},{idx[1]}]" if want_two else f"{name}[{idx[0]}]"
        vid = self.alg.by_name.get(full)
        if vid is None:
            raise ExprError(f"variable {full} does not exist in this theory", line, col)
        return vid


def parse(alg, text) -> GradedPoly:
    """Parse an expression string into a polynomial over `alg`."""
    return _Parser(alg, text).parse()


def _term_sort_key(alg, mono):
    return (sum(e for _, e in mono), mono)


def serialize(p: GradedPoly) -> str:
    """Deterministic plain-text rendering; parse(serialize(p)) == p."""
    if not p:
        return "0"
    alg = p.alg
    terms = p.terms
    names = [v.name for v in alg.vars]
    chunks = []
    first = True
    for mono in sorted(terms, key=lambda m: _term_sort_key(alg, m)):
        c = terms[mono]
        neg = c < 0
        mag = -c if neg else c
        factors = [f"{names[v]}^{e}" if e > 1 else names[v] for v, e in mono]
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if first:
            chunks.append(f"-{body}" if neg else body)
            first = False
        else:
            chunks.append(f" - {body}" if neg else f" + {body}")
    return "".join(chunks)
