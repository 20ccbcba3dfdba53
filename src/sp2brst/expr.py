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
        p = self.term()
        while True:
            kind, val, _, _ = self.peek()
            if kind == "SYM" and val in "+-":
                self.next()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            kind, val, _, _ = self.peek()
            if kind == "SYM" and val == "*":
                self.next()
                p = p * self.factor()
            else:
                return p

    def factor(self):
        kind, val, _, _ = self.peek()
        if kind == "SYM" and val == "-":
            self.next()
            return -self.factor()  # -x^2 is -(x^2), as serialize writes it
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
            p = p ** e
        return p

    def _is_odd_generator(self, p):
        if p.term_count() != 1:
            return False
        (mono, c), = p.terms.items()
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
                return self.alg.scalar(Fraction(num, den))
            return self.alg.scalar(num)
        if kind == "NAME":
            return self.variable()
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
        return self.alg.gen(vid)


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
