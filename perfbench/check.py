"""Output checker for the benchmark, written apart from the sp2brst package.

It imports nothing from ``sp2brst``.  Everything it needs is re-derived
from the conventions stated in the README and in the docstring of
``sp2brst/algebra.py``:

* generators, per constraint index ``a`` (``eps_a`` its parity):

      name      parity      ghost number  cp-degree
      xi[a]     eps_a        0            0
      xip[i]    eps_i        0            0
      P[a,1|2]  eps_a + 1   -1            0
      C[a,1|2]  eps_a + 1   +1            1
      lam[a]    eps_a       -2            0
      pi[a]     eps_a       +2            1

* the graded Poisson bracket
  ``{X,Y} = sum_AB (X d_r/dv_A) w^AB (d_l/dv_B Y)`` with the pairings
  ``(C,P) -> 1``, ``(P,C) -> (-1)^eps_a``, ``(pi,lam) -> 1``,
  ``(lam,pi) -> -(-1)^eps_a``, and the matter entries
  ``w^(a b) = {xi_a, xi_b} = U_ab^c xi_c`` (plus the ``mixed`` table),
  completed by graded antisymmetry ``w^ji = -(-1)^(eps_i eps_j) w^ij``.

A monomial is a sorted tuple of generator indices, one entry per factor
(``xi[1]^2`` is ``(x, x)``); a polynomial is a dict from monomial to
``Fraction``.  Signs come from sorting the odd factors of a product, and
from moving a differentiated odd factor to the left or right end.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_ONE = Fraction(1)
_TOKEN = re.compile(
    r"\s*(?:(\d+)|([A-Za-z_]\w*)\s*\[\s*(\d+)\s*(?:,\s*(\d+)\s*)?\]"
    r"|([A-Za-z_]\w*)|(\S))")


class CheckError(ValueError):
    """A document or expression the checker cannot read."""


class Theory:
    """Generator table and bracket of one theory document."""

    def __init__(self, doc: dict):
        cons = doc.get("constraints", [])
        phys = doc.get("physical", [])
        self.eps = [c["parity"] & 1 for c in cons]
        self.phys_eps = [c["parity"] & 1 for c in phys]
        m = self.m = len(cons)
        self.names: list = []
        self.odd: list = []
        self.ngh: list = []
        self.cp: list = []
        self.index: dict = {}

        def gen(name, parity, ngh, cp):
            self.index[name] = len(self.names)
            self.names.append(name)
            self.odd.append(parity & 1)
            self.ngh.append(ngh)
            self.cp.append(cp)

        for a in range(1, m + 1):
            gen(f"xi[{a}]", self.eps[a - 1], 0, 0)
        for i, e in enumerate(self.phys_eps, 1):
            gen(f"xip[{i}]", e, 0, 0)
        for a in range(1, m + 1):
            for i in (1, 2):
                gen(f"P[{a},{i}]", self.eps[a - 1] + 1, -1, 0)
                gen(f"C[{a},{i}]", self.eps[a - 1] + 1, 1, 1)
            gen(f"lam[{a}]", self.eps[a - 1], -2, 0)
            gen(f"pi[{a}]", self.eps[a - 1], 2, 1)

        self.alias = {c["name"]: f"xi[{a}]" for a, c in enumerate(cons, 1)}
        self.alias.update({c["name"]: f"xip[{i}]" for i, c in enumerate(phys, 1)})
        self.pairing = self._pairing(doc)

    # -- pairing table --------------------------------------------------------

    def _coord(self, i):
        """Global coordinate index (constraints first) -> (generator, parity)."""
        if i <= self.m:
            return self.index[f"xi[{i}]"], self.eps[i - 1]
        return self.index[f"xip[{i - self.m}]"], self.phys_eps[i - self.m - 1]

    def _pairing(self, doc):
        w: dict = {}
        for a in range(1, self.m + 1):
            sign = -1 if self.eps[a - 1] else 1
            for i in (1, 2):
                c, p = self.index[f"C[{a},{i}]"], self.index[f"P[{a},{i}]"]
                w[(c, p)] = {(): _ONE}
                w[(p, c)] = {(): Fraction(sign)}
            pi, lam = self.index[f"pi[{a}]"], self.index[f"lam[{a}]"]
            w[(pi, lam)] = {(): _ONE}
            w[(lam, pi)] = {(): Fraction(-sign)}

        given: dict = {}
        for key, text in doc.get("U", {}).items():
            a, b, c = (int(s) for s in key.split(","))
            term = self.mul(self.parse(text), self.parse(f"xi[{c}]"))
            given[(a, b)] = add(given.get((a, b), {}), term)
        for key, text in doc.get("mixed", {}).items():
            i, j = (int(s) for s in key.split(","))
            given[(i, j)] = add(given.get((i, j), {}), self.parse(text))
        for (i, j), val in given.items():
            vi, ei = self._coord(i)
            vj, ej = self._coord(j)
            w[(vi, vj)] = add(w.get((vi, vj), {}), val)
            if (j, i) not in given and i != j:
                sign = 1 if ei & ej else -1
                w[(vj, vi)] = add(w.get((vj, vi), {}), scale(val, sign))
        return {k: v for k, v in w.items() if v}

    # -- expressions ------------------------------------------------------------

    def parse(self, text: str) -> dict:
        """Parse the expression syntax of theory and result documents."""
        tokens = []
        pos = 0
        while pos < len(text):
            mt = _TOKEN.match(text, pos)
            if mt is None or mt.end() == pos:
                break
            pos = mt.end()
            num, fam, i1, i2, name, sym = mt.groups()
            if num is not None:
                tokens.append(("num", int(num)))
            elif fam is not None:
                full = f"{fam}[{i1},{i2}]" if i2 else f"{fam}[{i1}]"
                tokens.append(("var", self._gen(full, text)))
            elif name is not None:
                tokens.append(("var", self._gen(self.alias.get(name, name), text)))
            elif sym is not None:
                tokens.append(("sym", sym))
        tokens.append(("end", None))
        parser = _Parser(self, tokens, text)
        out = parser.sum()
        if tokens[parser.i][0] != "end":
            raise CheckError(f"trailing input in {text!r}")
        return out

    def _gen(self, full, text):
        if full not in self.index:
            raise CheckError(f"unknown generator {full!r} in {text!r}")
        return self.index[full]

    # -- products and derivatives -------------------------------------------------

    def mono_mul(self, m1, m2):
        """(sign, monomial) of the product m1*m2, or None when an odd
        generator would appear twice."""
        odd = self.odd
        o1 = [v for v in m1 if odd[v]]
        flips = 0
        if o1:
            for v in m2:
                if odd[v]:
                    if v in o1:
                        return None
                    flips += sum(1 for u in o1 if u > v)
        return (-1 if flips % 2 else 1), tuple(sorted(m1 + m2))

    def mul(self, x: dict, y: dict, max_cp: int | None = None) -> dict:
        out: dict = {}
        for m1, c1 in x.items():
            for m2, c2 in y.items():
                if max_cp is not None and self.cp_degree(m1) + self.cp_degree(m2) > max_cp:
                    continue
                r = self.mono_mul(m1, m2)
                if r is not None:
                    out[r[1]] = out.get(r[1], 0) + r[0] * c1 * c2
        return {m: c for m, c in out.items() if c}

    def derive(self, x: dict, v: int, side: str) -> dict:
        """Left (side 'l') or right (side 'r') derivative by generator v."""
        out: dict = {}
        for mono, c in x.items():
            if v not in mono:
                continue
            p = mono.index(v)
            rest = mono[:p] + mono[p + 1:]
            if self.odd[v]:
                passed = mono[:p] if side == "l" else mono[p + 1:]
                if sum(self.odd[u] for u in passed) % 2:
                    c = -c
            else:
                c = c * mono.count(v)
            out[rest] = out.get(rest, 0) + c
        return {m: c for m, c in out.items() if c}

    def bracket(self, x: dict, y: dict, max_cp: int | None = None) -> dict:
        """{x, y}, keeping only terms of cp-degree <= max_cp when given."""
        out: dict = {}
        for (va, vb), w in self.pairing.items():
            dx = self.derive(x, va, "r")
            if not dx:
                continue
            dy = self.derive(y, vb, "l")
            if dy:
                out = add(out, self.mul(self.mul(dx, w, max_cp), dy, max_cp))
        return out

    # -- gradings -------------------------------------------------------------

    def cp_degree(self, mono) -> int:
        return sum(self.cp[v] for v in mono)

    def ghost_number(self, mono) -> int:
        return sum(self.ngh[v] for v in mono)

    def cp_part(self, x: dict, d: int) -> dict:
        return {m: c for m, c in x.items() if self.cp_degree(m) == d}

    def render(self, x: dict) -> str:
        if not x:
            return "0"
        return " + ".join(
            "*".join(([] if c == 1 else [str(c)]) + [self.names[v] for v in m]) or "1"
            for m, c in sorted(x.items()))


class _Parser:
    def __init__(self, theory, tokens, text):
        self.t = theory
        self.tokens = tokens
        self.text = text
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind, value=None):
        tok = self.tokens[self.i]
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise CheckError(f"expected {value or kind} in {self.text!r}")
        self.i += 1
        return tok[1]

    def sum(self):
        out = self.product()
        while self.peek() in (("sym", "+"), ("sym", "-")):
            sign = 1 if self.take("sym") == "+" else -1
            out = add(out, scale(self.product(), sign))
        return out

    def product(self):
        out = self.power()
        while self.peek() == ("sym", "*"):
            self.take("sym", "*")
            out = self.t.mul(out, self.power())
        return out

    def power(self):
        base = self.atom()
        if self.peek() != ("sym", "^"):
            return base
        self.take("sym", "^")
        out = {(): _ONE}
        for _ in range(self.take("num")):
            out = self.t.mul(out, base)
        return out

    def atom(self):
        kind, val = self.peek()
        if (kind, val) == ("sym", "-"):
            self.take("sym", "-")
            return scale(self.atom(), -1)
        if (kind, val) == ("sym", "("):
            self.take("sym", "(")
            out = self.sum()
            self.take("sym", ")")
            return out
        if kind == "num":
            num = self.take("num")
            den = 1
            if self.peek() == ("sym", "/"):
                self.take("sym", "/")
                den = self.take("num")
            c = Fraction(num, den)
            return {(): c} if c else {}
        if kind == "var":
            return {(self.take("var"),): _ONE}
        raise CheckError(f"unexpected {val!r} in {self.text!r}")


def add(x: dict, y: dict) -> dict:
    out = dict(x)
    for m, c in y.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def scale(x: dict, c) -> dict:
    return {m: v * c for m, v in x.items()} if c else {}


# -- checks on emitted documents ---------------------------------------------


def boundary_charge(t: Theory, a: int) -> dict:
    """xi_alpha C[alpha,a] + eps^ab P[alpha,b] pi[alpha], eps^12 = +1."""
    b = 3 - a
    eps_ab = 1 if a == 1 else -1
    out: dict = {}
    for al in range(1, t.m + 1):
        out = add(out, t.parse(f"xi[{al}]*C[{al},{a}]"))
        out = add(out, scale(t.parse(f"P[{al},{b}]*pi[{al}]"), eps_ab))
    return out


def check_charges(t: Theory, doc: dict, k: int) -> list:
    """Problems with a charge document: its order, its cp-degree-1 part, and
    {Omega^a, Omega^b}' through cp-degree k for all a, b."""
    problems = []
    if doc.get("kind") != "omega":
        return [f"expected an omega document, found kind {doc.get('kind')!r}"]
    if doc.get("order") != k:
        problems.append(f"document order {doc.get('order')!r}, expected {k}")
    omega = {a: t.parse(doc["components"][str(a)]) for a in (1, 2)}
    for a in (1, 2):
        got, want = t.cp_part(omega[a], 1), boundary_charge(t, a)
        if got != want:
            problems.append(f"cp-degree-1 part of Omega^{a} is {t.render(got)}, "
                            f"expected {t.render(want)}")
    for a in (1, 2):
        for b in (1, 2):
            res = t.bracket(omega[a], omega[b], max_cp=k)
            if res:
                problems.append(f"{{Omega^{a}, Omega^{b}}}' has {len(res)} terms "
                                f"through cp-degree {k}")
    return problems


def check_lift(t: Theory, charges: dict, lift_doc: dict, k: int,
               phi0_text: str) -> list:
    """Problems with an observable document: its order, {Omega^a, Phi'}'
    through k, the restriction C = pi = 0, and the ghost number of every
    term."""
    problems = []
    if lift_doc.get("kind") != "observable":
        return [f"expected an observable document, found kind {lift_doc.get('kind')!r}"]
    if lift_doc.get("order") != k:
        problems.append(f"document order {lift_doc.get('order')!r}, expected {k}")
    phi = t.parse(lift_doc["phi_prime"])
    phi0 = t.parse(phi0_text)
    omega = {a: t.parse(charges["components"][str(a)]) for a in (1, 2)}
    for a in (1, 2):
        res = t.bracket(omega[a], phi, max_cp=k)
        if res:
            problems.append(f"{{Omega^{a}, Phi'}}' has {len(res)} terms "
                            f"through cp-degree {k}")
    restricted = {m: c for m, c in phi.items() if t.cp_degree(m) == 0}
    if restricted != phi0:
        problems.append(f"Phi' at C = pi = 0 is {t.render(restricted)}, "
                        f"expected {t.render(phi0)}")
    charged = sum(1 for m in phi if t.ghost_number(m) != 0)
    if charged:
        problems.append(f"{charged} terms of Phi' have nonzero ghost number")
    return problems


def load_json(path) -> dict:
    with open(path, "rb") as fh:
        return json.loads(fh.read())
