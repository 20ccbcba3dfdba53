"""Exact graded-commutative polynomial algebra on the Sp(2)-extended phase space.

Variables come in six sectors, listed in canonical monomial order:

    xi[1..m]      constraint coordinates          parity eps_a, ngh 0, N-weight 1
    xip[1..p]     remaining (physical) coordinates parity eps_a', ngh 0
    P[a,1|2]      ghost momenta                   parity eps_a+1, ngh -1, N-weight 1
    C[a,1|2]      ghosts                          parity eps_a+1, ngh +1, cp-weight 1
    lam[1..m]     Lagrange multipliers            parity eps_a, ngh -2, N-weight 1
    pi[1..m]      multiplier momenta              parity eps_a, ngh +2, cp-weight 1

All coefficients are `fractions.Fraction`; odd (Grassmann) variables square to
zero and reordering picks up Koszul signs.  A monomial is a tuple of
(variable id, exponent) pairs sorted by id; a polynomial is a dict from
monomial to coefficient with no zero entries.

The graded Poisson bracket is realised as a single sum over a sparse
"symplectic pairing" table:  {X,Y} = sum_AB (d_r X/d v_A) w_AB (d_l Y/d v_B),
with right derivatives acting on X and left derivatives on Y.  The ghost
entries of w are fixed by the canonical pairings (C,P) and (pi,lam); the
matter entries come from the theory's structure tables, completed by graded
antisymmetry  w_ji = -(-1)^(eps_i eps_j) w_ij.  Each argument is walked
once: one pass over X's terms gives its right derivatives with respect to
every paired variable it contains, one pass over Y's gives the left
derivatives with respect to the partners of those only, and the sum runs
over the table entries whose two derivatives are both nonzero.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_MAX_TERMS = 1_000_000


class Sector(IntEnum):
    """Variable sectors, enum order == canonical monomial order."""

    XI = 0            # constraint coordinates xi[a]
    XI_PHYS = 1       # physical coordinates xip[a]
    GHOST_MOM = 2     # ghost momenta P[a,i]
    GHOST = 3         # ghosts C[a,i]
    LAGRANGE = 4      # multipliers lam[a]
    LAGRANGE_MOM = 5  # multiplier momenta pi[a]


_SECTOR_BASENAME = {
    Sector.XI: "xi",
    Sector.XI_PHYS: "xip",
    Sector.GHOST_MOM: "P",
    Sector.GHOST: "C",
    Sector.LAGRANGE: "lam",
    Sector.LAGRANGE_MOM: "pi",
}

_SECTOR_NGH = {
    Sector.XI: 0,
    Sector.XI_PHYS: 0,
    Sector.GHOST_MOM: -1,
    Sector.GHOST: 1,
    Sector.LAGRANGE: -2,
    Sector.LAGRANGE_MOM: 2,
}

# sectors counting towards the N-degree (constraint sector) / the C-pi degree
_N_SECTORS = (Sector.XI, Sector.GHOST_MOM, Sector.LAGRANGE)
_CP_SECTORS = (Sector.GHOST, Sector.LAGRANGE_MOM)


class TheoryError(ValueError):
    """Inconsistent structure tables or malformed theory data."""


class TermBudgetError(RuntimeError):
    """A polynomial being formed exceeded its algebra's term budget."""


@dataclass(frozen=True)
class Variable:
    vid: int
    sector: Sector
    alpha: int          # 1-based constraint / physical index
    sp2: int | None     # Sp(2) index 1|2 for P and C, else None
    parity: int         # 0 even, 1 odd
    ngh: int
    name: str           # serialised spelling, e.g. "P[2,1]"

    def __repr__(self):
        return self.name


Monomial = tuple  # tuple[tuple[int, int], ...]


class GradedPoly:
    """Sparse polynomial over one Algebra.  Treat instances as immutable."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: "Algebra", terms: dict):
        self.alg = alg
        self.terms = terms

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def term_count(self):
        return len(self.terms)

    def _homogeneous(self, term_fn, what):
        vals = {term_fn(m) for m in self.terms}
        if not vals:
            return 0
        if len(vals) > 1:
            raise ValueError(f"polynomial is not homogeneous in {what}: {sorted(vals)}")
        return vals.pop()

    def parity(self):
        return self._homogeneous(self.alg.term_parity, "parity")

    def ngh(self):
        return self._homogeneous(self.alg.term_ngh, "ngh")

    def min_cp(self):
        """Smallest cp-degree over terms, or None for the zero polynomial."""
        if not self.terms:
            return None
        cp = self.alg.term_cpdeg
        return min(cp(m) for m in self.terms)

    def truncate_cp(self, k):
        """Drop every term of cp-degree greater than k."""
        cp = self.alg.term_cpdeg
        kept = {m: c for m, c in self.terms.items() if cp(m) <= k}
        if len(kept) == len(self.terms):
            return self
        return GradedPoly(self.alg, kept)

    def cp_part(self, d):
        """The terms of cp-degree exactly d."""
        cp = self.alg.term_cpdeg
        return GradedPoly(self.alg, {m: c for m, c in self.terms.items() if cp(m) == d})

    def substitute_zero(self, sectors):
        """Set every variable of the given sectors to zero (drop those terms)."""
        sec = self.alg.var_sector
        wanted = set(sectors)
        out = {}
        for m, c in self.terms.items():
            if not any(sec[v] in wanted for v, _ in m):
                out[m] = c
        return GradedPoly(self.alg, out)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GradedPoly):
            if other.alg is not self.alg and not self.alg.compatible(other.alg):
                raise TheoryError(
                    "cannot combine elements of algebras over different theories")
            return other
        if isinstance(other, (int, Fraction)):
            return self.alg.scalar(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, _ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        self.alg._check_budget(out)
        return GradedPoly(self.alg, out)

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly(self.alg, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.alg.zero()
            return GradedPoly(self.alg, {m: c * other for m, c in self.terms.items()})
        if isinstance(other, GradedPoly):
            return self.alg.mul(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = self.alg.one()
        base = self
        while n:
            if n & 1:
                out = self.alg.mul(out, base)
            base = self.alg.mul(base, base)
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.alg.scalar(other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        if self.alg is not other.alg and not self.alg.compatible(other.alg):
            return False
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        from . import expr

        return expr.serialize(self)


class Algebra:
    """Variable table, graded product and Poisson bracket for one theory.

    max_terms is the term budget: the polynomials formed over the algebra
    (by _mul_into after each row, replace_left and addition) are checked
    against it as they form, and one that passes it raises
    TermBudgetError."""

    def __init__(self, spec, *, max_terms=DEFAULT_MAX_TERMS):
        if max_terms < 1:
            raise ValueError("max_terms must be positive")
        self.max_terms = max_terms
        self.spec = spec
        m = spec.m
        p = spec.n_physical

        vars_: list[Variable] = []

        def _emit(sector, alpha, sp2, parity):
            vid = len(vars_)
            base = _SECTOR_BASENAME[sector]
            name = f"{base}[{alpha},{sp2}]" if sp2 else f"{base}[{alpha}]"
            vars_.append(Variable(vid, sector, alpha, sp2, parity & 1, _SECTOR_NGH[sector], name))

        for a in range(1, m + 1):
            _emit(Sector.XI, a, None, spec.constraint_parities[a - 1])
        for a in range(1, p + 1):
            _emit(Sector.XI_PHYS, a, None, spec.physical_parities[a - 1])
        for a in range(1, m + 1):
            for i in (1, 2):
                _emit(Sector.GHOST_MOM, a, i, spec.constraint_parities[a - 1] + 1)
        for a in range(1, m + 1):
            for i in (1, 2):
                _emit(Sector.GHOST, a, i, spec.constraint_parities[a - 1] + 1)
        for a in range(1, m + 1):
            _emit(Sector.LAGRANGE, a, None, spec.constraint_parities[a - 1])
        for a in range(1, m + 1):
            _emit(Sector.LAGRANGE_MOM, a, None, spec.constraint_parities[a - 1])

        self.vars = tuple(vars_)
        self.var_parity = tuple(v.parity for v in vars_)
        self.var_ngh = tuple(v.ngh for v in vars_)
        self.var_sector = tuple(v.sector for v in vars_)
        self.var_nwt = tuple(1 if v.sector in _N_SECTORS else 0 for v in vars_)
        self.var_cpwt = tuple(1 if v.sector in _CP_SECTORS else 0 for v in vars_)
        self.by_name = {v.name: v.vid for v in vars_}
        self._index = {(v.sector, v.alpha, v.sp2): v.vid for v in vars_}
        self._one = GradedPoly(self, {(): _ONE})
        # replace_left triples of the operators module, built on first use
        self.operator_fields: dict = {}

        # sparse pairing table: list of (vid_a, vid_b, scalar, mid_terms|None)
        self._omega: list = []
        self._build_ghost_omega()
        self._build_matter_omega()
        self._paired = frozenset(va for va, _, _, _ in self._omega)

    def _check_budget(self, terms):
        """Raise TermBudgetError if a term dict outgrows the budget."""
        if len(terms) > self.max_terms:
            raise TermBudgetError(
                f"a polynomial being formed has {len(terms)} terms "
                f"(budget {self.max_terms})")

    def compatible(self, other):
        """Two algebras over equal theory specs have identical variable
        tables and pairing structure, so their elements may be mixed."""
        return self is other or self.spec == other.spec

    # -- variable lookup ----------------------------------------------------

    @property
    def m(self):
        return self.spec.m

    @property
    def n_physical(self):
        return self.spec.n_physical

    def vid(self, sector, alpha, sp2=None):
        try:
            return self._index[(sector, alpha, sp2)]
        except KeyError:
            raise KeyError(f"no variable {sector.name}[{alpha},{sp2}]") from None

    def xi(self, a):
        return self.gen(self.vid(Sector.XI, a))

    def xip(self, a):
        return self.gen(self.vid(Sector.XI_PHYS, a))

    def ghost_mom(self, a, i):
        return self.gen(self.vid(Sector.GHOST_MOM, a, i))

    def ghost(self, a, i):
        return self.gen(self.vid(Sector.GHOST, a, i))

    def lagrange(self, a):
        return self.gen(self.vid(Sector.LAGRANGE, a))

    def lagrange_mom(self, a):
        return self.gen(self.vid(Sector.LAGRANGE_MOM, a))

    # -- term-level grading -------------------------------------------------

    def term_parity(self, mono):
        par = self.var_parity
        s = 0
        for v, e in mono:
            s += par[v] * e
        return s & 1

    def term_ngh(self, mono):
        ngh = self.var_ngh
        return sum(ngh[v] * e for v, e in mono)

    def term_ndeg(self, mono):
        w = self.var_nwt
        return sum(w[v] * e for v, e in mono)

    def term_cpdeg(self, mono):
        w = self.var_cpwt
        return sum(w[v] * e for v, e in mono)

    # -- constructors -------------------------------------------------------

    def zero(self):
        return GradedPoly(self, {})

    def one(self):
        return self._one

    def scalar(self, c):
        c = Fraction(c)
        return GradedPoly(self, {(): c} if c else {})

    def gen(self, vid):
        return GradedPoly(self, {((vid, 1),): _ONE})

    def poly(self, terms):
        """Build from {monomial: coefficient}, dropping zeros."""
        return GradedPoly(self, {m: Fraction(c) for m, c in terms.items() if c})

    # -- products -----------------------------------------------------------

    def _mul_terms(self, m1, m2):
        """Merge two normal-ordered monomials.

        Returns (sign, monomial) or None when an odd variable collides.
        Sign counts inversions between odd factors of m1 and of m2 (merging
        two sorted sequences, only cross pairs can be out of order).
        """
        if not m1:
            return 1, m2
        if not m2:
            return 1, m1
        par = self.var_parity
        odd1 = [v for v, _ in m1 if par[v]]
        flips = 0
        if odd1:
            n1 = len(odd1)
            for v, _ in m2:
                if par[v]:
                    flips += n1 - bisect_right(odd1, v)
        out = []
        i = j = 0
        l1, l2 = len(m1), len(m2)
        while i < l1 and j < l2:
            v1, e1 = m1[i]
            v2, e2 = m2[j]
            if v1 < v2:
                out.append((v1, e1))
                i += 1
            elif v1 > v2:
                out.append((v2, e2))
                j += 1
            else:
                if par[v1]:
                    return None
                out.append((v1, e1 + e2))
                i += 1
                j += 1
        out.extend(m1[i:])
        out.extend(m2[j:])
        return (-1 if flips & 1 else 1), tuple(out)

    def _mul_into(self, out, t1, t2, max_cp=None):
        """Add the product of two raw term dicts into out, dropping the
        monomials whose coefficients cancel; returns out.  The products of
        mul and bracket all accumulate here, and out is checked against
        the term budget after each term of t1.

        With max_cp, only the pairs whose cp-degrees sum to at most max_cp
        are formed: cp-degree adds under products, so this is exactly the
        product truncated at max_cp.  t2 is grouped by cp-degree, and each
        term of t1 meets only the terms of t2 that fit under the limit."""
        mul_terms = self._mul_terms
        limit = self.max_terms
        if max_cp is None:
            rows = ((m1, c1, t2.items()) for m1, c1 in t1.items())
        else:
            rows = self._truncated_rows(t1, t2, max_cp)
        for m1, c1, second in rows:
            for m2, c2 in second:
                r = mul_terms(m1, m2)
                if r is None:
                    continue
                s, m = r
                c = c1 * c2
                if s < 0:
                    c = -c
                acc = out.get(m)
                if acc is None:
                    out[m] = c
                else:
                    acc += c
                    if acc:
                        out[m] = acc
                    else:
                        del out[m]
            if len(out) > limit:
                self._check_budget(out)
        return out

    def _truncated_rows(self, t1, t2, max_cp):
        """(m1, c1, the terms of t2 of cp-degree <= max_cp - cp(m1)) for
        every term of t1 with room left under max_cp."""
        cp = self.term_cpdeg
        by_deg: dict = {}
        for m2, c2 in t2.items():
            d = cp(m2)
            if d <= max_cp:
                by_deg.setdefault(d, []).append((m2, c2))
        if not by_deg:
            return
        lowest = min(by_deg)
        upto: dict = {}  # room -> the terms of t2 of cp-degree <= room
        for m1, c1 in t1.items():
            room = max_cp - cp(m1)
            if room < lowest:
                continue
            second = upto.get(room)
            if second is None:
                second = upto[room] = [
                    term for d in sorted(by_deg) if d <= room for term in by_deg[d]]
            yield m1, c1, second

    def mul(self, p, q, *, max_cp=None):
        """The graded product p q; with max_cp, truncated at that cp-degree
        without forming the pairs above it."""
        if (p.alg is not self or q.alg is not self) and not (
                self.compatible(p.alg) and self.compatible(q.alg)):
            raise TheoryError(
                "cannot multiply elements of algebras over different theories")
        return GradedPoly(self, self._mul_into({}, p.terms, q.terms, max_cp))

    # -- derivatives ---------------------------------------------------------

    def _derivatives(self, terms, wanted, left):
        """{v: left (or right) derivative of a raw term dict w.r.t. v} for
        every v in wanted that occurs in it, in one pass over its terms.

        An odd v (exponent 1) moves past the odd factors before it for a
        left derivative and past those after it, total - before - own, for
        a right one.  Dropping one power of v maps distinct monomials
        containing v to distinct monomials, so no two terms meet."""
        par = self.var_parity
        out: dict = {}
        for mono, coeff in terms.items():
            before = 0
            for i, (v, e) in enumerate(mono):
                pv = par[v]
                if v in wanted:
                    c = coeff * e
                    if pv and (before if left else sum(
                            par[u] for u, _ in mono) - before - 1) & 1:
                        c = -c
                    rest = mono[i + 1:]
                    new = mono[:i] + (((v, e - 1),) + rest if e > 1 else rest)
                    d = out.get(v)
                    if d is None:
                        d = out[v] = {}
                    d[new] = c
                before += pv
        return out

    def derive_left(self, p, vid):
        return GradedPoly(self, self._derivatives(p.terms, (vid,), True).get(vid, {}))

    def derive_right(self, p, vid):
        return GradedPoly(self, self._derivatives(p.terms, (vid,), False).get(vid, {}))

    def replace_left(self, p, fields):
        """The sum of coeff * dst * (left derivative of p w.r.t. src) over
        the (src, dst, coeff) triples of fields, in one pass over p's terms.

        Each monomial is walked once, counting its odd factors; at every
        factor that is a source, one power of it is dropped (sign from the
        odd factors before it) and dst is inserted (sign from the odd
        factors it passes).  An odd dst already present kills the term; an
        even one gains a power.  Sources may repeat, dst may equal src, and
        zero coefficients are skipped.  The first-order operators W^a and
        Gamma_a are one call each."""
        par = self.var_parity
        by_src: dict = {}
        for src, dst, coeff in fields:
            if type(coeff) is not int:
                coeff = Fraction(coeff)
                if coeff.denominator == 1:
                    coeff = coeff.numerator  # int factors: no Fraction product
            if coeff:
                by_src.setdefault(src, []).append((dst, par[dst], coeff))
        out: dict = {}
        for mono, c in p.terms.items():
            vids = []
            odd_before = [0]  # odd_before[i]: odd factors among mono[:i]
            hits = []
            odd = 0
            for i, (v, _) in enumerate(mono):
                if v in by_src:
                    hits.append(i)
                vids.append(v)
                odd += par[v]
                odd_before.append(odd)
            n = len(mono)
            for i in hits:
                v, e = mono[i]
                pv = par[v]
                for dst, pd, coeff in by_src[v]:
                    f = e * coeff
                    if dst == v:  # the drop and insert signs cancel
                        m = mono
                    else:
                        j = bisect_left(vids, dst)
                        present = j < n and vids[j] == dst
                        if present and pd:
                            continue
                        # dst passes the odd factors below it, src gone if odd
                        flips = odd_before[j] - (pv if i < j else 0)
                        if (pv & odd_before[i]) ^ (pd & flips):
                            f = -f
                        lst = list(mono)
                        if e == 1:
                            del lst[i]
                            if i < j:
                                j -= 1
                        else:
                            lst[i] = (v, e - 1)
                        if present:
                            lst[j] = (dst, lst[j][1] + 1)
                        else:
                            lst.insert(j, (dst, 1))
                        m = tuple(lst)
                    cc = c if f == 1 else -c if f == -1 else c * f
                    acc = out.get(m)
                    if acc is None:
                        out[m] = cc
                    else:
                        acc += cc
                        if acc:
                            out[m] = acc
                        else:
                            del out[m]
        self._check_budget(out)
        return GradedPoly(self, out)

    # -- the graded Poisson bracket ------------------------------------------

    def _build_ghost_omega(self):
        """Canonical pairings: (C,P) -> +1, (P,C) -> (-1)^eps_a,
        (pi,lam) -> +1, (lam,pi) -> -(-1)^eps_a."""
        emit = self._omega.append
        for a in range(1, self.m + 1):
            eps = self.spec.constraint_parities[a - 1] & 1
            sgn = -1 if eps else 1
            for i in (1, 2):
                c = self.vid(Sector.GHOST, a, i)
                pm = self.vid(Sector.GHOST_MOM, a, i)
                emit((c, pm, _ONE, None))
                emit((pm, c, Fraction(sgn), None))
            pi = self.vid(Sector.LAGRANGE_MOM, a)
            lam = self.vid(Sector.LAGRANGE, a)
            emit((pi, lam, _ONE, None))
            emit((lam, pi, Fraction(-sgn), None))

    def _xi_vid(self, i):
        """Global coordinate index (constraints first, then physical) -> vid."""
        m, p = self.m, self.n_physical
        if 1 <= i <= m:
            return self.vid(Sector.XI, i)
        if m < i <= m + p:
            return self.vid(Sector.XI_PHYS, i - m)
        raise TheoryError(f"coordinate index {i} out of range 1..{m + p}")

    def _build_matter_omega(self):
        from . import expr

        spec = self.spec
        m, p = self.m, self.n_physical
        given: dict = {}

        def _xi_only(poly, where):
            for mono in poly.terms:
                for v, _ in mono:
                    if self.var_sector[v] not in (Sector.XI, Sector.XI_PHYS):
                        raise TheoryError(
                            f"{where}: structure entries may involve only coordinates, "
                            f"found {self.vars[v].name}")

        for (a, b, g), text in sorted(spec.u_table.items()):
            for idx, hi in ((a, m), (b, m), (g, m)):
                if not 1 <= idx <= hi:
                    raise TheoryError(f"U[{a},{b},{g}]: constraint index {idx} out of range 1..{m}")
            u = expr.parse(self, text) if isinstance(text, str) else text
            _xi_only(u, f"U[{a},{b},{g}]")
            w = self.mul(u, self.xi(g))
            key = (a, b)
            given[key] = given.get(key, self.zero()) + w

        for (i, j), text in sorted(spec.mixed_table.items()):
            if not (1 <= i <= m + p and 1 <= j <= m + p):
                raise TheoryError(f"mixed[{i},{j}]: index out of range 1..{m + p}")
            if i <= m and j <= m:
                raise TheoryError(
                    f"mixed[{i},{j}]: constraint-constraint brackets must be given through U")
            w = expr.parse(self, text) if isinstance(text, str) else text
            _xi_only(w, f"mixed[{i},{j}]")
            if (i, j) in given:
                raise TheoryError(f"mixed[{i},{j}]: duplicate entry")
            given[(i, j)] = w

        # antisymmetric completion and consistency checks
        table: dict = {}
        for (i, j), w in given.items():
            ei, ej = (self.var_parity[self._xi_vid(n)] for n in (i, j))
            want = (ei + ej) & 1
            for mono in w.terms:
                if self.term_parity(mono) != want:
                    raise TheoryError(
                        f"bracket table entry ({i},{j}) must have parity {want}, "
                        f"found a term of parity {self.term_parity(mono)}")
            flip = -w if (ei & ej) == 0 else w  # -(-1)^(ei ej) w
            if i == j:
                if not ei:
                    if w:
                        raise TheoryError(
                            f"bracket table entry ({i},{i}) must vanish for an even coordinate")
                    continue
                table[(i, j)] = w
                continue
            if (j, i) in given:
                if given[(j, i)] != flip:
                    raise TheoryError(
                        f"bracket table entries ({i},{j}) and ({j},{i}) violate graded antisymmetry")
            table[(i, j)] = w
            table.setdefault((j, i), flip)

        emit = self._omega.append
        for (i, j), w in sorted(table.items()):
            if not w:
                continue
            vi, vj = self._xi_vid(i), self._xi_vid(j)
            if w.terms.keys() == {()}:
                emit((vi, vj, w.terms[()], None))
            else:
                emit((vi, vj, _ONE, w.terms))

    def bracket(self, x, y, *, max_cp=None):
        """Graded Poisson bracket {x, y}; with max_cp, truncated at that
        cp-degree without forming the products above it.

        x and y are each walked once (see _derivatives), y only for the
        partners of the paired variables x contains.  Every pairing
        removes one factor from each side and the matter pairings have
        cp-degree 0, so a term's cp-degree is the sum of those of its two
        derivative factors and the limit applies to their product."""
        if (x.alg is not self or y.alg is not self) and not (
                self.compatible(x.alg) and self.compatible(y.alg)):
            raise TheoryError(
                "bracket arguments belong to an algebra over a different theory")
        xt, yt = x.terms, y.terms
        if max_cp is not None:
            # the two derivatives drop at most one cp factor in all, so a
            # term of x above max_cp + 1 - min_cp(y) feeds only terms
            # above max_cp, and likewise for y
            lo_x, lo_y = x.min_cp(), y.min_cp()
            if lo_x is None or lo_y is None or lo_x + lo_y - 1 > max_cp:
                return GradedPoly(self, {})
            xt = x.truncate_cp(max_cp + 1 - lo_y).terms
            yt = y.truncate_cp(max_cp + 1 - lo_x).terms
        dx = self._derivatives(xt, self._paired, False)
        dy = self._derivatives(
            yt, {vb for va, vb, _, _ in self._omega if va in dx}, True)
        out: dict = {}
        for va, vb, c0, mid in self._omega:
            d1, d2 = dx.get(va), dy.get(vb)
            if d1 is None or d2 is None:
                continue
            if mid is not None:
                d1 = self._mul_into({}, d1, mid, max_cp)  # dx * w first, then * dy
            if c0 != 1:
                d1 = {m: c * c0 for m, c in d1.items()}
            self._mul_into(out, d1, d2, max_cp)
        return GradedPoly(self, out)
