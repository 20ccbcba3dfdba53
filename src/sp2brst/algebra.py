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
monomial to coefficient with no zero entries.  Keys stay these tuples
between operations.  Inside one product or bracket every monomial becomes
a packed row (see _pack): an int key with one field of exponent bits per
variable, an odd-variable mask, a prefix-parity mask for Koszul signs, its
cp-degree and an int numerator over the call's common denominator.  One
loop over packed rows (Algebra._product_sum) forms every product, and each
surviving key becomes a tuple and a Fraction once, at the end.  The
first-order operators (replace_left, and the chains of the operators
module) share one pass over packed keys, Algebra.replace_sum: a chain
packs its input once (pack_keys), its passes sum int numerators over
one denominator and make no Fraction, and its result is decoded once.
A pass moves one power from one variable to another, so the field width
of the chain's input, which holds its largest total degree
(degree_width), holds every key the chain forms and nothing is repacked
between passes.

The graded Poisson bracket is realised as a single sum over a sparse
"symplectic pairing" table:  {X,Y} = sum_AB (d_r X/d v_A) w_AB (d_l Y/d v_B),
with right derivatives acting on X and left derivatives on Y.  The ghost
entries of w are fixed by the canonical pairings (C,P) and (pi,lam); the
matter entries come from the theory's structure tables, completed by graded
antisymmetry  w_ji = -(-1)^(eps_i eps_j) w_ij.  Each argument is walked
once, and the walk that packs a term also emits its derivative rows: one
power of the variable leaves the key and the masks, so no monomial is
sliced or packed again.  X gives its right derivatives by every paired
variable it contains, Y its left derivatives by the partners of those
only, and the sum runs over the table entries whose two derivatives are
both nonzero.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from itertools import islice
from math import lcm
from operator import itemgetter

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
        get = out.get
        for m, c in other.terms.items():
            old = get(m)
            if old is None:  # a key new to the sum is stored as it is
                out[m] = c
                continue
            s = old + c
            if s:
                out[m] = s
            else:
                del out[m]
        self.alg.check_budget(out)
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
            n >>= 1
            if n:  # square only for a bit still to come
                base = self.alg.mul(base, base)
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


def _top(*dicts):
    """The largest exponent in the given raw term dicts, 0 if none."""
    top = 0
    for terms in dicts:
        for mono in terms:
            for _, e in mono:
                if e > top:
                    top = e
    return top


def _pack(terms, width, var_info, wanted=(), left=False):
    """One walk over a raw term dict: (L, rows, derivs).  L is the lcm of
    its denominators; rows holds each term as (key, odd mask, prefix
    parity, cp-degree, coefficient times L), the key holding exponent e of
    variable v at bit width * v (see Algebra._product_sum).

    derivs maps each variable of wanted that occurs to the rows of the
    left (or right) derivative by it, in term order: one power of v leaves
    the key, an odd v leaves the two masks, the cp-degree drops by v's
    weight and the numerator gains the exponent as a factor.  An odd v
    changes sign once per odd factor it moves past: those before it for a
    left derivative, those after it for a right one.  Dropping one power
    of v maps distinct monomials containing v to distinct monomials, so no
    two rows share a key."""
    den = 1
    for c in terms.values():
        d = c.denominator
        if d != 1:
            den = lcm(den, d)
    # v -> (its derivative rows, its unit key, odd bit, parity mask,
    # cp-weight, the odd factors it moves past) if wanted, else None
    derive = None
    if wanted:
        derive = [None] * len(var_info)
        for v in wanted:
            bit, above, w = var_info[v]
            derive[v] = ([], 1 << width * v, bit, above, w,
                         (bit - 1 if left else above) if bit else 0)
    rows = []
    for mono, c in terms.items():
        key = odd = par = cp = 0
        for v, e in mono:
            bit, above, w = var_info[v]
            key += e << width * v
            odd |= bit
            par ^= above
            cp += w * e
        n = c.numerator
        if den != 1:
            n *= den // c.denominator
        rows.append((key, odd, par, cp, n))
        if derive is None:
            continue
        for v, e in mono:
            dv = derive[v]
            if dv is None:
                continue
            out, unit, bit, above, w, past = dv
            d = n * e if e > 1 else n
            if past and (odd & past).bit_count() & 1:
                d = -d
            out.append((key - unit, odd ^ bit, par ^ above, cp - w, d))
    if derive is None:
        return den, rows, {}
    return den, rows, {v: derive[v][0] for v in wanted if derive[v][0]}


def _drop_above(derivs, limit, var_info):
    """derivs without the rows taken from terms of cp-degree above limit."""
    out = {}
    for v, rows in derivs.items():
        top = limit - var_info[v][2]  # a row's cp-degree is its term's less v's weight
        kept = [row for row in rows if row[3] <= top]
        if kept:
            out[v] = kept
    return out


def _unpack(acc, width, den, units):
    """The raw term dict of packed keys and their numerators over den, one
    Fraction per distinct numerator; with den None the values are taken as
    the coefficients.  units[v] is the factor (v, 1), shared by every
    monomial holding it."""
    mask = (1 << width) - 1
    out = {}
    made = {}  # numerator -> its Fraction
    for k, n in acc.items():
        mono = []
        while k:
            v = ((k & -k).bit_length() - 1) // width  # the lowest variable
            shift = width * v
            e = (k >> shift) & mask
            mono.append(units[v] if e == 1 else (v, e))
            k ^= e << shift
        if den is None:
            c = n
        else:
            c = made.get(n)
            if c is None:
                c = made[n] = Fraction(n, den)
        out[tuple(mono)] = c
    return out


def common_denominator(*term_dicts):
    """The lcm of the denominators of the given Fraction term dicts."""
    den = 1
    for terms in term_dicts:
        for c in terms.values():
            d = c.denominator
            if d != 1:
                den = lcm(den, d)
    return den


def degree_width(*term_dicts):
    """The field width of the packed keys of a first-order chain over the
    given raw term dicts: the bit length of their largest total degree
    (at least 1).  A first-order pass moves one power from one variable to
    another, so no exponent a chain forms outgrows it."""
    top = 1
    for terms in term_dicts:
        for mono in terms:
            d = 0
            for _, e in mono:
                d += e
            if d > top:
                top = d
    return top.bit_length()


def pack_keys(terms, width, den=None):
    """(nums, den): the raw term dict terms as packed key -> int numerator
    over den, by default the lcm of its denominators.  The key holds
    exponent e of variable v at bit width * v, as in _pack."""
    if den is None:
        den = common_denominator(terms)
    nums = {}
    for mono, c in terms.items():
        key = 0
        for v, e in mono:
            key += e << width * v
        n = c.numerator
        if den != 1:
            n *= den // c.denominator
        nums[key] = n
    return nums, den


_cp_of = itemgetter(3)


class Algebra:
    """Variable table, graded product and Poisson bracket for one theory.

    max_terms is the term budget: the polynomials formed over the algebra
    (by _product_sum after each row, by replace_sum after each pass and by
    addition) are checked against it as they form, and one that passes it
    raises TermBudgetError."""

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
        # the operators module's packed tables, one set per field width,
        # built on first use
        self.operator_tables: dict = {}
        self._unit_factors = tuple((v, 1) for v in range(len(vars_)))
        # per variable: its odd-mask bit, for an odd one the bits of the
        # odd variables after it, and its cp-weight (see _product_sum)
        odd_bits = [v.parity << v.vid for v in vars_]
        self._var_info = tuple(
            (bit, sum(odd_bits[vid + 1:]) if bit else 0, w)
            for vid, (bit, w) in enumerate(zip(odd_bits, self.var_cpwt)))

        # sparse pairing table: list of (vid_a, vid_b, scalar, mid_terms|None)
        self._omega: list = []
        self._build_ghost_omega()
        self._build_matter_omega()
        self._paired = frozenset(va for va, _, _, _ in self._omega)
        # the largest exponent of a structure function (see bracket)
        self._mid_top = _top(*(mid for _, _, _, mid in self._omega if mid is not None))

    def check_budget(self, terms):
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
        s = 0
        for v, e in mono:
            s += ngh[v] * e
        return s

    def term_ndeg(self, mono):
        w = self.var_nwt
        s = 0
        for v, e in mono:
            s += w[v] * e
        return s

    def term_cpdeg(self, mono):
        w = self.var_cpwt
        s = 0
        for v, e in mono:
            s += w[v] * e
        return s

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

    def _product_sum(self, work, max_cp=None, meta=None):
        """(acc, den): the sum of num/d * t1 t2 over the (t1, t2, d, num)
        items of work, t1 and t2 packed rows (see _pack), as a dict from
        packed key to int numerator over den, the lcm of the d.  Every
        product of mul and bracket is formed here, and the growing sum is
        checked against the term budget after each row of each t1.

        With max_cp, only the pairs of rows whose cp-degrees sum to at
        most max_cp are formed: cp-degree adds under products, so this is
        exactly the sum truncated at max_cp.  Each t2 is ordered by
        cp-degree, and each row of t1 meets only the prefix that fits.

        Two keys add in one int add when the field width leaves room for
        the summed exponents.  Two rows whose odd masks overlap give zero,
        and the Koszul sign is the parity of the odd factors of t1's row
        lying above an odd number of t2's: (odd1 & parity2).bit_count().
        A key new to the sum is stored as it is and a repeated one added
        to, so keys enter and leave in the order they did when every
        product was merged and added one at a time.  With a meta dict, the
        odd mask, prefix parity and cp-degree of each new key go to it, so
        the sum can be one factor of a further product."""
        den = 1
        for _, _, d, _ in work:
            if d != 1:
                den = lcm(den, d)
        limit = self.max_terms
        acc: dict = {}
        get = acc.get
        for rows, second, d, num in work:
            scale = den // d * num
            if max_cp is not None:
                second = sorted(second, key=_cp_of)
                cps = [row[3] for row in second]
            for k1, o1, p1, cp1, n1 in rows:
                if max_cp is not None:
                    end = bisect_right(cps, max_cp - cp1)
                    if not end:
                        continue
                    terms2 = islice(second, end)
                else:
                    terms2 = second
                if scale != 1:
                    n1 *= scale
                for k2, o2, p2, cp2, n2 in terms2:
                    if o1 & o2:
                        continue
                    k = k1 + k2
                    n = -n1 * n2 if (o1 & p2).bit_count() & 1 else n1 * n2
                    old = get(k)
                    if old is None:
                        acc[k] = n
                        if meta is not None:
                            meta[k] = (o1 | o2, p1 ^ p2, cp1 + cp2)
                    else:
                        n += old
                        if n:
                            acc[k] = n
                        else:
                            del acc[k]
                if len(acc) > limit:
                    self.check_budget(acc)
        return acc, den

    def mul(self, p, q, *, max_cp=None):
        """The graded product p q; with max_cp, truncated at that cp-degree
        without forming the pairs above it.  Both factors are packed with
        fields one bit longer than their largest exponent, so that two
        exponents add without a carry."""
        if (p.alg is not self or q.alg is not self) and not (
                self.compatible(p.alg) and self.compatible(q.alg)):
            raise TheoryError(
                "cannot multiply elements of algebras over different theories")
        if not p.terms or not q.terms:
            return GradedPoly(self, {})
        width = (2 * _top(p.terms, q.terms)).bit_length()
        lp, rows_p, _ = _pack(p.terms, width, self._var_info)
        lq, rows_q = (lp, rows_p) if q.terms is p.terms else \
            _pack(q.terms, width, self._var_info)[:2]
        acc, den = self._product_sum([(rows_p, rows_q, lp * lq, 1)], max_cp)
        return GradedPoly(self, _unpack(acc, width, den, self._unit_factors))

    # -- derivatives ---------------------------------------------------------

    def _derivative(self, p, vid, left):
        """The left (or right) derivative of p by vid, by the bracket's walk."""
        width = _top(p.terms).bit_length()
        den, _, derivs = _pack(p.terms, width, self._var_info, (vid,), left)
        acc = {row[0]: row[4] for row in derivs.get(vid, ())}
        return GradedPoly(self, _unpack(acc, width, den, self._unit_factors))

    def derive_left(self, p, vid):
        return self._derivative(p, vid, True)

    def derive_right(self, p, vid):
        return self._derivative(p, vid, False)

    def replace_left(self, p, fields):
        """The sum of coeff * dst * (left derivative of p w.r.t. src) over
        the (src, dst, coeff) triples of fields: p is packed once
        (pack_keys), one pass of replace_sum forms the result, and each
        distinct numerator becomes a Fraction once."""
        width = degree_width(p.terms)
        table, fden = self.replace_table(fields, width)
        nums, den = pack_keys(p.terms, width)
        return self.from_keys(self.replace_sum(nums, table, {}), width, den * fden)

    def from_keys(self, nums, width, den):
        """The polynomial of packed keys of the given width and their int
        numerators over den (their coefficients, with den None)."""
        return GradedPoly(self, _unpack(nums, width, den, self._unit_factors))

    def replace_table(self, fields, width):
        """(table, fden): the (src, dst, coeff) triples of fields as a
        replace_sum table over packed keys of the given width, the
        coefficients scaled to ints over fden, the lcm of their
        denominators.  Sources may repeat, dst may equal src, and zero
        coefficients are skipped.

        table is (field mask, sources): each source, in variable order,
        is (its shift, its unit key, the mask of the odd fields below it
        if it is odd, else 0, its destinations), and each destination
        (its unit key, the mask of the odd fields below it, its parity,
        the int coefficient), in the order of fields.  An odd variable
        has exponent 0 or 1, so the odd fields below v are the unit keys
        of the odd variables before it."""
        par = self.var_parity
        by_src: dict = {}
        fden = 1
        for src, dst, coeff in fields:
            if type(coeff) is not int:
                coeff = Fraction(coeff)
                if coeff.denominator == 1:
                    coeff = coeff.numerator
                else:
                    fden = lcm(fden, coeff.denominator)
            if coeff:
                by_src.setdefault(src, []).append((dst, coeff))
        below = []  # below[v]: the unit keys of the odd variables before v
        odd = 0
        for v, pv in enumerate(par):
            below.append(odd)
            if pv:
                odd |= 1 << width * v
        sources = []
        for src in sorted(by_src):
            dsts = [(1 << width * dst, below[dst], par[dst], int(coeff * fden))
                    for dst, coeff in by_src[src]]
            sources.append((width * src, 1 << width * src,
                            below[src] if par[src] else 0, dsts))
        return ((1 << width) - 1, sources), fden

    def replace_sum(self, nums, table, out):
        """Add to out, a dict from packed key to int numerator, the sum of
        coeff * dst * (left derivative w.r.t. src) of the terms of nums
        (packed key -> int numerator) over the entries of table (see
        replace_table), in one pass over nums, and return out.  The
        first-order core: it makes no Fraction, and since it keeps each
        term's total degree, the field width of a chain's input holds
        every pass of the chain.

        For each source, the exponent is (key >> shift) & mask; one power
        leaves the key, with the sign of the odd fields below an odd
        source.  Each destination's unit key then enters, with the sign of
        the odd fields below an odd destination: an odd destination
        already present kills the term, an even one gains a power.  A
        source equal to its destination leaves the key as it was, the two
        signs cancelling.  A key new to out is stored as it is, a repeated
        one added to and dropped when it cancels, and out is checked
        against the term budget when the pass ends."""
        mask, sources = table
        get = out.get
        for key, num in nums.items():
            for shift, unit, below, dsts in sources:
                e = (key >> shift) & mask
                if not e:
                    continue
                base = key - unit
                n = num * e if e != 1 else num
                if below and (key & below).bit_count() & 1:
                    n = -n
                for dunit, dbelow, pd, coeff in dsts:
                    if pd:
                        if base & dunit:
                            continue
                        f = -n * coeff if (base & dbelow).bit_count() & 1 else n * coeff
                    else:
                        f = n * coeff
                    k = base + dunit
                    old = get(k)
                    if old is None:
                        out[k] = f
                    else:
                        f += old
                        if f:
                            out[k] = f
                        else:
                            del out[k]
        self.check_budget(out)
        return out

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

        x and y are each packed once by _pack, which takes the right
        derivatives of x by every paired variable it contains and the left
        derivatives of y by the partners of those only, on packed rows.
        The field width holds the sum of three exponents, one each from x,
        a structure function w and y, so the dx * w products and their
        products with dy never carry.  Each dx * w is summed first, w packed
        for this call only, then every pairing's product goes into one
        _product_sum call, a constant pairing scalar scaling its rows.

        Every pairing removes one factor from each side and the matter
        pairings have cp-degree 0, so the two derivatives drop at most one
        cp factor in all: a term of x above max_cp + 1 - (least cp-degree
        of y) feeds only terms above max_cp, and likewise for y.  The rows
        of such terms are dropped before any product."""
        if (x.alg is not self or y.alg is not self) and not (
                self.compatible(x.alg) and self.compatible(y.alg)):
            raise TheoryError(
                "bracket arguments belong to an algebra over a different theory")
        xt, yt = x.terms, y.terms
        if not xt or not yt:
            return GradedPoly(self, {})
        info = self._var_info
        width = (2 * _top(xt, yt) + self._mid_top).bit_length()
        lx, rows_x, dx = _pack(xt, width, info, self._paired, False)
        ly, rows_y, dy = _pack(
            yt, width, info, {vb for va, vb, _, _ in self._omega if va in dx}, True)
        if max_cp is not None:
            lo_x = min(map(_cp_of, rows_x))
            lo_y = min(map(_cp_of, rows_y))
            if lo_x + lo_y - 1 > max_cp:
                return GradedPoly(self, {})
            if max(map(_cp_of, rows_x)) > max_cp + 1 - lo_y:
                dx = _drop_above(dx, max_cp + 1 - lo_y, info)
            if max(map(_cp_of, rows_y)) > max_cp + 1 - lo_x:
                dy = _drop_above(dy, max_cp + 1 - lo_x, info)
        work = []
        for va, vb, c0, mid in self._omega:
            d1, d2 = dx.get(va), dy.get(vb)
            if d1 is None or d2 is None:
                continue
            l1 = lx
            if mid is not None:  # dx * w first, then * dy
                lw, rows_w, _ = _pack(mid, width, info)
                meta = {}
                acc, l1 = self._product_sum([(d1, rows_w, lx * lw, 1)], max_cp, meta)
                if not acc:
                    continue
                d1 = [(k, *meta[k], n) for k, n in acc.items()]
            work.append((d1, d2, l1 * ly * c0.denominator, c0.numerator))
        acc, den = self._product_sum(work, max_cp)
        del rows_x, rows_y, dx, dy, work  # the packed inputs go before the output forms
        return GradedPoly(self, _unpack(acc, width, den, self._unit_factors))
