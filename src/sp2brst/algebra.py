"""Exact graded-commutative polynomial algebra on the Sp(2)-extended phase space.

Variables come in six sectors, listed in canonical monomial order:

    xi[1..m]      constraint coordinates          parity eps_a, ngh 0, N-weight 1
    xip[1..p]     remaining (physical) coordinates parity eps_a', ngh 0
    P[a,1|2]      ghost momenta                   parity eps_a+1, ngh -1, N-weight 1
    C[a,1|2]      ghosts                          parity eps_a+1, ngh +1, cp-weight 1
    lam[1..m]     Lagrange multipliers            parity eps_a, ngh -2, N-weight 1
    pi[1..m]      multiplier momenta              parity eps_a, ngh +2, cp-weight 1

Coefficients are exact rationals; odd (Grassmann) variables square to
zero and reordering picks up Koszul signs.  A GradedPoly stores one
representation: packed int keys, one field of exponent bits per
variable, each mapped to an int numerator over the polynomial's one
canonical denominator, with the field width recorded on the polynomial
(see GradedPoly).  Every kernel reads and returns stored keys: addition
and scalar products sum int numerators; mul and the brackets walk the
keys into packed rows (see _pack: odd-variable mask, prefix-parity mask
for Koszul signs and cp-degree, read off the key) and form every product
in one loop, Algebra._product_sum; the first-order operators
(replace_left and the passes of the operators module) share one pass,
Algebra.replace_sum, which forms each key's terms from the plan of its
pattern, the key's bits that the pass reads, built once per table and
pattern (_ReplaceTable).  N-degrees, cp-degrees and parities are read off
a key with masks (_Layout), and no kernel decodes a key.  Every kernel
stores its result at the width Algebra._width picks for the call, which
is MIN_WIDTH until a degree bound passes total degree 31; a kernel
repacks an input only when its width differs from the call's, and a
chain, whose passes keep each term's total degree, never does.  Tuple
monomials, (variable id, exponent) pairs sorted by id, remain only where
people read them: expr's parser and serialize and the theory checks,
which decode keys with _factors, the terms view for tests and tracing,
and Algebra.poly, which checks and packs them.

Coefficients are ints from input to output: a scalar factor is read off
an int or a Fraction by its numerator and denominator, p / n divides
exactly by a nonzero int, and the pairing table's scalars are int
pairs.  Only the terms view and a scalar of another type import
fractions, on first use.

The graded Poisson bracket is realised as a single sum over a sparse
"symplectic pairing" table:  {X,Y} = sum_AB (d_r X/d v_A) w_AB (d_l Y/d v_B),
with right derivatives acting on X and left derivatives on Y.  The ghost
entries of w are fixed by the canonical pairings (C,P) and (pi,lam); the
matter entries come from the theory's structure tables, completed by graded
antisymmetry  w_ji = -(-1)^(eps_i eps_j) w_ij.  The batched entry,
Algebra.brackets(xs, ys), forms each {x, y} as its one-pair bracket and
shares only the walk of each operand, once for the whole call at one
field width, and the packs of the structure functions; bracket is its
one-pair case, and matter=True takes the matter pairings only, as the
solver's A and F do.  The walk that makes a term's row also emits its
derivative rows: one power of the variable leaves the key and the masks.
Each X gives its right derivatives by every paired variable it contains,
each Y its left derivatives by the partners of those, and a pair's sum
runs over the table entries whose two derivatives are both nonzero.
derive_left takes any number of variables from the same walk.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from enum import IntEnum
from itertools import islice
from math import gcd, lcm
from operator import itemgetter
from typing import NamedTuple

DEFAULT_MAX_TERMS = 1_000_000

# the narrowest field width a polynomial is stored at, holding total
# degree 31: every product and bracket of the bundled theories' and the
# identity sampler's polynomials fits it, so none of their kernels or sums
# repacks a key
MIN_WIDTH = 5


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
# the matter sectors: the coordinates, the only variables of a structure entry
_MATTER_SECTORS = (Sector.XI, Sector.XI_PHYS)


class InputError(ValueError):
    """Input a command refuses with one error line and exit 2."""


class TheoryError(InputError):
    """Inconsistent structure tables or malformed theory data."""


class TermBudgetError(RuntimeError):
    """A polynomial being formed exceeded its algebra's term budget."""


def _is_rational(c) -> bool:
    """Whether c is an int (a bool included) or a Fraction.  A Fraction
    exists only once fractions is loaded, so this looks the module up in
    sys.modules and imports nothing."""
    if isinstance(c, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(c, fractions.Fraction)


def _ratio(c) -> tuple:
    """(numerator, denominator) of c in lowest terms, the denominator
    positive: read off an int or a Fraction, and any other value through
    Fraction(c), imported on this first use."""
    if not _is_rational(c):
        from fractions import Fraction

        c = Fraction(c)
    return int(c.numerator), int(c.denominator)


class Variable(NamedTuple):
    vid: int
    sector: Sector
    alpha: int          # 1-based constraint / physical index
    sp2: int | None     # Sp(2) index 1|2 for P and C, else None
    parity: int         # 0 even, 1 odd
    ngh: int
    name: str           # serialised spelling, e.g. "P[2,1]"

    def __repr__(self):
        return self.name


class GradedPoly:
    """Sparse polynomial over one Algebra.  Treat instances as immutable.

    Stored as packed keys: nums maps each term's key, exponent e of
    variable v at bit width * v, to an int numerator over the one
    denominator den.  den is canonical, gcd(den, *nums) == 1 and 1 for
    zero, so two polynomials of one width are equal exactly when their
    den and nums are.  width holds every term's total degree (2 ** width
    exceeds it), so no field carries when keys or fields are summed (see
    _Layout).  Widths are not canonical, and none is below MIN_WIDTH.  One
    rule, Algebra._width, picks the width of every kernel: the widest
    width of its inputs, or wider if the total degrees it forms need it (a
    product the sum of its factors' largest total degrees, the bracket
    that of x, y and a structure function, less 2), and the kernel stores
    its result at that width.  A chain of first-order passes keeps each
    term's total degree and needs no check.  So while every bound stays
    within MIN_WIDTH's total degree 31, all polynomials share that one
    width; past it a kernel widens, and only an input stored at another
    width than the call's is repacked, as in + and ==.

    Polynomials are made by the algebra: _poly takes packed keys as they
    are, Algebra.from_keys makes their denominator canonical, and
    Algebra.poly packs tuple monomials, the one tuple entry point.  terms
    is the read-only tuple view, decoded on every read."""

    __slots__ = ("alg", "nums", "den", "width")

    @property
    def terms(self):
        """{monomial: Fraction} in stored order, decoded from the keys; it
        imports fractions, so no command reads it."""
        return _decode(self.nums, self.width, self.den)

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.nums

    def __bool__(self):
        return bool(self.nums)

    def term_count(self):
        return len(self.nums)

    def _homogeneous(self, vals, what):
        vals = set(vals)
        if not vals:
            return 0
        if len(vals) > 1:
            raise ValueError(f"polynomial is not homogeneous in {what}: {sorted(vals)}")
        return vals.pop()

    def parity(self):
        odd = self.alg.layout(self.width).odd
        return self._homogeneous(((k & odd).bit_count() & 1 for k in self.nums), "parity")

    def ngh(self):
        lay = self.alg.layout(self.width)
        nghs = [0] * len(self.nums)
        for fields, w in lay.ngh_parts:
            nghs = [s + w * d for s, d in zip(nghs, lay.reads(self.nums, fields))]
        return self._homogeneous(nghs, "ngh")

    def _degree(self):
        """The largest total degree of a term, 0 for zero."""
        return max(self.alg.layout(self.width).reads(self.nums, -1), default=0)

    def _cps(self):
        """The cp-degree of each stored key, in order."""
        lay = self.alg.layout(self.width)
        return lay.reads(self.nums, lay.cp)

    def min_cp(self):
        """Smallest cp-degree over terms, or None for the zero polynomial."""
        if not self.nums:
            return None
        return min(self._cps())

    def truncate_cp(self, k):
        """Drop every term of cp-degree greater than k."""
        kept = {key: n for (key, n), d in zip(self.nums.items(), self._cps()) if d <= k}
        if len(kept) == len(self.nums):
            return self
        return self.alg.from_keys(kept, self.width, self.den)

    def cp_part(self, d):
        """The terms of cp-degree exactly d."""
        kept = {key: n for (key, n), e in zip(self.nums.items(), self._cps()) if e == d}
        return self.alg.from_keys(kept, self.width, self.den)

    def substitute_zero(self, sectors):
        """Set every variable of the given sectors to zero (drop those terms)."""
        lay = self.alg.layout(self.width)
        wanted = set(sectors)
        fields = lay.fields(v for v, s in enumerate(self.alg.var_sector) if s in wanted)
        kept = {k: n for k, n in self.nums.items() if not k & fields}
        if len(kept) == len(self.nums):
            return self
        return self.alg.from_keys(kept, self.width, self.den)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GradedPoly):
            if other.alg is not self.alg and not self.alg.compatible(other.alg):
                raise TheoryError(
                    "cannot combine elements of algebras over different theories")
            return other
        if _is_rational(other):
            return self.alg.scalar(other)
        return None

    def _sum(self, other, sign):
        """self + sign * other at the wider of the two widths, as int
        numerators over the lcm of the two denominators: self's keys in
        order, then those of other new to the sum, a repeated key added to
        and dropped when it cancels.  The sum is checked against the term
        budget once."""
        width = self.width
        a, b = self.nums, other.nums
        if other.width != width:
            if other.width > width:
                a = _repack(a, width, other.width)
                width = other.width
            else:
                b = _repack(b, other.width, width)
        den = lcm(self.den, other.den)
        f = den // self.den
        out = {k: n * f for k, n in a.items()} if f != 1 else dict(a)
        scale = sign * (den // other.den)
        get = out.get
        for k, num in b.items():
            if scale != 1:
                num *= scale
            old = get(k)
            if old is None:
                out[k] = num
                continue
            num += old
            if num:
                out[k] = num
            else:
                del out[k]
        self.alg.check_budget(out)
        return self.alg.from_keys(out, width, den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.alg, {k: -n for k, n in self.nums.items()}, self.den, self.width)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._sum(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._sum(self, -1)

    def __mul__(self, other):
        if _is_rational(other):
            if not other:
                return self.alg.zero()
            num = other.numerator
            out = {k: n * num for k, n in self.nums.items()} if num != 1 else self.nums
            return self.alg.from_keys(out, self.width, self.den * other.denominator)
        if isinstance(other, GradedPoly):
            return self.alg.mul(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if _is_rational(other):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, n):
        """self / n for a nonzero int n, exact: the sign of n goes to the
        numerators, |n| to the denominator, and from_keys makes it
        canonical."""
        if not isinstance(n, int):
            return NotImplemented
        if not n:
            raise ZeroDivisionError("polynomial division by zero")
        out = {k: -v for k, v in self.nums.items()} if n < 0 else self.nums
        return self.alg.from_keys(out, self.width, self.den * abs(n))

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
        if _is_rational(other):
            other = self.alg.scalar(other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        if self.alg is not other.alg and not self.alg.compatible(other.alg):
            return False
        if self.den != other.den or len(self.nums) != len(other.nums):
            return False
        if self.width == other.width:
            return self.nums == other.nums
        if self.width < other.width:
            return _repack(self.nums, self.width, other.width) == other.nums
        return self.nums == _repack(other.nums, other.width, self.width)

    __hash__ = None

    def __repr__(self):
        from . import expr

        return expr.serialize(self)


_new_poly = object.__new__


def _poly(alg, nums, den, width):
    """The polynomial of packed keys nums of the given width over den,
    taken as they are: den must already be canonical."""
    p = _new_poly(GradedPoly)
    p.alg = alg
    p.nums = nums
    p.den = den
    p.width = width
    return p


def _factors(key, width):
    """The (variable id, exponent) pairs of a packed key, by variable."""
    mask = (1 << width) - 1
    while key:
        v = ((key & -key).bit_length() - 1) // width  # the lowest variable
        e = (key >> width * v) & mask
        yield v, e
        key ^= e << width * v


def _decode(nums, width, den):
    """The raw term dict of packed keys and their int numerators over den,
    one Fraction per distinct numerator, in the order of nums."""
    from fractions import Fraction

    out = {}
    made = {}  # numerator -> its Fraction
    for k, n in nums.items():
        c = made.get(n)
        if c is None:
            c = made[n] = Fraction(n, den)
        out[tuple(_factors(k, width))] = c
    return out


def _repack(nums, old, new):
    """nums with its keys moved from field width old to width new, in
    order; every exponent must fit the new width."""
    return {sum(e << new * v for v, e in _factors(k, old)): n for k, n in nums.items()}


def keys_at(p, width):
    """p's numerators keyed at width (p's own keys when it is stored at it)."""
    return p.nums if p.width == width else _repack(p.nums, p.width, width)


class _Layout:
    """The masks and read-offs of packed keys of one field width.

    unit[v] is the key 1 << width * v of variable v.  A read-off
    ((key & fields) * ones >> top) & mask sums the fields of `fields`
    into the top field; no partial sum passes the term's total degree,
    which the width holds, so none carries.  odd is the unit keys of the
    odd variables: an odd variable has exponent 0 or 1, so key & odd is a
    term's odd mask, and its bit count the term's parity.  info[v] is (v's unit
    key if v is odd else 0, the odd unit keys after v if v is odd else 0,
    v's cp-weight), and prefixes maps an odd mask to its prefix parity, the
    odd unit keys that lie above an odd number of the mask's (see
    Algebra._product_sum), filled by prefix as masks are met."""

    __slots__ = ("width", "mask", "ones", "top", "unit", "odd", "cp", "n",
                 "ngh_parts", "info", "_after", "prefixes")

    def __init__(self, alg, width):
        nv = len(alg.vars)
        self.width = width
        self.mask = (1 << width) - 1
        self.unit = unit = tuple(1 << width * v for v in range(nv))
        self.ones = sum(unit)
        self.top = width * max(nv - 1, 0)
        odd_units = [u if par else 0 for u, par in zip(unit, alg.var_parity)]
        self.odd = sum(odd_units)
        self.cp = self.fields(v for v, w in enumerate(alg.var_cpwt) if w)
        self.n = self.fields(v for v, w in enumerate(alg.var_nwt) if w)
        self.ngh_parts = tuple(
            (self.fields(v for v, s in enumerate(alg.var_sector) if s == sector), w)
            for sector, w in _SECTOR_NGH.items() if w)
        after = [sum(odd_units[v + 1:]) if bit else 0 for v, bit in enumerate(odd_units)]
        self._after = {bit: a for bit, a in zip(odd_units, after) if bit}
        self.info = tuple(zip(odd_units, after, alg.var_cpwt))
        self.prefixes = {0: 0}

    def fields(self, vids):
        """The mask of the fields of the given variables."""
        mask, width = self.mask, self.width
        return sum(mask << width * v for v in vids)

    def reads(self, keys, fields):
        """The sum of each key's exponents in fields, in order; fields -1
        gives each key's total degree."""
        ones, top, mask = self.ones, self.top, self.mask
        return [((k & fields) * ones >> top) & mask for k in keys]

    def prefix(self, odd):
        """The prefix parity of an odd mask, memoised in prefixes."""
        par = 0
        o = odd
        while o:
            low = o & -o
            par ^= self._after[low]
            o ^= low
        self.prefixes[odd] = par
        return par


def _pack(nums, lay, wanted=(), left=False):
    """One walk over the packed keys nums (key -> int numerator) of the
    layout's width: (rows, derivs).  rows holds each term as (key, odd
    mask, prefix parity, cp-degree, numerator) (see
    Algebra._product_sum).

    derivs maps each variable of wanted that occurs to the rows of the
    left (or right) derivative by it, in term order: one power of v leaves
    the key, an odd v leaves the two masks, the cp-degree drops by v's
    weight and the numerator gains the exponent as a factor.  An odd v
    changes sign once per odd factor it moves past: those before it for a
    left derivative, those after it for a right one.  Dropping one power
    of v maps distinct monomials containing v to distinct monomials, so no
    two rows share a key."""
    odd_all, cpf, ones, top, mask = lay.odd, lay.cp, lay.ones, lay.top, lay.mask
    width, prefixes, prefix = lay.width, lay.prefixes, lay.prefix
    # v -> (its derivative rows, its unit key, odd bit, parity mask,
    # cp-weight, the odd factors it moves past) if wanted, else None
    derive = None
    if wanted:
        derive = [None] * len(lay.info)
        for v in wanted:
            bit, above, w = lay.info[v]
            derive[v] = ([], lay.unit[v], bit, above, w,
                         (bit - 1 if left else above) if bit else 0)
    rows = []
    for key, n in nums.items():
        odd = key & odd_all
        par = prefixes.get(odd)
        if par is None:
            par = prefix(odd)
        cp = ((key & cpf) * ones >> top) & mask
        rows.append((key, odd, par, cp, n))
        if derive is None:
            continue
        k = key
        while k:
            v = ((k & -k).bit_length() - 1) // width  # the lowest variable
            shift = width * v
            e = (k >> shift) & mask
            k ^= e << shift
            dv = derive[v]
            if dv is None:
                continue
            out, unit, bit, above, w, past = dv
            d = n * e if e > 1 else n
            if past and (odd & past).bit_count() & 1:
                d = -d
            out.append((key - unit, odd ^ bit, par ^ above, cp - w, d))
    if derive is None:
        return rows, {}
    return rows, {v: derive[v][0] for v in wanted if derive[v][0]}


def _drop_above(derivs, limit, info):
    """derivs without the rows taken from terms of cp-degree above limit."""
    out = {}
    for v, rows in derivs.items():
        top = limit - info[v][2]  # a row's cp-degree is its term's less v's weight
        kept = [row for row in rows if row[3] <= top]
        if kept:
            out[v] = kept
    return out


_cp_of = itemgetter(3)


def _operand(p, lay, wanted, left, max_cp):
    """(derivs, least cp-degree, largest cp-degree) of a bracket operand
    from one _pack walk at the layout's width; the degrees are None
    without max_cp, and the rows go when the walk returns."""
    rows, derivs = _pack(keys_at(p, lay.width), lay, wanted, left)
    if max_cp is None:
        return derivs, None, None
    cps = list(map(_cp_of, rows))
    return derivs, min(cps), max(cps)


class _ReplaceTable:
    """A replace_sum table (see Algebra.replace_table) and the plans of
    the patterns its passes have met.

    sel is the selector: a key's pattern, key & sel, holds its source
    exponents and every odd bit a sign or an odd destination reads, so
    the pass forms the same terms, less the key's bits outside sel, for
    every key of one pattern.  plans maps a pattern to its plan, built
    once: a tuple of (key delta, int factor) pairs, one per term formed,
    in source-then-destination order.  Equal pairs and equal plans are
    stored once (shared)."""

    __slots__ = ("sel", "mask", "sources", "plans", "shared")

    def __init__(self, sel, mask, sources):
        self.sel = sel
        self.mask = mask
        self.sources = sources
        self.plans = {}
        self.shared = {}

    def plan(self, pattern):
        """The plan of a pattern, built and stored in plans.

        For each source, the exponent e is (pattern >> shift) & mask; one
        power leaves the key, with the sign of the odd fields below an odd
        source.  Each destination's unit key then enters, with the sign of
        the odd fields below an odd destination: an odd destination
        already present kills the term, an even one gains a power.  The
        pair is (dst unit - src unit, +-e * coeff); a source equal to its
        destination leaves the key as it was, the two signs cancelling."""
        mask, shared = self.mask, self.shared
        pairs = []
        for shift, unit, below, dsts in self.sources:
            e = (pattern >> shift) & mask
            if not e:
                continue
            base = pattern - unit
            if below and (pattern & below).bit_count() & 1:
                e = -e
            for dunit, dbelow, pd, coeff in dsts:
                f = e * coeff
                if pd:
                    if base & dunit:
                        continue
                    if (base & dbelow).bit_count() & 1:
                        f = -f
                pair = (dunit - unit, f)
                pairs.append(shared.setdefault(pair, pair))
        plan = tuple(pairs)
        plan = self.plans[pattern] = shared.setdefault(plan, plan)
        return plan


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
        self.var_sector = tuple(v.sector for v in vars_)
        self.var_nwt = tuple(1 if v.sector in _N_SECTORS else 0 for v in vars_)
        self.var_cpwt = tuple(1 if v.sector in _CP_SECTORS else 0 for v in vars_)
        self.by_name = {v.name: v.vid for v in vars_}
        self._index = {(v.sector, v.alpha, v.sp2): v.vid for v in vars_}
        # a declared coordinate name reads as that coordinate's variable
        self.by_name.update((n, self._xi_vid(i)) for i, n in enumerate(spec.names, 1))
        # the _Layout of each field width met, and the operators module's
        # packed tables, one set per width, built on first use
        self._layouts: dict = {}
        self.operator_tables: dict = {}
        self._one = _poly(self, {0: 1}, 1, MIN_WIDTH)

        # sparse pairing table: list of (vid_a, vid_b, scalar as an int
        # (numerator, denominator) pair, structure function or None)
        self._omega: list = []
        self._build_ghost_omega()
        self._build_matter_omega()
        self._paired = frozenset(va for va, _, _, _ in self._omega)
        self._matter = frozenset(va for va in self._paired
                                 if self.var_sector[va] in _MATTER_SECTORS)
        # the largest total degree of a structure function (see bracket)
        self._mid_degree = max(
            (mid._degree() for _, _, _, mid in self._omega if mid is not None), default=0)

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

    def layout(self, width) -> _Layout:
        """The _Layout of packed keys of the given width, built once."""
        lay = self._layouts.get(width)
        if lay is None:
            lay = self._layouts[width] = _Layout(self, width)
        return lay

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

    def ghost_mom(self, a, i):
        return self.gen(self.vid(Sector.GHOST_MOM, a, i))

    # -- constructors -------------------------------------------------------

    def zero(self):
        return _poly(self, {}, 1, MIN_WIDTH)

    def one(self):
        return self._one

    def scalar(self, c):
        num, den = _ratio(c)
        if not num:
            return self.zero()
        return _poly(self, {0: num}, den, MIN_WIDTH)

    def gen(self, vid):
        return _poly(self, {1 << MIN_WIDTH * vid: 1}, 1, MIN_WIDTH)

    def poly(self, terms):
        """Build from {monomial: coefficient}, a monomial a tuple of
        (variable id, exponent) pairs, ids strictly increasing; zero
        coefficients are dropped.  The keys are packed at the width of the
        largest total degree, or MIN_WIDTH if that is wider.  An id out of
        range or out of order, an exponent below 1 or an odd variable's
        above 1 raises ValueError."""
        nv, par = len(self.vars), self.var_parity
        kept = {}
        top = 0
        for mono, c in terms.items():
            last = -1
            d = 0
            for v, e in mono:
                if not last < v < nv:
                    raise ValueError(
                        f"monomial {mono!r}: variable ids must be strictly "
                        f"increasing and in 0..{nv - 1}")
                if e < 1 or (e > 1 and par[v]):
                    raise ValueError(
                        f"monomial {mono!r}: exponent {e} of {self.vars[v].name} "
                        f"must be {'1' if par[v] else 'at least 1'}")
                last = v
                d += e
            num, q = (c, 1) if type(c) is int else _ratio(c)
            if num:
                kept[mono] = num, q
                top = max(top, d)
        if not kept:
            return self.zero()
        den = lcm(*(q for _, q in kept.values()))
        width = max(top.bit_length(), MIN_WIDTH)
        nums = {}
        for mono, (n, q) in kept.items():
            key = 0
            for v, e in mono:
                key += e << width * v
            nums[key] = n * (den // q)
        return _poly(self, nums, den, width)

    def from_keys(self, nums, width, den):
        """The polynomial of packed keys nums (key -> int numerator over
        den) of the given width, den made canonical: nums and den are
        divided by their gcd, into a new dict when it is not 1."""
        if den != 1:
            if not nums:
                den = 1
            else:
                g = gcd(den, *nums.values())
                if g != 1:
                    nums = {k: n // g for k, n in nums.items()}
                    den //= g
        return _poly(self, nums, den, width)

    # -- products -----------------------------------------------------------

    def _product_sum(self, work, max_cp=None):
        """(acc, den): the sum of num/d * t1 t2 over the (t1, t2, d, num)
        items of work, t1 and t2 packed rows (see _pack), as a dict from
        packed key to int numerator over den, the lcm of the d.  Every
        product of mul and bracket is formed here, and the growing sum is
        checked against the term budget after each row of each t1.

        With max_cp, only the pairs of rows whose cp-degrees sum to at
        most max_cp are formed: cp-degree adds under products, so this is
        exactly the sum truncated at max_cp.  Each t2 is ordered by
        cp-degree, and each row of t1 meets only the prefix that fits.

        Two keys add in one int add, the width holding the summed
        exponents.  Two rows whose odd masks overlap give zero, and the
        Koszul sign is the parity of the odd factors of t1's row lying
        above an odd number of t2's: (odd1 & parity2).bit_count().  A key
        new to the sum is stored as it is and a repeated one added to, so
        keys enter and leave in the order they did when every product was
        merged and added one at a time."""
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
            for k1, o1, _, cp1, n1 in rows:
                if max_cp is not None:
                    end = bisect_right(cps, max_cp - cp1)
                    if not end:
                        continue
                    terms2 = islice(second, end)
                else:
                    terms2 = second
                if scale != 1:
                    n1 *= scale
                for k2, o2, p2, _, n2 in terms2:
                    if o1 & o2:
                        continue
                    k = k1 + k2
                    n = -n1 * n2 if (o1 & p2).bit_count() & 1 else n1 * n2
                    old = get(k)
                    if old is None:
                        acc[k] = n
                    else:
                        n += old
                        if n:
                            acc[k] = n
                        else:
                            del acc[k]
                if len(acc) > limit:
                    self.check_budget(acc)
        return acc, den

    def _width(self, need, *polys):
        """The field width for a kernel over polys that forms terms of
        total degree up to need: the widest of theirs, or the bit length
        of need if that is wider."""
        return max(need.bit_length(), *(p.width for p in polys))

    def mul(self, p, q, *, max_cp=None):
        """The graded product p q; with max_cp, truncated at that cp-degree
        without forming the pairs above it.  The width holds the sum of the
        two factors' largest total degrees, so two keys add without a
        carry; a factor stored at another width is repacked."""
        if (p.alg is not self or q.alg is not self) and not (
                self.compatible(p.alg) and self.compatible(q.alg)):
            raise TheoryError(
                "cannot multiply elements of algebras over different theories")
        if not p.nums or not q.nums:
            return self.zero()
        dp = p._degree()
        dq = dp if q is p else q._degree()
        width = self._width(dp + dq, p, q)
        lay = self.layout(width)
        rows_p = _pack(keys_at(p, width), lay)[0]
        rows_q = rows_p if q is p else _pack(keys_at(q, width), lay)[0]
        acc, den = self._product_sum([(rows_p, rows_q, p.den * q.den, 1)], max_cp)
        return self.from_keys(acc, width, den)

    # -- derivatives ---------------------------------------------------------

    def derive_left(self, p, vids):
        """The left derivatives of p by each variable of vids, in order,
        from one walk of the bracket's."""
        _, derivs = _pack(p.nums, self.layout(p.width), vids, True)
        return [self.from_keys({row[0]: row[4] for row in derivs.get(v, ())},
                               p.width, p.den) for v in vids]

    def replace_left(self, p, fields):
        """The sum of coeff * dst * (left derivative of p w.r.t. src) over
        the (src, dst, coeff) triples of fields: one pass of replace_sum
        over p's stored keys, at p's width."""
        table, fden = self.replace_table(fields, p.width)
        return self.from_keys(self.replace_sum(p.nums, table, {}), p.width, p.den * fden)

    def replace_table(self, fields, width):
        """(table, fden): the (src, dst, coeff) triples of fields as a
        replace_sum table over packed keys of the given width (a
        _ReplaceTable), the coefficients scaled to ints over fden, the lcm
        of their denominators.  Sources may repeat, dst may equal src, and
        zero coefficients are skipped.

        Each source, in variable order, is (its shift, its unit key, the
        mask of the odd fields below it if it is odd, else 0, its
        destinations), and each destination (its unit key, the mask of the
        odd fields below it, its parity, the int coefficient), in the
        order of fields.  An odd variable has exponent 0 or 1, so the odd
        fields below v are the unit keys of the odd variables before it.
        The table's selector holds every bit a term of the pass depends
        on: the source fields, the odd fields below an odd source, and
        each odd destination's unit key and the odd fields below it."""
        par = self.var_parity
        by_src: dict = {}
        fden = 1
        for src, dst, coeff in fields:
            num, den = (coeff, 1) if type(coeff) is int else _ratio(coeff)
            if num:
                fden = lcm(fden, den)
                by_src.setdefault(src, []).append((dst, num, den))
        below = []  # below[v]: the unit keys of the odd variables before v
        odd = 0
        for v, pv in enumerate(par):
            below.append(odd)
            if pv:
                odd |= 1 << width * v
        mask = (1 << width) - 1
        sources = []
        sel = 0
        for src in sorted(by_src):
            dsts = [(1 << width * dst, below[dst], par[dst], num * (fden // den))
                    for dst, num, den in by_src[src]]
            sources.append((width * src, 1 << width * src,
                            below[src] if par[src] else 0, dsts))
            sel |= mask << width * src | (below[src] if par[src] else 0)
            for dunit, dbelow, pd, _ in dsts:
                if pd:
                    sel |= dunit | dbelow
        return _ReplaceTable(sel, mask, sources), fden

    def replace_sum(self, nums, table, out):
        """Add to out, a dict from packed key to int numerator, the sum of
        coeff * dst * (left derivative w.r.t. src) of the terms of nums
        (packed key -> int numerator) over the entries of table (see
        replace_table), in one pass over nums, and return out.  The
        first-order core: it sums int numerators, and since it keeps each
        term's total degree, the width of its input holds every pass.

        A term's pass depends only on its key's bits in the table's
        selector, its pattern: each key looks its pattern's plan up in the
        table (_ReplaceTable.plan builds it on a miss) and forms one term
        per (key delta, factor) pair of it, key + delta with numerator
        num * factor, in source-then-destination order.  A key new to out
        is stored as it is, a repeated one added to and dropped when it
        cancels, and out is checked against the term budget when the pass
        ends."""
        sel, plans, plan_of = table.sel, table.plans, table.plan
        get = out.get
        for key, num in nums.items():
            plan = plans.get(key & sel)
            if plan is None:
                plan = plan_of(key & sel)
            for delta, c in plan:
                k = key + delta
                f = num * c
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
                emit((c, pm, (1, 1), None))
                emit((pm, c, (sgn, 1), None))
            pi = self.vid(Sector.LAGRANGE_MOM, a)
            lam = self.vid(Sector.LAGRANGE, a)
            emit((pi, lam, (1, 1), None))
            emit((lam, pi, (-sgn, 1), None))

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

        def entry(text, where):
            if not isinstance(text, str):
                raise TheoryError(f"{where}: structure entries must be expression "
                                  f"strings, found {type(text).__name__}")
            try:
                poly = expr.parse(self, text)
            except expr.ExprError as e:  # its column counts in text as written
                raise TheoryError(f"{where} {expr.echo(text)}: {e}") from None
            for key in poly.nums:
                for v, _ in _factors(key, poly.width):
                    if self.var_sector[v] not in _MATTER_SECTORS:
                        raise TheoryError(
                            f"{where}: structure entries may involve only coordinates, "
                            f"found {self.vars[v].name}")
            return poly

        for (a, b, g), text in sorted(spec.u_table.items()):
            for idx, hi in ((a, m), (b, m), (g, m)):
                if not 1 <= idx <= hi:
                    raise TheoryError(f"U[{a},{b},{g}]: constraint index {idx} out of range 1..{m}")
            w = self.mul(entry(text, f"U[{a},{b},{g}]"), self.xi(g))
            key = (a, b)
            given[key] = given.get(key, self.zero()) + w

        for (i, j), text in sorted(spec.mixed_table.items()):
            if not (1 <= i <= m + p and 1 <= j <= m + p):
                raise TheoryError(f"mixed[{i},{j}]: index out of range 1..{m + p}")
            if i <= m and j <= m:
                raise TheoryError(
                    f"mixed[{i},{j}]: constraint-constraint brackets must be given through U")
            w = entry(text, f"mixed[{i},{j}]")
            if (i, j) in given:
                raise TheoryError(f"mixed[{i},{j}]: duplicate entry")
            given[(i, j)] = w

        # antisymmetric completion and consistency checks
        table: dict = {}
        for (i, j), w in given.items():
            ei, ej = (self.var_parity[self._xi_vid(n)] for n in (i, j))
            want = (ei + ej) & 1
            odd = self.layout(w.width).odd
            for k in w.nums:
                if (k & odd).bit_count() & 1 != want:
                    raise TheoryError(
                        f"bracket table entry ({i},{j}) must have parity {want}, "
                        f"found a term of parity {1 - want}")
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
            if w.nums.keys() == {0}:
                emit((vi, vj, (w.nums[0], w.den), None))
            else:
                emit((vi, vj, (1, 1), w))

    def brackets(self, xs, ys, *, max_cp=None, matter=False):
        """[[{x, y} for y in ys] for x in xs], the graded Poisson bracket of
        every pair; with max_cp, each truncated at that cp-degree without
        forming the products above it; with matter, through x's matter
        pairings only, so x = xi_alpha C^(alpha a) gives the solver's A^a y.
        Each operand is walked once for the whole call (see _brackets)."""
        return self._brackets(xs, ys, self._matter if matter else self._paired, max_cp)

    def bracket(self, x, y, *, max_cp=None):
        """Graded Poisson bracket {x, y}: brackets of one pair."""
        return self._brackets((x,), (y,), self._paired, max_cp)[0][0]

    def _brackets(self, xs, ys, paired, max_cp):
        """The table of sums of (d_r x/d v_A) w_AB (d_l y/d v_B) over the
        pairings whose v_A lies in paired, one row per x and one column
        per y, each truncated at max_cp unless it is None.

        Every operand is walked once by _pack, at one width for the whole
        call: each x gives its right derivatives by every variable of
        paired it contains, each y its left derivatives by the partners of
        the variables any x gave.  Every product term has total degree at
        most deg x + deg w + deg y less 2, w a structure function, and the
        width holds it for the largest x and y, so no product carries.
        Each structure function is packed once per call.  Each entry is
        then formed as its one-pair bracket: the pair's derivative rows,
        each pairing's dx * w, then every pairing's product in one
        _product_sum call, a constant pairing scalar scaling its rows.
        So each entry's product sums are those of its one-pair bracket,
        and a call passes the term budget exactly where one of its pairs
        alone does.  The packs live only as long as the call, and every
        result is stored at the call's width.

        Every pairing removes one factor from each side and the matter
        pairings have cp-degree 0, so the two derivatives drop at most one
        cp factor in all: a term of x above max_cp + 1 - (least cp-degree
        of y) feeds only terms above max_cp, and likewise for y.  A pair
        whose least cp-degrees already pass max_cp is zero, and the rows
        of such terms are dropped before any product."""
        for p in (*xs, *ys):
            if p.alg is not self and not self.compatible(p.alg):
                raise TheoryError(
                    "bracket arguments belong to an algebra over a different theory")
        zero = self.zero()
        live_x = [x for x in xs if x.nums]
        live_y = [y for y in ys if y.nums]
        if not live_x or not live_y:
            return [[zero] * len(ys) for _ in xs]
        need = (max(x._degree() for x in live_x) + max(y._degree() for y in live_y)
                + self._mid_degree - 2)
        width = self._width(need, *live_x, *live_y)
        lay = self.layout(width)
        info = lay.info
        packs_x = [_operand(x, lay, paired, False, max_cp) if x.nums else None
                   for x in xs]
        have = set().union(*(px[0] for px in packs_x if px))
        partners = {vb for va, vb, _, _ in self._omega if va in have}
        packs_y = [_operand(y, lay, partners, True, max_cp) if y.nums else None
                   for y in ys]
        rows_w = {}  # pairing index -> the packed rows of its structure function
        table = []
        for x, px in zip(xs, packs_x):
            row = []
            table.append(row)
            for y, py in zip(ys, packs_y):
                if px is None or py is None:
                    row.append(zero)
                    continue
                (dx, lo_x, hi_x), (dy, lo_y, hi_y) = px, py
                if max_cp is not None:
                    if lo_x + lo_y - 1 > max_cp:
                        row.append(zero)
                        continue
                    if hi_x > max_cp + 1 - lo_y:
                        dx = _drop_above(dx, max_cp + 1 - lo_y, info)
                    if hi_y > max_cp + 1 - lo_x:
                        dy = _drop_above(dy, max_cp + 1 - lo_x, info)
                work = []
                for i, (va, vb, (cn, cd), mid) in enumerate(self._omega):
                    d1, d2 = dx.get(va), dy.get(vb)
                    if d1 is None or d2 is None:
                        continue
                    l1 = x.den
                    if mid is not None:  # dx * w first, then * dy
                        if i not in rows_w:
                            rows_w[i] = _pack(keys_at(mid, width), lay)[0]
                        acc, l1 = self._product_sum(
                            [(d1, rows_w[i], x.den * mid.den, 1)], max_cp)
                        if not acc:
                            continue
                        d1 = _pack(acc, lay)[0]
                    work.append((d1, d2, l1 * y.den * cd, cn))
                acc, den = self._product_sum(work, max_cp)
                row.append(self.from_keys(acc, width, den))
        return table
