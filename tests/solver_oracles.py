"""Reference constructions the solver is checked against.

These are the direct, unoptimised forms of the two constructions of Pi
and of the inverse behind them: the multi-bracket recursion memoised on
index subsets, the sum over distinct descendant pairing trees, the
fixed-point iteration that brackets the whole truncated Pi with itself
every round, and the Neumann series applied to whole tensors term after
term, with the seed Upsilon - W+ F of a solve with no boundary datum.
A^a is taken as C^(alpha a) times m brackets with the generators
xi_alpha, and F from the m^2 generator brackets {xi_alpha, xi_beta}.
Below them sit the placement sum evaluated on every full index tuple, Q
with M applied three times, Q as the package's own Q step run on every
component of a tensor, the first-order pass without plans, each key
testing every source of its table, and the first-order operators
without the packed pass: each W^a and Gamma_a pass summed one derivative
and one product at a time, and from those passes M, the Gamma
contraction, W, the bar operators and W+ = Q Gamma as whole-tensor
passes with N applied and inverted term by term.  Then come the parity,
ghost number, N-degree and cp-degree of a tuple monomial, summed factor
by factor, and the sums, scalar multiples and degree and sector filters
of raw term dicts, as the algebra computed them on tuple keys before it
stored packed ones, and the derivative of a term dict with respect to
one variable, walking a reversed monomial for the right derivative (the
package forms right derivatives only inside the bracket).  At
the bottom sit the product of two monomials merged pair by pair with its
Koszul sign counted by bisection, the sum of products accumulated one
product at a time in Fraction arithmetic, and the bracket built from
those.  The solver and the algebra compute the same results more
cheaply; only tests call these.  The generators that only tests name
come first: a physical coordinate, a ghost, a Lagrange multiplier and
its momentum.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations

from sp2brst.algebra import Sector, _cp_of, _drop_above, _pack, keys_at
from sp2brst.operators import (_gamma_fields, _q_step, _w_fields, apply_M, apply_W_plus,
                               n_apply, n_inverse)
from sp2brst.solver import ConventionError, build_F, pair_bracket, projected_seed
from sp2brst.tensors import SymTensor

HALF = Fraction(1, 2)


def xip(alg, a):
    return alg.gen(alg.vid(Sector.XI_PHYS, a))


def ghost(alg, a, i):
    return alg.gen(alg.vid(Sector.GHOST, a, i))


def lagrange(alg, a):
    return alg.gen(alg.vid(Sector.LAGRANGE, a))


def lagrange_mom(alg, a):
    return alg.gen(alg.vid(Sector.LAGRANGE_MOM, a))


def boundary_seed(alg) -> SymTensor:
    """Upsilon - W+ F with Upsilon = 0: the seed of Pi_0 and of the fixed
    point when the solve has no boundary datum."""
    return projected_seed(SymTensor.zero(alg, 1), build_F(alg))


def a_component_by_brackets(p, a: int):
    """A^a p = C^(alpha a) {xi_alpha, p}': one full bracket and one
    product per constraint."""
    alg = p.alg
    out = alg.zero()
    for r in range(1, alg.m + 1):
        w = alg.bracket(alg.xi(r), p)
        if w:
            out = out + alg.mul(ghost(alg, r, a), w)
    return out


def build_F_by_brackets(alg) -> SymTensor:
    """F^ab = C^(alpha a) {xi_alpha, xi_beta}' C^(beta b): one generator
    bracket and two products per (alpha, beta), checked symmetric by
    from_full."""

    def comp(idx):
        a, b = idx
        out = alg.zero()
        for al in range(1, alg.m + 1):
            for be in range(1, alg.m + 1):
                w = alg.bracket(alg.xi(al), alg.xi(be))
                if w:
                    out = out + alg.mul(alg.mul(ghost(alg, al, a), w), ghost(alg, be, b))
        return out

    return SymTensor.from_full(alg, 2, comp)


def placement_sum_by_tuples(t: SymTensor, fn) -> SymTensor:
    """Rank n -> n+1: out^(a0..an) = sum_j fn(t^(rest_j), aj), evaluated
    for every full index tuple and position and checked symmetric by
    from_full."""
    zero = t.alg.zero()

    def comp(idx):
        out = zero
        for j in range(len(idx)):
            out = out + fn(t.get(idx[:j] + idx[j + 1:]), idx[j])
        return out

    return SymTensor.from_full(t.alg, t.rank + 1, comp)


def apply_N_inverse(t: SymTensor, power=1) -> SymTensor:
    """N^-power per component, term by term."""
    return t.map(lambda p: n_inverse(p, power))


def apply_Q_three_m(t: SymTensor) -> SymTensor:
    """Q term by term as its closed form reads, M applied three times:
    rank 0 (1/6) (11 N^-1 - 6 M N^-2 + M^2 N^-3), rank n >= 1
    (1/n) N^-1 - (1/(n(n+1)(n+2))) ((n+3) M N^-2 - M^2 N^-3)."""
    n = t.rank
    p2 = apply_M(apply_N_inverse(t, 2))
    p3 = apply_M(apply_M(apply_N_inverse(t, 3)))
    if n == 0:
        return apply_N_inverse(t, 1) * Fraction(11, 6) - p2 + p3 * Fraction(1, 6)
    c = Fraction(1, n * (n + 1) * (n + 2))
    return apply_N_inverse(t, 1) * Fraction(1, n) - p2 * (c * (n + 3)) + p3 * c


def apply_Q(t: SymTensor) -> SymTensor:
    """Q per component, each component through the Q step of
    apply_W_plus at the component's own width."""
    out = SymTensor(t.alg, t.rank)
    for idx, p in t.comps.items():
        q = _q_step(t.rank, p)
        if q:
            out.comps[idx] = q
    return out


def replace_sum_by_sources(alg, nums, table, out):
    """Algebra.replace_sum without plans: every key tests every source of
    table (a _ReplaceTable) and counts each Koszul sign itself.  For each
    source the exponent is (key >> shift) & mask; one power leaves the
    key, with the sign of the odd fields below an odd source.  Each
    destination's unit key then enters, with the sign of the odd fields
    below an odd destination: an odd destination already present kills
    the term, an even one gains a power.  Keys enter and leave out as in
    the pass, and out is checked against the term budget when the pass
    ends."""
    mask, sources = table.mask, table.sources
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
    alg.check_budget(out)
    return out


def replace_by_derivatives(p, fields):
    """sum coeff * dst * (left derivative of p by src) over the (src, dst,
    coeff) triples of fields, one derivative and one product at a time
    (derive_left, mul), with no packed pass.  The sum is checked against
    the term budget once, when it is complete, as a pass of replace_sum
    is."""
    alg = p.alg
    out: dict = {}
    for src, dst, coeff in fields:
        term = alg.mul(alg.gen(dst), alg.derive_left(p, (src,))[0]) * Fraction(coeff)
        for m, c in term.terms.items():
            c += out.pop(m, 0)
            if c:
                out[m] = c
    alg.check_budget(out)
    return alg.poly(out)


def w_by_derivatives(p, a):
    """W^a p by replace_by_derivatives."""
    return replace_by_derivatives(p, _w_fields(p.alg, a))


def gamma_by_derivatives(p, a):
    """Gamma_a p by replace_by_derivatives."""
    return replace_by_derivatives(p, _gamma_fields(p.alg, a))


def m_by_passes(p):
    """M = sum_a Gamma_a W^a, one derivative-by-derivative pass per
    operator."""
    out = p.alg.zero()
    for a in (1, 2):
        out = out + gamma_by_derivatives(w_by_derivatives(p, a), a)
    return out


def gamma_by_passes(t: SymTensor) -> SymTensor:
    """The Gamma contraction, one derivative-by-derivative pass per index
    value."""
    out = SymTensor(t.alg, t.rank - 1)
    for idx in out.indices():
        p = t.alg.zero()
        for a in (1, 2):
            p = p + gamma_by_derivatives(t.get(idx + (a,)), a)
        if p:
            out.comps[idx] = p
    return out


def apply_W_by_passes(t: SymTensor) -> SymTensor:
    """W as SymTensor.placement_sum of derivative-by-derivative passes."""
    return t.placement_sum(w_by_derivatives)


def bar_w_by_passes(p):
    """barW = W^2 W^1 - W^1 W^2, four derivative-by-derivative passes."""
    w = w_by_derivatives
    return w(w(p, 1), 2) - w(w(p, 2), 1)


def bar_gamma_by_passes(p):
    """barGamma = Gamma_1 Gamma_2 - Gamma_2 Gamma_1, four
    derivative-by-derivative passes."""
    g = gamma_by_derivatives
    return g(g(p, 2), 1) - g(g(p, 1), 2)


def apply_Q_by_passes(t: SymTensor) -> SymTensor:
    """Q with M applied twice, one whole-tensor pass at a time: U = N^-3 X,
    then N^2 U, N (M U) and M (M U), scaled by the rank coefficients and
    added as tensors.  The term budget checks every pass and both sums."""
    n = t.rank
    u = t.map(lambda p: n_inverse(p, 3))
    mu = u.map(m_by_passes)
    p1 = u.map(lambda p: n_apply(n_apply(p)))
    p2 = mu.map(n_apply)
    p3 = mu.map(m_by_passes)
    if n == 0:
        return p1 * Fraction(11, 6) - p2 + p3 * Fraction(1, 6)
    c = Fraction(1, n * (n + 1) * (n + 2))
    return p1 * Fraction(1, n) - p2 * (c * (n + 3)) + p3 * c


def apply_W_plus_by_passes(t: SymTensor) -> SymTensor:
    """W+ = Q Gamma as passes: gamma_by_passes, then apply_Q_by_passes."""
    if t.rank == 0:
        return SymTensor.zero(t.alg, 0)
    return apply_Q_by_passes(gamma_by_passes(t))


def multi_bracket(xs, k: int) -> SymTensor:
    """<X_1, ..., X_m>: <X> = X, <X_1,X_2> = pair_bracket, and for m >= 3

        <X_1..X_m> = 1/2 sum over proper nonempty subsets S of
                     < <X_S>, <X_complement> >,

    which counts every unordered split twice, hence the 1/2.  The result is
    m-linear and fully symmetric."""
    xs = list(xs)
    if not xs:
        raise ValueError("multi_bracket needs at least one argument")
    cache: dict = {}

    def rec(ids):
        if ids in cache:
            return cache[ids]
        if len(ids) == 1:
            val = xs[ids[0]]
        elif len(ids) == 2:
            val = pair_bracket(xs[ids[0]], xs[ids[1]], k)
        else:
            total = SymTensor.zero(xs[0].alg, 1)
            for r in range(1, len(ids)):
                for sub in combinations(ids, r):
                    rest = tuple(i for i in ids if i not in sub)
                    total = total + pair_bracket(rec(sub), rec(rest), k)
            val = total * HALF
        cache[ids] = val
        return val

    return rec(tuple(range(len(xs))))


def _merge_trees(a: str, b: str) -> str:
    return "(" + min(a, b) + "," + max(a, b) + ")"


def descendant_trees(m: int):
    """All structurally distinct full pairing trees over leaves 1..m, as
    canonical strings; there are (2m-3)!! of them."""
    if m < 1:
        raise ValueError("need at least one leaf")
    results = set()
    seen = set()

    def rec(state):
        if len(state) == 1:
            results.add(state[0])
            return
        if state in seen:
            return
        seen.add(state)
        for i in range(len(state)):
            for j in range(i + 1, len(state)):
                rest = [state[p] for p in range(len(state)) if p not in (i, j)]
                rest.append(_merge_trees(state[i], state[j]))
                rec(tuple(sorted(rest)))

    rec(tuple(sorted(str(i) for i in range(1, m + 1))))
    return results


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _split_tree(tree: str):
    depth = 0
    for pos, ch in enumerate(tree):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 1:
            return tree[1:pos], tree[pos + 1:-1]
    raise ValueError(f"malformed tree {tree!r}")


def descendant_expand(xs, k: int) -> SymTensor:
    """Cross-check path for multi_bracket: the sum of all distinct
    descendants (fully reduced pairing trees) of (X_1, ..., X_m)."""
    xs = list(xs)
    if not xs:
        raise ValueError("descendant_expand needs at least one argument")
    vals: dict = {}

    def value(tree):
        if tree in vals:
            return vals[tree]
        if "," not in tree:
            v = xs[int(tree) - 1]
        else:
            left, right = _split_tree(tree)
            v = pair_bracket(value(left), value(right), k)
        vals[tree] = v
        return v

    total = SymTensor.zero(xs[0].alg, 1)
    for tree in sorted(descendant_trees(len(xs))):
        total = total + value(tree)
    return total


def fixed_point_by_rounds(pi0: SymTensor, k: int) -> SymTensor:
    """Iterate Pi <- Pi_0 + 1/2 <Pi, Pi> from Pi_0 until the iterate,
    truncated at cp-degree k, repeats; the degree-d part freezes after at
    most d-1 rounds."""
    pi = pi0
    for _ in range(k + 1):
        nxt = (pi0 + pair_bracket(pi, pi, k) * HALF).truncate_cp(k)
        if nxt == pi:
            return pi
        pi = nxt
    raise ConventionError(
        f"fixed-point iteration did not stabilise within {k} rounds")


def neumann_by_terms(op, x: SymTensor, k: int) -> SymTensor:
    """(I + W+ op)^-1 x = sum_m (-1)^m (W+ op)^m x, each term computed on
    the whole previous term; a term that fails to raise the minimum
    cp-degree raises ConventionError."""
    total = x.truncate_cp(k)
    term = total
    while term:
        floor = term.min_cp()
        term = -apply_W_plus(op(term)).truncate_cp(k)
        if term:
            ceil = term.min_cp()
            if floor is None or ceil <= floor:
                raise ConventionError(
                    f"Neumann term failed to raise cp-degree ({floor} -> {ceil})")
        total = total + term
    return total


def term_parity(alg, mono):
    """The parity of a tuple monomial, summed factor by factor."""
    return sum(alg.var_parity[v] * e for v, e in mono) & 1


def term_ngh(alg, mono):
    """The ghost number of a tuple monomial, summed factor by factor."""
    return sum(alg.vars[v].ngh * e for v, e in mono)


def term_ndeg(alg, mono):
    """The N-degree of a tuple monomial, summed factor by factor."""
    return sum(alg.var_nwt[v] * e for v, e in mono)


def term_cpdeg(alg, mono):
    """The cp-degree of a tuple monomial, summed factor by factor."""
    return sum(alg.var_cpwt[v] * e for v, e in mono)


def add_terms(alg, t1, t2, sign=1):
    """t1 + sign * t2 on raw term dicts in Fraction arithmetic: t1's
    monomials in order, then each monomial of t2 new to the sum at the
    end, a repeated one added to and dropped when it cancels.  The sum is
    checked against the term budget once, when it is complete."""
    out = dict(t1)
    for m, c in t2.items():
        c *= sign
        old = out.get(m)
        if old is None:
            out[m] = c
            continue
        c += old
        if c:
            out[m] = c
        else:
            del out[m]
    alg.check_budget(out)
    return out


def scale_terms(terms, c):
    """c * terms, term by term."""
    return {m: v * c for m, v in terms.items()} if c else {}


def cp_select_terms(alg, terms, keep):
    """The terms whose cp-degree, summed factor by factor, satisfies keep."""
    return {m: c for m, c in terms.items() if keep(term_cpdeg(alg, m))}


def substitute_zero_terms(alg, terms, sectors):
    """The terms holding no variable of the given sectors."""
    sec = alg.var_sector
    wanted = set(sectors)
    return {m: c for m, c in terms.items() if not any(sec[v] in wanted for v, _ in m)}


def n_apply_terms(alg, terms):
    """N term by term: each term times its N-degree, zero ones dropped."""
    out = {}
    for m, c in terms.items():
        d = term_ndeg(alg, m)
        if d:
            out[m] = c * d
    return out


def n_inverse_terms(alg, terms, power=1):
    """N^-power term by term; a term of N-degree 0 raises
    ZeroDivisionError."""
    return {m: c / term_ndeg(alg, m) ** power for m, c in terms.items()}


def derive_right(p, vid):
    """The right derivative of p by vid, by derive_terms."""
    return p.alg.poly(derive_terms(p.alg, p.terms, vid, False))


def derive_terms(alg, terms, vid, left):
    """Left or right derivative of a raw term dict with respect to vid."""
    par = alg.var_parity
    pv = par[vid]
    out: dict = {}
    for mono, coeff in terms.items():
        seq = mono if left else tuple(reversed(mono))
        side = 0
        for pos, (v, e) in enumerate(seq):
            if v == vid:
                c = coeff * e
                if pv and (side & 1):
                    c = -c
                if e == 1:
                    new = mono[:pos] + mono[pos + 1:] if left else \
                        mono[:len(mono) - 1 - pos] + mono[len(mono) - pos:]
                else:
                    idx = pos if left else len(mono) - 1 - pos
                    new = mono[:idx] + ((v, e - 1),) + mono[idx + 1:]
                acc = out.get(new)
                if acc is None:
                    out[new] = c
                else:
                    acc += c
                    if acc:
                        out[new] = acc
                    else:
                        del out[new]
                break
            side += par[v] * e
    return out


def mul_terms(alg, m1, m2):
    """Merge two normal-ordered monomials.

    Returns (sign, monomial) or None when an odd variable collides.  The
    sign counts inversions between odd factors of m1 and of m2 (merging
    two sorted sequences, only cross pairs can be out of order)."""
    if not m1:
        return 1, m2
    if not m2:
        return 1, m1
    par = alg.var_parity
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


def mul_sum(alg, pairs, max_cp=None):
    """sum t1 t2 over (t1, t2) pairs of raw term dicts, one merged product
    added at a time, dropping the monomials that cancel; with max_cp, only
    the pairs of terms whose cp-degrees sum to at most max_cp, each term of
    t1 meeting the terms of t2 in order of cp-degree.  The result is
    checked against the algebra's term budget after each term of each t1."""
    out: dict = {}
    for t1, t2 in pairs:
        second = list(t2.items())
        if max_cp is not None:
            second.sort(key=lambda term: term_cpdeg(alg, term[0]))
        for m1, c1 in t1.items():
            for m2, c2 in second:
                if max_cp is not None and term_cpdeg(alg, m1) + term_cpdeg(alg, m2) > max_cp:
                    continue
                r = mul_terms(alg, m1, m2)
                if r is None:
                    continue
                s, m = r
                c = out.get(m, Fraction(0)) + (c1 * c2 if s > 0 else -c1 * c2)
                if c:
                    out[m] = c
                else:
                    del out[m]
            alg.check_budget(out)
    return out


def bracket_by_merges(alg, x, y, max_cp=None):
    """{x, y}: for every entry (va, vb, (cn, cd), w) of the pairing table,
    the right derivative of x by va (times w, then cn/cd) times the left
    derivative of y by vb, through mul_sum, all in one sum."""
    pairs = []
    for va, vb, (cn, cd), mid in alg._omega:
        d1 = derive_terms(alg, x.terms, va, False)
        d2 = derive_terms(alg, y.terms, vb, True)
        if not d1 or not d2:
            continue
        if mid is not None:
            d1 = mul_sum(alg, [(d1, mid.terms)], max_cp)
        pairs.append(({m: c * Fraction(cn, cd) for m, c in d1.items()}, d2))
    return mul_sum(alg, pairs, max_cp)


def bracket_per_pair(alg, x, y, paired=None, max_cp=None):
    """{x, y} through the pairings whose v_A lies in paired (all of them
    by default), truncated at max_cp unless it is None, packed for this
    pair alone: x and y are each walked by _pack at the width this pair
    needs, x by every variable of paired and y by the partners of those
    x contains, the rows above what max_cp can use are dropped, each
    pairing's dx is multiplied by its structure function, and every
    pairing's product goes into one _product_sum call."""
    if paired is None:
        paired = alg._paired
    if not x.nums or not y.nums:
        return alg.zero()
    need = x._degree() + y._degree() + alg._mid_degree - 2
    width = alg._width(need, x, y)
    lay = alg.layout(width)
    info = lay.info
    lx, ly = x.den, y.den
    rows_x, dx = _pack(keys_at(x, width), lay, paired, False)
    rows_y, dy = _pack(
        keys_at(y, width), lay, {vb for va, vb, _, _ in alg._omega if va in dx}, True)
    if max_cp is not None:
        lo_x = min(map(_cp_of, rows_x))
        lo_y = min(map(_cp_of, rows_y))
        if lo_x + lo_y - 1 > max_cp:
            return alg.zero()
        if max(map(_cp_of, rows_x)) > max_cp + 1 - lo_y:
            dx = _drop_above(dx, max_cp + 1 - lo_y, info)
        if max(map(_cp_of, rows_y)) > max_cp + 1 - lo_x:
            dy = _drop_above(dy, max_cp + 1 - lo_x, info)
    work = []
    for va, vb, (cn, cd), mid in alg._omega:
        d1, d2 = dx.get(va), dy.get(vb)
        if d1 is None or d2 is None:
            continue
        l1 = lx
        if mid is not None:  # dx * w first, then * dy
            rows_w = _pack(keys_at(mid, width), lay)[0]
            acc, l1 = alg._product_sum([(d1, rows_w, lx * mid.den, 1)], max_cp)
            if not acc:
                continue
            d1 = _pack(acc, lay)[0]
        work.append((d1, d2, l1 * ly * cd, cn))
    acc, den = alg._product_sum(work, max_cp)
    return alg.from_keys(acc, width, den)
