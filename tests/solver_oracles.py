"""Reference constructions the solver is checked against.

These are the direct, unoptimised forms of the two constructions of Pi
and of the inverse behind them: the multi-bracket recursion memoised on
index subsets, the sum over distinct descendant pairing trees, the
fixed-point iteration that brackets the whole truncated Pi with itself
every round, and the Neumann series applied to whole tensors term after
term.  Below them sit the placement sum evaluated on every full index
tuple, Q with M applied three times, and the derivative of a term dict
with respect to one variable, walking a reversed monomial for the right
derivative.  At the bottom sit the product of two monomials merged pair
by pair with its Koszul sign counted by bisection, the sum of products
accumulated one product at a time in Fraction arithmetic, and the bracket
built from those.  The solver and the algebra compute the same results
more cheaply; only tests call these.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations

from sp2brst.operators import apply_M, apply_N_inverse, apply_W_plus
from sp2brst.solver import HALF, ConventionError, build_pi0, pair_bracket
from sp2brst.tensors import SymTensor


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


def fixed_point_by_rounds(alg, config, pi0: SymTensor | None = None) -> SymTensor:
    """Iterate Pi <- Pi_0 + 1/2 <Pi, Pi> from Pi_0 until the truncated
    iterate repeats; the degree-d part freezes after at most d-1 rounds."""
    if pi0 is None:
        pi0 = build_pi0(alg, config)
    k = config.k
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
    cp = alg.term_cpdeg
    out: dict = {}
    for t1, t2 in pairs:
        second = list(t2.items())
        if max_cp is not None:
            second.sort(key=lambda term: cp(term[0]))
        for m1, c1 in t1.items():
            for m2, c2 in second:
                if max_cp is not None and cp(m1) + cp(m2) > max_cp:
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
            alg._check_budget(out)
    return out


def bracket_by_merges(alg, x, y, max_cp=None):
    """{x, y}: for every entry (va, vb, c0, w) of the pairing table, the
    right derivative of x by va (times w, then c0) times the left
    derivative of y by vb, through mul_sum, all in one sum."""
    pairs = []
    for va, vb, c0, mid in alg._omega:
        d1 = derive_terms(alg, x.terms, va, False)
        d2 = derive_terms(alg, y.terms, vb, True)
        if not d1 or not d2:
            continue
        if mid is not None:
            d1 = mul_sum(alg, [(d1, mid)], max_cp)
        pairs.append(({m: c * c0 for m, c in d1.items()}, d2))
    return mul_sum(alg, pairs, max_cp)
