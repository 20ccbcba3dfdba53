"""Reference constructions the solver is checked against.

These are the direct, unoptimised forms of the two constructions of Pi:
the multi-bracket recursion memoised on index subsets, the sum over
distinct descendant pairing trees, and the fixed-point iteration that
brackets the whole truncated Pi with itself every round.  The solver
builds the same tensors more cheaply; only tests call these.
"""

from __future__ import annotations

from itertools import combinations

from sp2brst.solver import (DEFAULT_MAX_TERMS, HALF, ConventionError, _guard,
                            build_pi0, pair_bracket)
from sp2brst.tensors import SymTensor


def multi_bracket(xs, k: int, max_terms: int = DEFAULT_MAX_TERMS) -> SymTensor:
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
            val = pair_bracket(xs[ids[0]], xs[ids[1]], k, max_terms)
        else:
            total = SymTensor.zero(xs[0].alg, 1)
            for r in range(1, len(ids)):
                for sub in combinations(ids, r):
                    rest = tuple(i for i in ids if i not in sub)
                    total = total + pair_bracket(rec(sub), rec(rest), k, max_terms)
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


def descendant_expand(xs, k: int, max_terms: int = DEFAULT_MAX_TERMS) -> SymTensor:
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
            v = pair_bracket(value(left), value(right), k, max_terms)
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
    k, budget = config.k, config.max_terms
    pi = pi0
    for _ in range(k + 1):
        nxt = (pi0 + pair_bracket(pi, pi, k, budget) * HALF).truncate_cp(k)
        if nxt == pi:
            return pi
        pi = _guard(nxt, budget)
    raise ConventionError(
        f"fixed-point iteration did not stabilise within {k} rounds")
