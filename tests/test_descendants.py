"""Pairing-tree combinatorics and the multi-bracket expansion."""

from fractions import Fraction

from solver_oracles import (
    boundary_seed,
    descendant_expand,
    descendant_trees,
    double_factorial,
    multi_bracket,
)
from sp2brst.solver import build_pi0, pair_bracket

# -- an independent enumeration: grow trees by attaching the next leaf to
#    every edge of every smaller tree ---------------------------------------


def _merge(a, b):
    return "(" + min(a, b) + "," + max(a, b) + ")"


def _split(tree):
    depth = 0
    for pos, ch in enumerate(tree):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 1:
            return tree[1:pos], tree[pos + 1:-1]
    raise ValueError(tree)


def _attach(tree, leaf):
    yield _merge(tree, leaf)
    if "," in tree:
        left, right = _split(tree)
        for t in _attach(left, leaf):
            yield _merge(t, right)
        for t in _attach(right, leaf):
            yield _merge(left, t)


def grown_trees(m):
    trees = {"1"}
    for leaf in range(2, m + 1):
        trees = {new for t in trees for new in _attach(t, str(leaf))}
    return trees


def test_tree_counts():
    for m in (1, 2, 3, 4, 5):
        got = descendant_trees(m)
        assert len(got) == double_factorial(2 * m - 3)
    assert double_factorial(-1) == 1
    assert double_factorial(5) == 15
    assert [double_factorial(2 * m - 3) for m in (1, 2, 3, 4, 5)] == \
        [1, 1, 3, 15, 105]


def test_trees_match_independent_enumeration():
    for m in (1, 2, 3, 4, 5, 6):
        assert descendant_trees(m) == grown_trees(m)


def test_m3_trees_explicit():
    assert descendant_trees(3) == {"((1,2),3)", "((1,3),2)", "((2,3),1)"}


def test_multi_bracket_matches_tree_sum(so3_result):
    pi0 = build_pi0(boundary_seed(so3_result.algebra), so3_result.k)
    k = so3_result.k
    for m in (1, 2, 3, 4):
        xs = [pi0] * m
        assert multi_bracket(xs, k) == descendant_expand(xs, k)


def test_multi_bracket_symmetry(so3_result):
    pi0 = build_pi0(boundary_seed(so3_result.algebra), so3_result.k)
    k = 4
    x, y, z = pi0, pi0 * Fraction(1, 2), pi0 * 3
    ref = multi_bracket([x, y, z], k)
    assert multi_bracket([z, x, y], k) == ref
    assert multi_bracket([y, z, x], k) == ref
    assert multi_bracket([x, y], k) == pair_bracket(x, y, k)
    assert multi_bracket([y, x], k) == pair_bracket(x, y, k)
    assert multi_bracket([x], k) == x


def test_multi_bracket_linearity(so3_result):
    pi0 = build_pi0(boundary_seed(so3_result.algebra), so3_result.k)
    k = 4
    lhs = multi_bracket([pi0 * 2, pi0, pi0], k)
    rhs = multi_bracket([pi0, pi0, pi0], k) * 2
    assert lhs == rhs
