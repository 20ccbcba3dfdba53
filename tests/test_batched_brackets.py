"""Algebra.brackets, the batched bracket, against the per-pair oracle.

The batched call forms every entry as its one-pair bracket and shares
only the operand walks and the structure-function packs.  On the
generated theories of test_generated_theories, every entry of a brackets
table must therefore equal bracket_per_pair, the bracket packed for its
pair alone, term for term and in the same term order: with and without
max_cp, with operands stored at field widths 4 and 5 and of different
least cp-degrees, with zero operands among them, through the matter
pairings only, and in the fixed point's call, tensor_brackets of a part
of Pi with itself and every lower part.  A and F, which bracket with the
constraint half Xi through the matter pairings, must equal one per-pair
bracket per (component, index) placement, and A, F and the first-class
check must each make one batched call.  Since each entry's product sums
are those of its one-pair bracket, under a tight term budget a call must
raise exactly where one of its pairs alone raises.  The Jacobi check,
two batched calls, must report the defects that two brackets per cyclic
term give.
"""

from functools import partial
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bundled
from solver_oracles import (bracket_per_pair, boundary_seed, build_F_by_brackets, ghost,
                            placement_sum_by_tuples)
from test_generated_theories import deformed_so3, direct_sums, mixed2

from sp2brst.algebra import Algebra, TermBudgetError, keys_at
from sp2brst.identities import random_element
from sp2brst.observables import NotFirstClassError, check_first_class
from sp2brst.solver import (apply_A, build_F, constraint_half, solve_pi_fixed_point,
                            tensor_brackets)
from sp2brst.tensors import SymTensor
from sp2brst.theory import MAX_REPORT, TheorySpec, jacobi_violations

THEORIES = st.one_of(direct_sums(), deformed_so3(), mixed2())
# the field width an operand is stored at; 0 draws the zero polynomial
WIDTHS = st.lists(st.sampled_from((4, 5, 0)), min_size=1, max_size=4)
MAX_CP = st.one_of(st.none(), st.integers(0, 6))


def items(p):
    return list(p.terms.items())


def _operands(alg, rng, widths):
    """One operand per width: the sum of two random elements, times 0 to
    2 ghosts so that the least cp-degrees of the operands differ, stored
    at that width; or zero for width 0."""
    out = []
    for width in widths:
        if not width:
            out.append(alg.zero())
            continue
        p = random_element(alg, rng) + random_element(alg, rng)
        for i in range(rng.randint(0, 2)):
            p = p * ghost(alg, 1, i + 1)
        out.append(alg.from_keys(keys_at(p, width), width, p.den))
    return out


def _table(alg, xs, ys, paired, max_cp):
    return [[items(bracket_per_pair(alg, x, y, paired, max_cp)) for y in ys] for x in xs]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(spec=THEORIES, seed=st.integers(0, 2 ** 32), wx=WIDTHS, wy=WIDTHS, max_cp=MAX_CP)
def test_brackets_match_per_pair(spec, seed, wx, wy, max_cp):
    alg = Algebra(spec)
    rng = Random(seed)
    xs, ys = _operands(alg, rng, wx), _operands(alg, rng, wy)
    got = alg.brackets(xs, ys, max_cp=max_cp)
    assert [[items(p) for p in row] for row in got] == _table(alg, xs, ys, None, max_cp)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(spec=THEORIES, seed=st.integers(0, 2 ** 32), wx=WIDTHS, wy=WIDTHS, max_cp=MAX_CP)
def test_matter_brackets_match_per_pair(spec, seed, wx, wy, max_cp):
    alg = Algebra(spec)
    rng = Random(seed)
    xs, ys = _operands(alg, rng, wx), _operands(alg, rng, wy)
    got = alg.brackets(xs, ys, max_cp=max_cp, matter=True)
    assert [[items(p) for p in row] for row in got] == _table(alg, xs, ys, alg._matter, max_cp)


def _tensor(alg, rng, rank):
    """A rank-n tensor of random elements, about one component in five
    zero."""
    return SymTensor(alg, rank, {
        idx: random_element(alg, rng) if rng.random() < 0.8 else alg.zero()
        for idx in SymTensor(alg, rank).indices()})


def _comps(t):
    return {key: items(p) for key, p in t.comps.items()}


@settings(derandomize=True, deadline=None, max_examples=20)
@given(spec=THEORIES, seed=st.integers(0, 2 ** 32), rank=st.integers(0, 2))
def test_apply_a_matches_per_pair_placements(spec, seed, rank):
    # one matter table for the tensor, against one matter bracket of Xi^a
    # per (component, index) placement, each packed for its pair alone
    alg = Algebra(spec)
    t = _tensor(alg, Random(seed), rank)
    xi = constraint_half(alg)
    want = t.placement_sum(lambda p, a: bracket_per_pair(alg, xi.get((a,)), p, alg._matter))
    assert _comps(apply_A(t)) == _comps(want)
    assert apply_A(t) == placement_sum_by_tuples(
        t, lambda p, a: bracket_per_pair(alg, xi.get((a,)), p, alg._matter))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(spec=THEORIES)
def test_build_f_matches_per_pair(spec):
    alg = Algebra(spec)
    xi = constraint_half(alg)
    want = SymTensor.from_full(alg, 2, lambda idx: bracket_per_pair(
        alg, xi.get((idx[0],)), xi.get((idx[1],)), alg._matter))
    assert _comps(build_F(alg)) == _comps(want)
    assert build_F(alg) == build_F_by_brackets(alg)


def test_a_f_and_first_class_check_make_one_kernel_call(monkeypatch):
    alg = bundled("so3-deformed")
    calls = []
    real = Algebra._brackets

    def counted(self, xs, ys, paired, max_cp):
        calls.append((len(xs), len(ys), paired))
        return real(self, xs, ys, paired, max_cp)

    monkeypatch.setattr(Algebra, "_brackets", counted)
    rng = Random(3)
    t = SymTensor(alg, 2, {idx: random_element(alg, rng) for idx in ((1, 1), (1, 2), (2, 2))})
    apply_A(t)
    assert calls == [(2, 3, alg._matter)]  # Xi^1, Xi^2 against t's 3 components
    calls.clear()
    build_F(alg)
    assert calls == [(2, 2, alg._matter)]
    calls.clear()
    check_first_class(alg.xi(2) ** 2, alg)
    assert calls == [(1, 3, alg._paired)]


def test_first_class_check_reports_the_first_failing_alpha():
    # {q1, xi_1} = -xi_1 lies in the ideal and {q1, xi_2} = -1 does not;
    # q2 fails at both constraints and is reported at the first
    spec = TheorySpec((0, 0), (0, 0), mixed_table={
        (1, 3): "xi[1]", (2, 3): "1", (1, 4): "1", (2, 4): "1"})
    alg = Algebra(spec)
    q1, q2 = (alg.gen(alg._xi_vid(i)) for i in (3, 4))
    for q, alpha in ((q1, 2), (q2, 1)):
        with pytest.raises(NotFirstClassError) as err:
            check_first_class(q)
        assert (err.value.alpha, err.value.remainder) == (alpha, alg.scalar(-1))
    check_first_class(alg.xi(1))


def _per_pair_or_error(alg, x, y, max_cp):
    try:
        return items(bracket_per_pair(alg, x, y, None, max_cp))
    except TermBudgetError:
        return None


@settings(derandomize=True, deadline=None, max_examples=40)
@given(spec=THEORIES, seed=st.integers(0, 2 ** 32), wx=WIDTHS, wy=WIDTHS,
       max_cp=MAX_CP, budget=st.integers(1, 60))
def test_brackets_pass_the_term_budget_where_a_pair_does(spec, seed, wx, wy, max_cp, budget):
    # under a tight budget the call raises exactly when some pair, packed
    # alone, raises; otherwise every entry is that pair's bracket
    rng = Random(seed)
    xs, ys = _operands(Algebra(spec), rng, wx), _operands(Algebra(spec), rng, wy)
    alg = Algebra(spec, max_terms=budget)
    want = [[_per_pair_or_error(alg, x, y, max_cp) for y in ys] for x in xs]
    try:
        got = alg.brackets(xs, ys, max_cp=max_cp)
    except TermBudgetError:
        assert any(None in row for row in want)
    else:
        assert [[items(p) for p in row] for row in got] == want


def test_structure_products_keep_the_term_budget():
    # x = xi_1 (1 + G), G holding 60 terms of cp-degree 2, against
    # y = xi_2 C C at max_cp 2: y keeps only the row of dx from xi_1, so
    # dx * w has 2 terms, not the 77 that every row of dx gives; a ghost,
    # which meets no structure function, must not widen the rows
    alg = bundled("so3-deformed")
    c = partial(ghost, alg)
    ghosts = [c(a, i) for a in (1, 2, 3) for i in (1, 2)]
    g = sum((ghosts[i] * ghosts[j] for i in range(6) for j in range(i + 1, 6)), alg.zero())
    x = alg.xi(1) * (1 + g * (1 + alg.xi(2) + alg.xi(2) ** 2 + alg.xi(2) ** 3))
    y = alg.xi(2) * c(1, 1) * c(1, 2)
    tight = bundled("so3-deformed", max_terms=40)
    want = bracket_per_pair(tight, x, y, None, 2)
    assert want and tight.bracket(x, y, max_cp=2) == want
    assert tight.brackets([x], [y, c(2, 1)], max_cp=2) == [[want, tight.zero()]]
    with pytest.raises(TermBudgetError):
        tight.brackets([x], [y, alg.xi(2)], max_cp=2)
    with pytest.raises(TermBudgetError):
        bracket_per_pair(tight, x, alg.xi(2), None, 2)


def test_zero_operands_and_empty_lists():
    alg = bundled("so3")
    zero = alg.zero()
    assert alg.brackets([zero, zero], [alg.xi(1), zero]) == [[zero, zero], [zero, zero]]
    assert alg.brackets([], [alg.xi(1)]) == []
    assert alg.brackets([alg.xi(1)], []) == [[]]


def test_structure_products_are_formed_for_every_y():
    # each pair forms its own dx * w; a y of high least cp-degree drops
    # the x terms it cannot use, and the next y still meets them
    alg = bundled("so3")
    c = partial(ghost, alg)
    x = alg.xi(1) * c(1, 1) * c(1, 2) * c(2, 1) + alg.xi(1)
    ys = [alg.xi(2) * c(3, 1) * c(3, 2), alg.xi(2)]
    got = alg.brackets([x], ys, max_cp=3)
    want = [[bracket_per_pair(alg, x, y, None, 3) for y in ys]]
    assert got == want
    assert got[0][1].min_cp() == 0 and got[0][1].cp_part(3)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(spec=THEORIES, k=st.integers(3, 5))
def test_fixed_point_call_matches_per_pair(spec, k):
    alg = Algebra(spec)
    pi = solve_pi_fixed_point(boundary_seed(alg), k)
    lower = []
    for d in range(2, k + 1):
        part = pi.cp_part(d)
        if not part:
            continue
        got = tensor_brackets(part, [part, *lower], k)
        want = [placement_sum_by_tuples(
            y, lambda p, a: bracket_per_pair(alg, part.get((a,)), p, None, k))
            for y in [part, *lower]]
        assert got == want
        lower.append(part)


def _jacobi_per_triple(alg):
    """jacobi_violations as two brackets per cyclic term, each packed for
    its pair alone."""
    n = alg.m + alg.n_physical
    gens = [alg.gen(alg._xi_vid(i + 1)) for i in range(n)]
    eps = [alg.var_parity[alg._xi_vid(i + 1)] for i in range(n)]
    bad = []
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                defect = alg.zero()
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = bracket_per_pair(alg, gens[b], gens[c])
                    term = bracket_per_pair(alg, gens[a], inner)
                    defect = defect + (-term if eps[a] & eps[c] else term)
                if defect:
                    bad.append((i + 1, j + 1, k + 1, defect))
    return bad[:MAX_REPORT]


@settings(derandomize=True, deadline=None, max_examples=20)
@given(spec=THEORIES)
def test_jacobi_check_matches_per_triple(spec):
    alg = Algebra(spec)
    assert jacobi_violations(alg) == _jacobi_per_triple(alg) == []


def test_jacobi_defects_match_per_triple():
    # U_123 deformed by xi_1 and U_231 by xi_2, and an odd fourth
    # constraint with {xi_4, xi_4} = xi_3 and {xi_1, xi_4} = xi_4: five
    # triples fail, four of them with the odd constraint
    spec = TheorySpec((0, 0, 0, 1), u_table={
        (1, 2, 3): "1 + xi[1]", (2, 3, 1): "xi[2]", (3, 1, 2): "1",
        (4, 4, 3): "1", (1, 4, 4): "1"})
    alg = Algebra(spec)
    got = jacobi_violations(alg)
    assert [t[:3] for t in got] == [(1, 2, 3), (1, 2, 4), (1, 4, 4), (2, 3, 4), (2, 4, 4)]
    assert got == _jacobi_per_triple(alg)
