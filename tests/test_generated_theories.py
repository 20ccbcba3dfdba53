"""The pipeline on generated theories that satisfy the Jacobi identity.

Three families, each relabelled by a drawn permutation of the
constraints: direct sums of so(3), Heisenberg ({xi_1, xi_2} = xi_3, xi_3
central) and abelian blocks; so(3) whose entry with output xi_j is
scaled by a polynomial of degree <= 2 in xi_j alone (deformed_so3_spec
is one of them), alone or beside one abelian constraint; and the mixed2
family of one even constraint B and one odd F with {F, F} = f(B) B, f of
degree <= 2 (mixed_parity_spec is one of them).  On each, solve with
both methods must verify, F and A must equal their generator-bracket
oracles (A on Pi_0), the fixed point's seed Upsilon - W+ F must be
what (I + W+ A) gives back from Pi_0, and the charges at order k must be
those at order k + 1 truncated.  The charge document must round-trip:
read back with load_omega, it passes the checks of the verify command,
and a copy with Omega^1 doubled fails them.
"""

from hypothesis import given, settings, strategies as st

from solver_oracles import (a_component_by_brackets, build_F_by_brackets,
                            placement_sum_by_tuples)

import sp2brst.solver as solver_mod
from sp2brst import expr
from sp2brst.algebra import Algebra
from sp2brst.operators import apply_W_plus
from sp2brst.solver import (Method, apply_A, build_pi0, solve,
                            solve_pi_fixed_point, verify_master)
from sp2brst.theory import TheorySpec, deformed_so3_spec, jacobi_violations
from sp2brst.theoryfile import dump_document, load_omega, omega_document

# each block: its size and its structure table {(a, b, g): U_abg} over
# local indices; an abelian block has one constraint of either parity
SO3 = {(1, 2, 3): "1", (2, 3, 1): "1", (3, 1, 2): "1"}
HEISENBERG = {(1, 2, 3): "1"}
ORDERS = st.integers(2, 4)
COEFFS = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def _relabel(tables: list, parities: tuple, perm: list) -> TheorySpec:
    """The direct sum of the blocks' tables, constraint i renamed perm[i - 1]."""
    u = {}
    offset = 0
    for table, size in tables:
        def name(i):
            return perm[offset + i - 1]

        for (a, b, g), text in table.items():
            for i in range(1, size + 1):
                text = text.replace(f"xi[{i}]", f"xi[@{name(i)}]")
            u[(name(a), name(b), name(g))] = text.replace("@", "")
        offset += size
    relabelled = [0] * len(parities)
    for i, p in enumerate(parities):
        relabelled[perm[i] - 1] = p
    return TheorySpec(tuple(relabelled), u_table=u, label="generated")


@st.composite
def direct_sums(draw):
    big = draw(st.sampled_from(((), (SO3,), (HEISENBERG,))))
    n_abelian = draw(st.integers(0 if big else 1, 4 - 3 * len(big)))
    parities = (0,) * 3 * len(big) + tuple(
        draw(st.lists(st.integers(0, 1), min_size=n_abelian, max_size=n_abelian)))
    tables = [(t, 3) for t in big] + [({}, 1)] * n_abelian
    perm = draw(st.permutations(range(1, len(parities) + 1)))
    return _relabel(tables, parities, perm)


@st.composite
def deformed_so3(draw):
    j = draw(st.integers(1, 3))
    c0, c1, c2 = (draw(COEFFS) for _ in range(3))
    scale = f"({c0}) + ({c1})*xi[{j}] + ({c2})*xi[{j}]^2"
    table = {key: scale if key[2] == j else text for key, text in SO3.items()}
    n_abelian = draw(st.integers(0, 1))
    perm = draw(st.permutations(range(1, 4 + n_abelian)))
    return _relabel([(table, 3)] + [({}, 1)] * n_abelian, (0,) * (3 + n_abelian), perm)


@st.composite
def mixed2(draw):
    c0, c1, c2 = (draw(COEFFS) for _ in range(3))
    table = {(2, 2, 1): f"({c0}) + ({c1})*xi[1] + ({c2})*xi[1]^2"}
    return _relabel([(table, 2)], (0, 1), draw(st.permutations((1, 2))))


def _verifies(omega, k: int) -> bool:
    """The verify command's verdict on a charge document's Omega."""
    return verify_master(omega, k).ok


def _check_pipeline(spec: TheorySpec, k: int) -> None:
    alg = Algebra(spec)
    assert jacobi_violations(alg) == []
    res = solve(alg, k, Method.BOTH)
    assert res.ok
    # F and A as one bracket with Xi per index are the generator-bracket loops
    assert res.f == build_F_by_brackets(alg)
    # the fixed point's seed, through k, is (I + W+ A) Pi_0
    seed = -apply_W_plus(res.f)
    pi0 = build_pi0(seed, k)
    assert apply_A(pi0) == placement_sum_by_tuples(pi0, a_component_by_brackets)
    assert (pi0 + apply_W_plus(apply_A(pi0))).truncate_cp(k) == seed.truncate_cp(k)
    higher = solve_pi_fixed_point(seed, k + 1)
    assert res.pi == higher.truncate_cp(k)
    doc = omega_document(spec.label, k,
                         tuple(expr.serialize(res.omega.get((a,))) for a in (1, 2)))
    omega, order = load_omega(dump_document(doc), alg)
    assert (omega, order) == (res.omega, k)
    assert _verifies(omega, k)
    doc["components"]["1"] = expr.serialize(res.omega.get((1,)) * 2)
    assert not _verifies(load_omega(dump_document(doc), alg)[0], k)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(spec=direct_sums(), k=ORDERS)
def test_direct_sums(spec, k):
    _check_pipeline(spec, k)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(spec=deformed_so3(), k=ORDERS)
def test_deformed_so3(spec, k):
    _check_pipeline(spec, k)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(spec=mixed2(), k=ORDERS)
def test_mixed2(spec, k):
    _check_pipeline(spec, k)


def test_relabelling_keeps_the_bundled_deformation():
    spec = _relabel([(deformed_so3_spec().u_table, 3)], (0, 0, 0), [3, 1, 2])
    assert spec.u_table == {(3, 1, 2): "1", (1, 2, 3): "1", (2, 3, 1): "1 + xi[1]"}


def test_fixed_point_solve_forms_no_pi0(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the fixed point formed Pi_0")

    monkeypatch.setattr(solver_mod, "build_pi0", refuse)
    res = solve(Algebra(deformed_so3_spec()), 4, Method.FIXED_POINT)
    assert res.ok
    assert not res.pi.is_zero()
