"""Independent oracles for the first-order operators and the bracket.

Each oracle below is a direct transcription of the defining displays --
prefactor variable times a left derivative, with the Sp(2) metrics written
out as literal tables -- built on nothing but the algebra's left
derivative and the right derivative that solver_oracles takes term by
term.  Agreement with the production implementations (which run on a
replace-in-place primitive and a sparse pairing table) is checked on
enumerated generators and seeded random elements over three theories.
"""

import random
from itertools import permutations

from conftest import bundled
from solver_oracles import derive_right, lagrange, lagrange_mom
from sp2brst.algebra import Algebra, Sector
from sp2brst.identities import random_element
from sp2brst.operators import gamma_component, m_component, n_apply, w_component
from sp2brst.theory import TheorySpec, mixed_parity_spec

EPS_UP = {(1, 1): 0, (1, 2): 1, (2, 1): -1, (2, 2): 0}
EPS_DOWN = {(1, 1): 0, (1, 2): -1, (2, 1): 1, (2, 2): 0}


def oracle_N(x):
    """N = xi_r d_l/dxi_r + P_ra d_l/dP_ra + lam_r d_l/dlam_r."""
    alg = x.alg
    out = alg.zero()
    for r in range(1, alg.m + 1):
        out = out + alg.mul(alg.xi(r), alg.derive_left(x, (alg.vid(Sector.XI, r),))[0])
        for a in (1, 2):
            out = out + alg.mul(
                alg.ghost_mom(r, a),
                alg.derive_left(x, (alg.vid(Sector.GHOST_MOM, r, a),))[0])
        out = out + alg.mul(
            lagrange(alg, r), alg.derive_left(x, (alg.vid(Sector.LAGRANGE, r),))[0])
    return out


def oracle_W(x, a):
    """W^a = xi_r d_l/dP_ra + eps^ab P_rb d_l/dlam_r
    + (-1)^eps_r eps^ab pi_r d_l/dC^rb."""
    alg = x.alg
    out = alg.zero()
    for r in range(1, alg.m + 1):
        eps_r = alg.spec.constraint_parities[r - 1] & 1
        out = out + alg.mul(
            alg.xi(r), alg.derive_left(x, (alg.vid(Sector.GHOST_MOM, r, a),))[0])
        for b in (1, 2):
            e = EPS_UP[(a, b)]
            if not e:
                continue
            out = out + alg.mul(
                alg.ghost_mom(r, b),
                alg.derive_left(x, (alg.vid(Sector.LAGRANGE, r),))[0]) * e
            out = out + alg.mul(
                lagrange_mom(alg, r),
                alg.derive_left(x, (alg.vid(Sector.GHOST, r, b),))[0]) \
                * (-e if eps_r else e)
    return out


def oracle_Gamma(x, a):
    """Gamma_a = P_ra d_l/dxi_r - eps_ab lam_r d_l/dP_rb."""
    alg = x.alg
    out = alg.zero()
    for r in range(1, alg.m + 1):
        out = out + alg.mul(
            alg.ghost_mom(r, a), alg.derive_left(x, (alg.vid(Sector.XI, r),))[0])
        for b in (1, 2):
            e = EPS_DOWN[(a, b)]
            if not e:
                continue
            out = out - alg.mul(
                lagrange(alg, r),
                alg.derive_left(x, (alg.vid(Sector.GHOST_MOM, r, b),))[0]) * e
    return out


def oracle_M(x):
    return sum((oracle_Gamma(oracle_W(x, a), a) for a in (1, 2)), x.alg.zero())


def _ghost_half(x, y):
    """d_r x/dC^ra d_l y/dP_ra + d_r x/dpi_r d_l y/dlam_r."""
    alg = x.alg
    out = alg.zero()
    for r in range(1, alg.m + 1):
        for a in (1, 2):
            out = out + alg.mul(
                derive_right(x, alg.vid(Sector.GHOST, r, a)),
                alg.derive_left(y, (alg.vid(Sector.GHOST_MOM, r, a),))[0])
        out = out + alg.mul(
            derive_right(x, alg.vid(Sector.LAGRANGE_MOM, r)),
            alg.derive_left(y, (alg.vid(Sector.LAGRANGE, r),))[0])
    return out


def oracle_ghost_bracket(x, y):
    """The two-term display with explicit graded antisymmetrization,
    valid when x and y carry no coordinate-sector variables."""
    sign = -1 if (x.parity() & y.parity()) == 0 else 1
    return _ghost_half(x, y) + _ghost_half(y, x) * sign


def _levi_civita(i, j, k):
    return {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
            (2, 1, 3): -1, (3, 2, 1): -1, (1, 3, 2): -1}.get((i, j, k), 0)


def oracle_so3_bracket(x, y):
    """Full bracket over so(3): ghost part plus
    sum_ij d_r x/dxi_i eps_ijk xi_k d_l y/dxi_j."""
    alg = x.alg
    out = oracle_ghost_bracket(x, y)
    for i, j in permutations((1, 2, 3), 2):
        k = 6 - i - j
        e = _levi_civita(i, j, k)
        out = out + alg.mul(
            alg.mul(derive_right(x, alg.vid(Sector.XI, i)), alg.xi(k)),
            alg.derive_left(y, (alg.vid(Sector.XI, j),))[0]) * e
    return out


def _generators(alg):
    return [alg.gen(v.vid) for v in alg.vars]


def _random_monomial(alg, rng, size):
    gens = _generators(alg)
    p = alg.one()
    for _ in range(size):
        p = alg.mul(p, rng.choice(gens))
        if not p:
            return p
    return p


ALGEBRAS = [
    bundled("so3"),
    Algebra(mixed_parity_spec()),
    Algebra(TheorySpec((0,), physical_parities=(0,),
                       mixed_table={(1, 2): "1"}, label="shift")),
]


def test_w_matches_oracle_on_generators():
    for alg in ALGEBRAS:
        for g in _generators(alg):
            for a in (1, 2):
                assert w_component(g, a) == oracle_W(g, a)
                assert gamma_component(g, a) == oracle_Gamma(g, a)
            assert n_apply(g) == oracle_N(g)


def test_operators_match_oracle_on_random_elements():
    rng = random.Random(11)
    for alg in ALGEBRAS:
        for _ in range(25):
            x = random_element(alg, rng, max_cp=3, max_n=3)
            for a in (1, 2):
                assert w_component(x, a) == oracle_W(x, a)
                assert gamma_component(x, a) == oracle_Gamma(x, a)
            assert n_apply(x) == oracle_N(x)
            assert m_component(x) == oracle_M(x)


def test_bracket_matches_two_term_display_on_ghost_sectors():
    rng = random.Random(12)
    for alg in ALGEBRAS:
        ghost_gens = [alg.gen(v.vid) for v in alg.vars
                      if v.sector not in (Sector.XI, Sector.XI_PHYS)]
        for _ in range(40):
            x = alg.one()
            for _ in range(rng.randint(1, 3)):
                x = alg.mul(x, rng.choice(ghost_gens))
            y = alg.one()
            for _ in range(rng.randint(1, 3)):
                y = alg.mul(y, rng.choice(ghost_gens))
            if not x or not y:
                continue
            assert alg.bracket(x, y) == oracle_ghost_bracket(x, y)


def test_bracket_matches_full_display_on_so3():
    alg = ALGEBRAS[0]
    rng = random.Random(13)
    for _ in range(40):
        x = _random_monomial(alg, rng, rng.randint(1, 3))
        y = _random_monomial(alg, rng, rng.randint(1, 3))
        if not x or not y:
            continue
        assert alg.bracket(x, y) == oracle_so3_bracket(x, y)
