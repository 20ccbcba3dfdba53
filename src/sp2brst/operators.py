"""The Sp(2) operator calculus on ghost polynomials and symmetric tensors.

Component (scalar) operators, all first-order with left derivatives; each
component of W and Gamma is applied in one pass over the polynomial
(Algebra.replace_left with the operator's (src, dst, coeff) triples):

    N      = xi d/dxi + P d/dP + lam d/dlam        (counts constraint-sector factors)
    W^a    = xi_r d/dP_ra + eps^ab P_rb d/dlam_r + (-1)^eps_r eps^ab pi^r d/dC^rb
    Gamma_a = P_ra d/dxi_r - eps_ab lam_r d/dP_rb
    M      = Gamma_a W^a

Tensor operators: W raises the rank by one via the cyclic sum over the
output indices, Gamma contracts the last index, N/M/Q act per component.
On rank n >= 1, Q is the exact inverse of (nN + M); its closed form is
polynomial in M and N^-1 thanks to the reduction
M^n = (2^(n-1)-1) N^(n-2) M^2 - (2^(n-1)-2) N^(n-1) M.

Sp(2) metric conventions:  eps^12 = +1 = -eps^21,  eps_12 = -1 = -eps_21,
so that eps^ab eps_bc = delta^a_c.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import GradedPoly, Sector
from .tensors import SymTensor

EPS_UP = {(1, 2): 1, (2, 1): -1, (1, 1): 0, (2, 2): 0}
EPS_DOWN = {(1, 2): -1, (2, 1): 1, (1, 1): 0, (2, 2): 0}


class OutsideDomainError(ValueError):
    """N is not invertible: some term carries no constraint-sector factor."""


# ---------------------------------------------------------------------------
# component operators


def n_apply(p: GradedPoly) -> GradedPoly:
    alg = p.alg
    return alg.poly({m: c * alg.term_ndeg(m) for m, c in p.terms.items()})


def n_inverse(p: GradedPoly, power=1) -> GradedPoly:
    alg = p.alg
    out = {}
    for m, c in p.terms.items():
        d = alg.term_ndeg(m)
        if d == 0:
            raise OutsideDomainError(
                f"term outside the invertible domain of N: {GradedPoly(alg, {m: c})!r}")
        out[m] = c / Fraction(d) ** power
    return alg.poly(out)


def _w_fields(alg, a):
    """The (src, dst, coeff) triples of W^a: 3m of them."""
    b = 3 - a
    eab = EPS_UP[(a, b)]
    fields = []
    for r in range(1, alg.m + 1):
        eps_r = alg.spec.constraint_parities[r - 1] & 1
        fields += [
            (alg.vid(Sector.GHOST_MOM, r, a), alg.vid(Sector.XI, r), 1),
            (alg.vid(Sector.LAGRANGE, r), alg.vid(Sector.GHOST_MOM, r, b), eab),
            (alg.vid(Sector.GHOST, r, b), alg.vid(Sector.LAGRANGE_MOM, r),
             -eab if eps_r else eab),
        ]
    return tuple(fields)


def _gamma_fields(alg, a):
    """The (src, dst, coeff) triples of Gamma_a: 2m of them."""
    b = 3 - a
    e_ab = EPS_DOWN[(a, b)]
    fields = []
    for r in range(1, alg.m + 1):
        fields += [
            (alg.vid(Sector.XI, r), alg.vid(Sector.GHOST_MOM, r, a), 1),
            (alg.vid(Sector.GHOST_MOM, r, b), alg.vid(Sector.LAGRANGE, r), -e_ab),
        ]
    return tuple(fields)


def _component(p: GradedPoly, build, a: int) -> GradedPoly:
    """One replace_left pass with the triples of build(alg, a), built once
    per algebra and kept on it."""
    alg = p.alg
    key = (build, a)
    fields = alg.operator_fields.get(key)
    if fields is None:
        fields = alg.operator_fields[key] = build(alg, a)
    return alg.replace_left(p, fields)


def w_component(p: GradedPoly, a: int) -> GradedPoly:
    return _component(p, _w_fields, a)


def gamma_component(p: GradedPoly, a: int) -> GradedPoly:
    return _component(p, _gamma_fields, a)


def m_component(p: GradedPoly) -> GradedPoly:
    out = p.alg.zero()
    for a in (1, 2):
        out = out + gamma_component(w_component(p, a), a)
    return out


# ---------------------------------------------------------------------------
# tensor operators


def apply_N(t: SymTensor) -> SymTensor:
    return t.map(n_apply)


def apply_N_inverse(t: SymTensor, power=1) -> SymTensor:
    return t.map(lambda p: n_inverse(p, power))


def apply_M(t: SymTensor) -> SymTensor:
    return t.map(m_component)


def apply_W(t: SymTensor) -> SymTensor:
    """Rank n -> n+1: cyclic sum  (WX)^{a0..an} = sum_j W^{aj} X^{rest}."""
    return t.placement_sum(w_component)


def apply_Gamma(t: SymTensor) -> SymTensor:
    """Rank n -> n-1 (zero on rank 0): contraction on the last index."""
    alg = t.alg
    if t.rank == 0:
        return SymTensor.zero(alg, 0)
    out = SymTensor(alg, t.rank - 1)
    for idx in out.indices():
        p = alg.zero()
        for a in (1, 2):
            p = p + gamma_component(t.get(idx + (a,)), a)
        if p:
            out.comps[idx] = p
    return out


def apply_Q(t: SymTensor) -> SymTensor:
    """Exact inverse used by the ghost-extension machinery.

    rank 0:    Q = (1/6) (11 N^-1 - 6 M N^-2 + M^2 N^-3)
    rank n>=1: Q = (nN + M)^-1
             = (1/n) N^-1 - (1/(n(n+1)(n+2))) ((n+3) M N^-2 - M^2 N^-3)

    M commutes with N, so with U = N^-3 X the three terms are N^2 U,
    N (M U) and M (M U): M is applied twice.
    """
    n = t.rank
    u = apply_N_inverse(t, 3)
    mu = apply_M(u)
    p1 = apply_N(apply_N(u))
    p2 = apply_N(mu)
    p3 = apply_M(mu)
    if n == 0:
        return p1 * Fraction(11, 6) - p2 + p3 * Fraction(1, 6)
    c = Fraction(1, n * (n + 1) * (n + 2))
    return p1 * Fraction(1, n) - p2 * (c * (n + 3)) + p3 * c


def apply_W_plus(t: SymTensor) -> SymTensor:
    """W+ = Q Gamma: rank n -> n-1; vanishes identically on rank 0."""
    return apply_Q(apply_Gamma(t))


# ---------------------------------------------------------------------------
# contracted second-order operators (rank 0)


def bar_w(p: GradedPoly) -> GradedPoly:
    """barW = eps_ab W^a W^b = W^2 W^1 - W^1 W^2."""
    return w_component(w_component(p, 1), 2) - w_component(w_component(p, 2), 1)


def bar_gamma(p: GradedPoly) -> GradedPoly:
    """barGamma = eps^ab Gamma_a Gamma_b = Gamma_1 Gamma_2 - Gamma_2 Gamma_1."""
    return gamma_component(gamma_component(p, 2), 1) - gamma_component(gamma_component(p, 1), 2)
