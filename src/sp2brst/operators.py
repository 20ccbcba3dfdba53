"""The Sp(2) operator calculus on ghost polynomials and symmetric tensors.

Component (scalar) operators, all first-order with left derivatives:

    N      = xi d/dxi + P d/dP + lam d/dlam        (counts constraint-sector factors)
    W^a    = xi_r d/dP_ra + eps^ab P_rb d/dlam_r + (-1)^eps_r eps^ab pi^r d/dC^rb
    Gamma_a = P_ra d/dxi_r - eps_ab lam_r d/dP_rb
    M      = Gamma_a W^a

Each component of W and Gamma is one pass of Algebra.replace_sum, the
int-numerator first-order core, with the operator's (src, dst, coeff)
triples.  w_component and gamma_component are one pass each through
Algebra.replace_left, which decodes its result; m_component chains four
passes over one common denominator and makes its Fractions once.

Tensor operators: W raises the rank by one via the cyclic sum over the
output indices, Gamma contracts the last index, N/M/Q act per component.
On rank n >= 1, Q is the exact inverse of (nN + M); its closed form is
polynomial in M and N^-1 thanks to the reduction
M^n = (2^(n-1)-1) N^(n-2) M^2 - (2^(n-1)-2) N^(n-1) M.

Q and W+ = Q Gamma run per component as one chain of int numerators
over one denominator: for W+ the Gamma contraction X, then M X and
M^2 X.  W and Gamma, and so M, preserve the N-degree, so on a term of
N-degree d each power of N^-1 in Q is a power of the number d: the
result's term is c1 X/d + c2 (M X)/d^2 + c3 (M^2 X)/d^3 with Q's rank
coefficients, made as one Fraction, and no N pass runs.

Sp(2) metric conventions:  eps^12 = +1 = -eps^21,  eps_12 = -1 = -eps_21,
so that eps^ab eps_bc = delta^a_c.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import GradedPoly, Sector, as_fractions, common_denominator, numerators
from .tensors import SymTensor

EPS_UP = {(1, 2): 1, (2, 1): -1, (1, 1): 0, (2, 2): 0}
EPS_DOWN = {(1, 2): -1, (2, 1): 1, (1, 1): 0, (2, 2): 0}


class OutsideDomainError(ValueError):
    """N is not invertible: some term carries no constraint-sector factor."""


# ---------------------------------------------------------------------------
# component operators


def n_apply(p: GradedPoly) -> GradedPoly:
    ndeg = p.alg.term_ndeg
    out = {}
    for m, c in p.terms.items():
        d = ndeg(m)
        if d:
            out[m] = c * d
    return GradedPoly(p.alg, out)


def n_inverse(p: GradedPoly, power=1) -> GradedPoly:
    alg = p.alg
    ndeg = alg.term_ndeg
    out = {}
    for m, c in p.terms.items():
        d = ndeg(m)
        if d == 0:
            raise OutsideDomainError(
                f"term outside the invertible domain of N: {GradedPoly(alg, {m: c})!r}")
        out[m] = c / d ** power
    return GradedPoly(alg, out)


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


def _operator(alg, build, a: int):
    """(triples, replace_sum table) of build(alg, a), built once per
    algebra and kept on it."""
    key = (build, a)
    op = alg.operator_fields.get(key)
    if op is None:
        fields = build(alg, a)
        op = alg.operator_fields[key] = (fields, alg.fields_by_src(fields)[0])
    return op


def w_component(p: GradedPoly, a: int) -> GradedPoly:
    return p.alg.replace_left(p, _operator(p.alg, _w_fields, a)[0])


def gamma_component(p: GradedPoly, a: int) -> GradedPoly:
    return p.alg.replace_left(p, _operator(p.alg, _gamma_fields, a)[0])


def _numerators(p: GradedPoly):
    """(p's coefficients as int numerators, their common denominator)."""
    den = common_denominator(p.terms)
    return numerators(p.terms, den), den


def _m_sum(alg, nums: dict) -> dict:
    """M = sum_a Gamma_a W^a on int numerators: each W^a pass forms its
    own dict, and both Gamma_a passes add into the one result."""
    out: dict = {}
    for a in (1, 2):
        w: dict = {}
        alg.replace_sum(nums, _operator(alg, _w_fields, a)[1], w)
        alg.replace_sum(w, _operator(alg, _gamma_fields, a)[1], out)
    return out


def m_component(p: GradedPoly) -> GradedPoly:
    x, den = _numerators(p)
    return GradedPoly(p.alg, as_fractions(_m_sum(p.alg, x), den))


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


def _contract(t: SymTensor, idx: tuple):
    """(x, den): the Gamma contraction sum_a Gamma_a t^(idx a) as int
    numerators x over den, the lcm of the two inputs' denominators."""
    alg = t.alg
    parts = [t.get(idx + (a,)).terms for a in (1, 2)]
    den = common_denominator(*parts)
    x: dict = {}
    for a, terms in zip((1, 2), parts):
        if terms:
            alg.replace_sum(numerators(terms, den), _operator(alg, _gamma_fields, a)[1], x)
    return x, den


def apply_Gamma(t: SymTensor) -> SymTensor:
    """Rank n -> n-1 (zero on rank 0): contraction on the last index."""
    alg = t.alg
    if t.rank == 0:
        return SymTensor.zero(alg, 0)
    out = SymTensor(alg, t.rank - 1)
    for idx in out.indices():
        x, den = _contract(t, idx)
        if x:
            out.comps[idx] = GradedPoly(alg, as_fractions(x, den))
    return out


def _q_coefficients(n: int):
    """Q on rank n as (a1, a2, a3, c): Q = (a1 N^-1 + a2 M N^-2 + a3 M^2 N^-3) / c.

    rank 0:    Q = (1/6) (11 N^-1 - 6 M N^-2 + M^2 N^-3)
    rank n>=1: Q = (nN + M)^-1
             = (1/n) N^-1 - (1/(n(n+1)(n+2))) ((n+3) M N^-2 - M^2 N^-3)
    """
    if n == 0:
        return 11, -6, 1, 6
    return (n + 1) * (n + 2), -(n + 3), 1, n * (n + 1) * (n + 2)


def _q_step(alg, n: int, x: dict, den: int) -> GradedPoly:
    """The one Q step: Q on a component of a rank-n tensor, given as int
    numerators x over den.

    M X and M^2 X are formed by replace_sum over the same den.  M
    preserves the N-degree, so on a term of N-degree d the powers of N^-1
    in Q are numbers, and the term is (a1 d^2 X + a2 d MX + a3 M^2X) over
    c den d^3, one Fraction.  The sum is folded in two steps, each checked
    against the term budget: the N^-1 and M N^-2 parts first, then the
    M^2 N^-3 part.  A term of N-degree 0 in x raises OutsideDomainError;
    those of MX and M^2X have the degrees of the terms they come from."""
    ndeg = alg.term_ndeg
    degs = {}
    for m, num in x.items():
        d = degs[m] = ndeg(m)
        if not d:
            raise OutsideDomainError(
                "term outside the invertible domain of N: "
                f"{GradedPoly(alg, {m: Fraction(num, den)})!r}")
    mx = _m_sum(alg, x)
    mmx = _m_sum(alg, mx)
    a1, a2, a3, c = _q_coefficients(n)
    out = {m: a1 * num * degs[m] ** 2 for m, num in x.items()}
    get = out.get
    for m, num in mx.items():
        d = degs.get(m)
        if d is None:
            d = degs[m] = ndeg(m)
        s = get(m, 0) + a2 * d * num
        if s:
            out[m] = s
        else:
            del out[m]
    alg.check_budget(out)
    for m, num in mmx.items():
        s = get(m, 0) + a3 * num
        if s:
            out[m] = s
        else:
            del out[m]
    alg.check_budget(out)
    den *= c
    for m, num in out.items():
        d = degs.get(m)
        if d is None:
            d = ndeg(m)
        out[m] = Fraction(num, den * d ** 3)
    return GradedPoly(alg, out)


def _q_map(alg, n: int, component) -> SymTensor:
    """The rank-n tensor of _q_step applied to component(idx), an
    (int numerators, denominator) pair, for every index."""
    out = SymTensor(alg, n)
    for idx in out.indices():
        x, den = component(idx)
        if x:
            q = _q_step(alg, n, x, den)
            if q:
                out.comps[idx] = q
    return out


def apply_Q(t: SymTensor) -> SymTensor:
    """Exact inverse used by the ghost-extension machinery, Q with the
    rank coefficients of _q_coefficients, per component: its
    coefficients become int numerators over one denominator and go
    through _q_step, which applies M twice and no N at all."""
    return _q_map(t.alg, t.rank, lambda idx: _numerators(t.get(idx)))


def apply_W_plus(t: SymTensor) -> SymTensor:
    """W+ = Q Gamma: rank n -> n-1; vanishes identically on rank 0.

    One int-numerator chain per output component: the Gamma contraction
    (two replace_sum passes into one sum), then the Q step apply_Q uses,
    so the component's Fractions are made once, at the end."""
    if t.rank == 0:
        return SymTensor.zero(t.alg, 0)
    return _q_map(t.alg, t.rank - 1, lambda idx: _contract(t, idx))


# ---------------------------------------------------------------------------
# contracted second-order operators (rank 0)


def bar_w(p: GradedPoly) -> GradedPoly:
    """barW = eps_ab W^a W^b = W^2 W^1 - W^1 W^2."""
    return w_component(w_component(p, 1), 2) - w_component(w_component(p, 2), 1)


def bar_gamma(p: GradedPoly) -> GradedPoly:
    """barGamma = eps^ab Gamma_a Gamma_b = Gamma_1 Gamma_2 - Gamma_2 Gamma_1."""
    return gamma_component(gamma_component(p, 2), 1) - gamma_component(gamma_component(p, 1), 2)
