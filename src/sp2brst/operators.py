"""The Sp(2) operator calculus on ghost polynomials and symmetric tensors.

Component (scalar) operators, all first-order with left derivatives:

    N      = xi d/dxi + P d/dP + lam d/dlam        (counts constraint-sector factors)
    W^a    = xi_r d/dP_ra + eps^ab P_rb d/dlam_r + (-1)^eps_r eps^ab pi^r d/dC^rb
    Gamma_a = P_ra d/dxi_r - eps_ab lam_r d/dP_rb
    M      = Gamma_a W^a

Each component of W and Gamma is one pass of Algebra.replace_sum, the
first-order core over packed int keys, with the operator's table at the
input's field width (_Tables, one set per width, kept on the algebra).
A pass forms each key's terms from the plan of its pattern, the key's
bits that the operator reads; the plans are kept on the tables, so every
later pass of the algebra at that width reuses them.
w_component and gamma_component are one pass each and m_component four,
each a chain over the stored keys of its input: the passes sum int
numerators over the input's denominator, and the result is stored as it
forms, over one canonical denominator; nothing is packed on entry or
decoded on exit.  A pass keeps each term's total degree, so the input's
width holds every key the chain forms.  N and N^-1 read each term's
N-degree off its key.  The compositions of those passes reuse the general
code: apply_W is SymTensor.placement_sum of w_component, apply_Gamma
the GradedPoly sum of two gamma_component passes per output component,
and bar_w and bar_gamma GradedPoly differences of two passes of two
passes.  So no operator repacks keys or brings two polynomials over one
denominator: GradedPoly's + and - do.

Tensor operators: W raises the rank by one via the cyclic sum over the
output indices, Gamma contracts the last index, N and M act per
component, and W+ = Q Gamma lowers the rank by one: the Q step on each
component of the Gamma contraction.  On rank n >= 1, Q is the exact
inverse of (nN + M); its closed form is polynomial in M and N^-1 thanks
to the reduction
M^n = (2^(n-1)-1) N^(n-2) M^2 - (2^(n-1)-2) N^(n-1) M.

The Q step (_q_step, the package's only Q) forms M X and M^2 X of its
component X.  W and Gamma, and so M, preserve the N-degree, so on a term
of N-degree d, read off its packed key, each power of N^-1 in Q is a
power of the number d: the result's term is
c1 X/d + c2 (M X)/d^2 + c3 (M^2 X)/d^3 with Q's rank coefficients, its
int numerator brought over one lcm, and no N pass runs.

Sp(2) metric conventions:  eps^12 = +1 = -eps^21,  eps_12 = -1 = -eps_21,
so that eps^ab eps_bc = delta^a_c.
"""

from __future__ import annotations

from math import lcm

from .algebra import GradedPoly, Sector
from .tensors import SymTensor

EPS_UP = {(1, 2): 1, (2, 1): -1, (1, 1): 0, (2, 2): 0}
EPS_DOWN = {(1, 2): -1, (2, 1): 1, (1, 1): 0, (2, 2): 0}


class OutsideDomainError(ValueError):
    """N is not invertible: some term carries no constraint-sector factor."""


# ---------------------------------------------------------------------------
# component operators


def _n_degrees(p: GradedPoly) -> list:
    """The N-degree of each of p's stored keys, in order, read off the key."""
    lay = p.alg.layout(p.width)
    return lay.reads(p.nums, lay.n)


def n_apply(p: GradedPoly, power=1) -> GradedPoly:
    """N^power term by term (power >= 1): a term of N-degree d gains
    d^power."""
    out = {k: n * d ** power for (k, n), d in zip(p.nums.items(), _n_degrees(p)) if d}
    return p.alg.from_keys(out, p.width, p.den)


def _domain_degrees(p: GradedPoly) -> list:
    """_n_degrees(p), each checked: a term of N-degree 0 lies outside the
    domain of N^-1 and raises OutsideDomainError."""
    degs = _n_degrees(p)
    for (k, n), d in zip(p.nums.items(), degs):
        if d == 0:
            raise OutsideDomainError(
                "term outside the invertible domain of N: "
                f"{p.alg.from_keys({k: n}, p.width, p.den)!r}")
    return degs


def n_inverse(p: GradedPoly, power=1) -> GradedPoly:
    """N^-power term by term, over den times the power of the lcm D of the
    terms' N-degrees: a term of N-degree d gains (D / d)^power."""
    degs = _domain_degrees(p)
    big = lcm(*degs)
    out = {k: n * (big // d) ** power for (k, n), d in zip(p.nums.items(), degs)}
    return p.alg.from_keys(out, p.width, p.den * big ** power)


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


class _Tables:
    """The packed replace_sum tables of W^a and Gamma_a, indexed by a, at
    one field width."""

    __slots__ = ("w", "gamma")

    def __init__(self, alg, width):
        # W^a and Gamma_a have int coefficients: fden is 1
        self.w = {a: alg.replace_table(_w_fields(alg, a), width)[0] for a in (1, 2)}
        self.gamma = {a: alg.replace_table(_gamma_fields(alg, a), width)[0] for a in (1, 2)}


def _tables(alg, width) -> _Tables:
    """The _Tables of alg at width, built once per algebra and width and
    kept on it."""
    tab = alg.operator_tables.get(width)
    if tab is None:
        tab = alg.operator_tables[width] = _Tables(alg, width)
    return tab


def w_component(p: GradedPoly, a: int) -> GradedPoly:
    tab = _tables(p.alg, p.width)
    return p.alg.from_keys(p.alg.replace_sum(p.nums, tab.w[a], {}), p.width, p.den)


def gamma_component(p: GradedPoly, a: int) -> GradedPoly:
    tab = _tables(p.alg, p.width)
    return p.alg.from_keys(p.alg.replace_sum(p.nums, tab.gamma[a], {}), p.width, p.den)


def _m_sum(alg, tab: _Tables, x: dict) -> dict:
    """M = sum_a Gamma_a W^a on packed int numerators: each W^a pass
    forms its own dict, and both Gamma_a passes add into the one result."""
    out: dict = {}
    for a in (1, 2):
        alg.replace_sum(alg.replace_sum(x, tab.w[a], {}), tab.gamma[a], out)
    return out


def m_component(p: GradedPoly) -> GradedPoly:
    tab = _tables(p.alg, p.width)
    return p.alg.from_keys(_m_sum(p.alg, tab, p.nums), p.width, p.den)


# ---------------------------------------------------------------------------
# tensor operators


def apply_N(t: SymTensor) -> SymTensor:
    return t.map(n_apply)


def apply_M(t: SymTensor) -> SymTensor:
    return t.map(m_component)


def apply_W(t: SymTensor) -> SymTensor:
    """Rank n -> n+1: cyclic sum  (WX)^{a0..an} = sum_j W^{aj} X^{rest},
    SymTensor.placement_sum of w_component.  Each output component is
    stored at the widest width of the input components it sums."""
    return t.placement_sum(w_component)


def apply_Gamma(t: SymTensor) -> SymTensor:
    """Rank n -> n-1 (zero on rank 0): out^idx = sum_a Gamma_a t^(idx a),
    the GradedPoly sum of two gamma_component passes per output component,
    so + picks its width and denominator."""
    if t.rank == 0:
        return SymTensor.zero(t.alg, 0)
    out = SymTensor(t.alg, t.rank - 1)
    for idx in out.indices():
        p = gamma_component(t.get(idx + (1,)), 1) + gamma_component(t.get(idx + (2,)), 2)
        if p:
            out.comps[idx] = p
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


def _q_step(n: int, p: GradedPoly) -> GradedPoly:
    """The one Q step: Q on p, a component of a rank-n tensor.

    M X and M^2 X are formed by replace_sum over p's den.  M preserves
    the N-degree, so on a term of N-degree d, read off its key, the
    powers of N^-1 in Q are numbers, and the term is
    (a1 d^2 X + a2 d MX + a3 M^2X) over c den d^3.  The sum is folded in
    two steps, each checked against the term budget: the N^-1 and M N^-2
    parts first, then the M^2 N^-3 part.  The result's numerators are then
    brought over c den D^3, D the lcm of the terms' N-degrees.  A term of
    N-degree 0 in p raises OutsideDomainError; those of MX and M^2X have
    the degrees of the terms they come from."""
    alg, x = p.alg, p.nums
    tab, lay = _tables(alg, p.width), alg.layout(p.width)
    degs = _domain_degrees(p)
    mx = _m_sum(alg, tab, x)
    mmx = _m_sum(alg, tab, mx)
    a1, a2, a3, c = _q_coefficients(n)
    out = {k: a1 * num * d * d for (k, num), d in zip(x.items(), degs)}
    get = out.get
    for (k, num), d in zip(mx.items(), lay.reads(mx, lay.n)):
        s = get(k, 0) + a2 * d * num
        if s:
            out[k] = s
        else:
            del out[k]
    alg.check_budget(out)
    for k, num in mmx.items():
        s = get(k, 0) + a3 * num
        if s:
            out[k] = s
        else:
            del out[k]
    alg.check_budget(out)
    degs = lay.reads(out, lay.n)
    big = lcm(*degs)
    for (k, num), d in zip(out.items(), degs):
        out[k] = num * (big // d) ** 3
    return alg.from_keys(out, p.width, p.den * c * big ** 3)


def apply_W_plus(t: SymTensor) -> SymTensor:
    """W+ = Q Gamma: rank n -> n-1, the Q step on each component of the
    Gamma contraction; vanishes identically on rank 0."""
    g = apply_Gamma(t)
    return g.map(lambda p: _q_step(g.rank, p) if p else p)


# ---------------------------------------------------------------------------
# contracted second-order operators (rank 0)


def bar_w(p: GradedPoly) -> GradedPoly:
    """barW = eps_ab W^a W^b = W^2 W^1 - W^1 W^2."""
    return w_component(w_component(p, 1), 2) - w_component(w_component(p, 2), 1)


def bar_gamma(p: GradedPoly) -> GradedPoly:
    """barGamma = eps^ab Gamma_a Gamma_b = Gamma_1 Gamma_2 - Gamma_2 Gamma_1."""
    return gamma_component(gamma_component(p, 2), 1) - gamma_component(gamma_component(p, 1), 2)
