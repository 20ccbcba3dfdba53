"""Construction of the Sp(2) pair of BRST charges for a first-class theory.

The charges are assembled as Omega^a = Omega_1^a + Pi^a where the boundary
part is fixed,

    Omega_1^a = Xi^a + eps^ab P_(alpha b) pi^alpha,   Xi^a = xi_alpha C^(alpha a),

and Pi collects the higher ghost-degree corrections.  The master equations
{Omega^a, Omega^b}' = 0 are equivalent to the rank-2 statement

    G  =  W Pi + F + A Pi + quad(Pi)  =  0,
    quad(Pi)^ab = {Pi^a, Pi^b}',

which holds term by term against the directly evaluated bracket for *any*
Pi, not just solutions (verify_master checks both sides).  Here
A^a = {Xi^a, .}' taken through the matter pairings only, which is
C^(alpha a) {xi_alpha, .}', and F^ab = A^a Xi^b: A X and F each take
their brackets with Xi from one Algebra.brackets call.  Projecting with
the generalized inverse W+ turns G = 0 into the fixed-point problem

    Pi = Upsilon - W+(F + A Pi + quad(Pi)),

which is solved exactly at any finite truncation degree, one C,pi-degree at
a time from the seed Upsilon - W+ F: W+ A and every bracket with Pi
strictly raise the degree, so the degree-d part depends only on the parts
below d.  One graded solve gives the fixed point and every inverse
(I + W+ op)^-1.  The multi-bracket expansion Pi = <e^(Pi_0)>, with
Pi_0 = (I + W+ A)^-1 (Upsilon - W+ F), reproduces the solution, its m-fold
brackets built by size from the smaller ones; Pi_0 is built only for it.
The solver can run both and insists they agree.  solve takes the theory
as its Algebra, which also fixes the term budget, and the order k and
the method as plain arguments.  Each stage takes the tensors it
consumes and the order k: solve forms the seed once,
projected_seed(Upsilon, F), and hands it to build_pi0(seed, k) and
solve_pi_fixed_point(seed, k), and Pi_0 to solve_pi_descendants(pi0, k).

All arithmetic is exact (int numerators over one denominator per
polynomial, divided exactly by ints); truncation at cp-degree k
is a projection, not an approximation, so a zero residual through k is a
proof through k.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .algebra import Algebra, InputError, Sector, TheoryError
from .operators import EPS_UP, apply_W, apply_W_plus
from .tensors import SymTensor
from .theory import MAX_ORDER

# Normalisation of the pair bracket <.,.> relative to the symmetrized
# double bracket [x,y] + [y,x], which it divides by PAIR_DIVISOR.  The
# factor -1/2 is pinned by requiring the fixed point of
# Pi = Pi_0 + 1/2 <Pi,Pi> to solve the projected master equation
# Pi = Upsilon - W+(F + A Pi + quad(Pi)) with the same quad(Pi) that the
# residual G contains; the so(3) regression test shows that -1/4 (a
# divisor of -4) in its place leaves a nonzero residual at cp-degree 3.
PAIR_DIVISOR = -2


class ConventionError(RuntimeError):
    """An internal consistency property failed; signals a convention bug."""


class Method(Enum):
    FIXED_POINT = "fixed-point"
    DESCENDANTS = "descendants"
    BOTH = "both"


def validate_upsilon(alg: Algebra, upsilon: SymTensor) -> None:
    """The boundary datum must be a rank-1 tensor over alg's theory, odd,
    ngh 1, cp-degree >= 2 and annihilated by the rank-raising W."""
    if upsilon.rank != 1 or not alg.compatible(upsilon.alg):
        raise TheoryError("upsilon must be a rank-1 tensor over the algebra's theory")
    try:
        graded = all(p.parity() == 1 and p.ngh() == 1 for p in upsilon.comps.values())
    except ValueError:  # terms of both parities or of several ngh
        graded = False
    if not graded:
        raise TheoryError("upsilon components must be odd with ngh = 1")
    mc = upsilon.min_cp()
    if mc is not None and mc < 2:
        raise TheoryError("upsilon must start at cp-degree 2")
    if not apply_W(upsilon).is_zero():
        raise TheoryError("upsilon is not annihilated by W")


# ---------------------------------------------------------------------------
# building blocks


def constraint_half(alg: Algebra) -> SymTensor:
    """Xi^a = xi_alpha C^(alpha a), the constraint half of Omega_1^a."""
    vid = alg.vid
    return SymTensor(alg, 1, {(a,): alg.poly(
        {((vid(Sector.XI, r), 1), (vid(Sector.GHOST, r, a), 1)): 1
         for r in range(1, alg.m + 1)}) for a in (1, 2)})


def build_omega1(alg: Algebra) -> SymTensor:
    """The boundary part  Omega_1^a = Xi^a + eps^ab P_(alpha b) pi^alpha
    (both boundary conditions read off it)."""
    vid = alg.vid

    def ghost_half(a):
        b = 3 - a
        return alg.poly(
            {((vid(Sector.GHOST_MOM, r, b), 1), (vid(Sector.LAGRANGE_MOM, r), 1)):
             EPS_UP[(a, b)] for r in range(1, alg.m + 1)})

    return constraint_half(alg) + SymTensor(alg, 1, {(a,): ghost_half(a) for a in (1, 2)})


def build_F(alg: Algebra) -> SymTensor:
    """F^ab = A^a Xi^b = C^(alpha a) {xi_alpha, xi_beta}' C^(beta b), one
    matter Algebra.brackets table checked symmetric by from_full; equals
    {Omega_1^a, Omega_1^b}' (the ghost-sector pairings cancel)."""
    xi = constraint_half(alg)
    comps = [xi.get((1,)), xi.get((2,))]
    table = alg.brackets(comps, comps, matter=True)
    return SymTensor.from_full(alg, 2, lambda idx: table[idx[0] - 1][idx[1] - 1])


def apply_A(t: SymTensor) -> SymTensor:
    """Rank n -> n+1: (A X)^(a0..an) = sum_j A^(aj) X^(rest), with
    A^a = {Xi^a, .}' through the matter pairings, which is
    C^(alpha a) {xi_alpha, .}': one tensor_brackets table for X."""
    return tensor_brackets(constraint_half(t.alg), [t], matter=True)[0]


def tensor_bracket(x: SymTensor, y: SymTensor, k: int | None = None) -> SymTensor:
    """[x, y]^(a a1..an) = {x^(a, y^a1..an)}': rank 1 x rank n -> rank n+1,
    summed over the placements of x's index (no normalisation factor).
    With k, every bracket is truncated at cp-degree k as it is formed."""
    return tensor_brackets(x, [y], k)[0]


def tensor_brackets(x: SymTensor, ys: list, k: int | None = None, *, matter=False) -> list:
    """[tensor_bracket(x, y, k) for y in ys], every bracket from one
    Algebra.brackets call, with matter through the matter pairings only:
    each component of x and of the ys is walked once, and each
    (component, index) pair bracketed once."""
    if x.rank != 1:
        raise ValueError("tensor_bracket expects a rank-1 first argument")
    comps = {id(p): p for y in ys for p in y.comps.values()}
    column = {key: j for j, key in enumerate(comps)}
    table = x.alg.brackets([x.get((1,)), x.get((2,))], list(comps.values()),
                           max_cp=k, matter=matter)
    return [y.placement_sum(lambda p, a: table[a - 1][column[id(p)]]) for y in ys]


def quad_term(pi: SymTensor, k: int | None = None) -> SymTensor:
    """quad(Pi)^ab = {Pi^a, Pi^b}' = 1/2 [Pi, Pi]^ab for odd rank-1 Pi,
    truncated at cp-degree k when k is given."""
    return tensor_bracket(pi, pi, k) / 2


# ---------------------------------------------------------------------------
# the graded solve, the inverse (I + W+ op)^-1 and the pair bracket


def _graded_solve(seed: SymTensor, grow, k: int) -> SymTensor:
    """The X through cp-degree k that equals seed plus everything
    grow(part, lower) returns for its parts, solved one degree at a time.

    grow is called once per nonzero degree-d part of X, with the parts
    below d (lowest first), and returns tensors that must lie strictly
    above d and are added to X; so X's degree-d part is complete once the
    parts below d have grown.  A returned tensor that fails to raise the
    degree signals a convention bug and raises ConventionError."""
    x = seed.truncate_cp(k)
    if not x:
        return x
    lower = []
    for d in range(x.min_cp(), k + 1):
        part = x.cp_part(d)
        if not part:
            continue
        for term in grow(part, lower):
            term = term.truncate_cp(k)
            floor = term.min_cp()
            if floor is not None and floor <= d:
                raise ConventionError(
                    f"the cp-degree {d} part failed to raise the degree "
                    f"(reaches {floor})")
            x = x + term
        lower.append(part)
    return x


def neumann_apply(op, x: SymTensor, k: int) -> SymTensor:
    """(I + W+ op)^-1 x = sum_m (-W+ op)^m x, exact under truncation: the
    X = x - W+ op(X) solved one degree at a time, since W+ op must raise
    the cp-degree (A adds a ghost; a bracket with Pi adds at least one)."""
    return _graded_solve(x, lambda part, lower: [-apply_W_plus(op(part))], k)


def projected_seed(upsilon: SymTensor, f: SymTensor) -> SymTensor:
    """Upsilon - W+ F, the seed of Pi_0 and of the fixed point."""
    return upsilon - apply_W_plus(f)


def build_pi0(seed: SymTensor, k: int) -> SymTensor:
    """Pi_0 = (I + W+ A)^-1 (Upsilon - W+ F), the argument of the descendant
    expansion <e^(Pi_0)>, from the seed Upsilon - W+ F."""
    return neumann_apply(apply_A, seed, k)


def pair_bracket(x: SymTensor, y: SymTensor, k: int) -> SymTensor:
    """<x, y> = -1/2 (I + W+ A)^-1 W+ ([x, y] + [y, x]) for odd rank-1 x, y.

    Symmetric in its arguments and cp-degree raising:
    cp(<x,y>) >= cp(x) + cp(y) - 1.  For odd x and y, {f, g}' = {g, f}'
    makes [y, x] equal [x, y], so one bracket is taken and doubled.
    """
    raw = tensor_bracket(x, y, k) * 2
    return neumann_apply(apply_A, apply_W_plus(raw) / PAIR_DIVISOR, k)


# ---------------------------------------------------------------------------
# fixed point


def solve_pi_fixed_point(seed: SymTensor, k: int) -> SymTensor:
    """Solve Pi = Upsilon - W+(F + A Pi + quad(Pi)) through cp-degree k, one
    cp-degree at a time, from the seed Upsilon - W+ F.  With
    quad(Pi) = 1/2 [Pi, Pi] and PAIR_DIVISOR = -2 it reads

        Pi = (Upsilon - W+ F) - W+ A Pi + W+ [Pi, Pi] / PAIR_DIVISOR.

    Every part of Pi lies at cp-degree >= 2, so W+ A and the bracket both
    raise the degree, and the degree-d part of Pi follows from the parts
    below d.  Each pair of parts is bracketed once ([low, part] equals
    [part, low] for odd parts, so it is doubled), all of them in one
    tensor_brackets call, and each W+ image is checked to raise the
    degree on its own."""

    def grow(part, lower):
        raws = tensor_brackets(part, [part, *lower], k)
        return ([-apply_W_plus(apply_A(part)), apply_W_plus(raws[0]) / PAIR_DIVISOR]
                + [apply_W_plus(raw * 2) / PAIR_DIVISOR for raw in raws[1:]])

    return _graded_solve(seed, grow, k)


# ---------------------------------------------------------------------------
# multi-brackets of equal arguments


def power_brackets(x: SymTensor, n: int, k: int) -> list:
    """[<X>, <X,X>, ..., <X^n>], the m-fold brackets of m equal arguments.

    The multi-bracket <X_1..X_m> is 1/2 the sum over proper nonempty
    subsets S of < <X_S>, <X_complement> >.  With all arguments equal,
    <X_S> depends only on |S|, and grouping the subsets by size gives

        <X^m> = 1/2 sum_(r=1)^(m-1) C(m,r) << X^r >, < X^(m-r) >>.

    <.,.> is symmetric, so only r <= m/2 is bracketed, the terms with
    r != m-r counted twice: O(n^2) pair brackets in all."""
    powers = [x]
    for m in range(2, n + 1):
        total = SymTensor.zero(x.alg, 1)
        for r in range(1, m // 2 + 1):
            weight = math.comb(m, r) * (1 if 2 * r == m else 2)
            total = total + pair_bracket(powers[r - 1], powers[m - r - 1], k) * weight
        powers.append(total / 2)
    return powers


def solve_pi_descendants(pi0: SymTensor, k: int) -> SymTensor:
    """Pi = <e^(Pi_0)> = sum_(m>=1) <Pi_0^m> / m! through cp-degree k, a
    finite sum: the m-fold bracket has cp-degree at least m(b-1)+1 with
    b = min cp-degree of Pi_0.  The <Pi_0^m> come from power_brackets,
    which builds each from the smaller ones."""
    if pi0.is_zero():
        return pi0
    b = max(2, pi0.min_cp())
    total = SymTensor.zero(pi0.alg, 1)
    for m, term in enumerate(power_brackets(pi0, (k - 1) // (b - 1), k), 1):
        total = (total + term / math.factorial(m)).truncate_cp(k)
    return total


# ---------------------------------------------------------------------------
# verification


class DegreeLine(NamedTuple):
    degree: int
    direct_zero: bool
    agree: bool


class MasterReport(NamedTuple):
    """A residual through cp-degree k evaluated two ways, directly and in
    structured form, which must agree term by term, with the boundary
    conditions that fail next to it.  The one pass rule: the residual is
    zero, the two forms agree and no boundary condition fails.

    verify_master evaluates the master equations {Omega^a, Omega^b}'
    against G = W Pi + F + A Pi + quad(Pi), with Omega's failed
    derivative read-offs; lift evaluates {Omega^a, Phi'}', with the
    names of the lift's failed boundary conditions."""

    k: int
    residual: SymTensor
    structured: SymTensor
    boundary: tuple

    @property
    def agree(self) -> bool:
        return self.residual == self.structured

    @property
    def ok(self) -> bool:
        return self.residual.is_zero() and self.agree and not self.boundary

    @property
    def lines(self) -> tuple:
        """One DegreeLine per cp-degree 0..k."""
        return tuple(DegreeLine(d, (dp := self.residual.cp_part(d)).is_zero(),
                                dp == self.structured.cp_part(d))
                     for d in range(self.k + 1))

    def degree_rows(self, noun: str) -> list:
        """One report row per DegreeLine, naming the residual noun."""
        return [f"  degree {line.degree}: {noun} "
                + ("zero" if line.direct_zero else "NONZERO")
                + ("" if line.agree else "  [structured form DISAGREES]")
                for line in self.lines]

    def render(self) -> str:
        """The report of solve and verify: the master equations degree by
        degree, then each boundary violation or that there is none."""
        head = "master equations: " + ("satisfied" if self.residual.is_zero() else "VIOLATED")
        rows = [f"boundary condition violated: {p}" for p in self.boundary]
        return "\n".join([f"{head} through cp-degree {self.k}", *self.degree_rows("residual"),
                          *(rows or ["boundary conditions: satisfied"])])


def verify_master(omega: SymTensor, k: int) -> MasterReport:
    """Evaluate {Omega^a, Omega^b}' directly and compare with the structured
    residual; the two agree identically for any Pi = Omega - Omega_1.  All
    four (a, b) entries come from one Algebra.brackets call, so from_full
    checks their symmetry.  The report carries Omega's boundary
    violations."""
    alg = omega.alg
    comps = [omega.get((1,)), omega.get((2,))]
    table = alg.brackets(comps, comps, max_cp=k)
    direct = SymTensor.from_full(alg, 2, lambda idx: table[idx[0] - 1][idx[1] - 1])
    pi = omega - build_omega1(alg)
    structured = (apply_W(pi) + build_F(alg) + apply_A(pi)
                  + quad_term(pi, k)).truncate_cp(k)
    return MasterReport(k, direct, structured, tuple(boundary_violations(omega)))


def boundary_violations(omega: SymTensor):
    """Derivative read-offs: d_l Omega^a / dC^(alpha b) at C=pi=P=lambda=0
    must equal xi_alpha delta^a_b, and d_l Omega^a / dpi^alpha at
    C=pi=lambda=0 must equal eps^ab P_(alpha b).  Each component is walked
    once for all its 3m read-offs."""
    alg = omega.alg
    ghost_zero = (Sector.GHOST, Sector.LAGRANGE_MOM, Sector.GHOST_MOM,
                  Sector.LAGRANGE)
    pi_zero = (Sector.GHOST, Sector.LAGRANGE_MOM, Sector.LAGRANGE)
    vids = [v for r in range(1, alg.m + 1)
            for v in (alg.vid(Sector.GHOST, r, 1), alg.vid(Sector.GHOST, r, 2),
                      alg.vid(Sector.LAGRANGE_MOM, r))]
    problems = []
    for a in (1, 2):
        derivs = dict(zip(vids, alg.derive_left(omega.get((a,)), vids)))
        for r in range(1, alg.m + 1):
            for b in (1, 2):
                d = derivs[alg.vid(Sector.GHOST, r, b)]
                d = d.substitute_zero(ghost_zero)
                want = alg.xi(r) if a == b else alg.zero()
                if d != want:
                    problems.append(
                        f"dOmega^{a}/dC[{r},{b}] at zero ghosts is {d!r}, "
                        f"expected {want!r}")
            d = derivs[alg.vid(Sector.LAGRANGE_MOM, r)]
            d = d.substitute_zero(pi_zero)
            want = alg.ghost_mom(r, 3 - a) * EPS_UP[(a, 3 - a)]
            if d != want:
                problems.append(
                    f"dOmega^{a}/dpi[{r}] at zero ghosts is {d!r}, "
                    f"expected {want!r}")
    return problems


# ---------------------------------------------------------------------------
# the pipeline


class SolverResult(NamedTuple):
    """Everything the construction produced, plus the verification report."""

    algebra: Algebra
    k: int
    method: Method
    omega: SymTensor
    omega1: SymTensor
    f: SymTensor
    pi: SymTensor
    report: MasterReport

    @property
    def ok(self) -> bool:
        return self.report.ok

    def render(self) -> str:
        spec = self.algebra.spec
        return "\n".join([
            f"theory: {spec.label} (m={spec.m}, physical={spec.n_physical})",
            f"truncation: cp-degree {self.k}, method {self.method.value}",
            f"Omega terms: {self.omega.term_count()} "
            f"(boundary {self.omega1.term_count()}, correction {self.pi.term_count()})",
            self.report.render(),
        ])


def solve(alg: Algebra, k: int, method: Method = Method.BOTH, *,
          upsilon: SymTensor | None = None) -> SolverResult:
    """Assemble Omega^a = Omega_1^a + Pi^a over alg's theory and verify the
    master equations exactly through cp-degree k (the count of ghosts C
    and pi), from 2 to MAX_ORDER.  upsilon, the boundary datum, is zero
    unless given (see validate_upsilon)."""
    if not 2 <= k <= MAX_ORDER:
        raise InputError(f"truncation degree k must be from 2 to {MAX_ORDER}")
    if upsilon is None:
        upsilon = SymTensor.zero(alg, 1)
    else:
        validate_upsilon(alg, upsilon)
    omega1 = build_omega1(alg)
    f = build_F(alg)
    seed = projected_seed(upsilon, f)
    # Pi_0 serves only the descendant sum; with both, it is built first
    pi0 = None if method is Method.FIXED_POINT else build_pi0(seed, k)
    pi = None if method is Method.DESCENDANTS else solve_pi_fixed_point(seed, k)
    if pi0 is not None:
        descended = solve_pi_descendants(pi0, k)
        if pi is None:
            pi = descended
        elif pi != descended:
            raise ConventionError("fixed-point and descendant expansions disagree")
    omega = omega1 + pi
    return SolverResult(algebra=alg, k=k, method=method, omega=omega, omega1=omega1,
                        f=f, pi=pi, report=verify_master(omega, k))
