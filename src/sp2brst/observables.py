"""Lifting first-class functions to observables of the extended theory.

A first-class function phi0 (a polynomial in the matter variables whose
bracket with every constraint lies in the ideal generated by the
constraints) extends to Phi' = phi0 + K commuting with both charges,

    {Omega^a, Phi'}' = 0,

subject to the boundary conditions ngh(Phi') = 0, Phi'|_(C=pi=0) = phi0
and barGamma K = 0.  Those conditions remove the homogeneous freedom of
the projected equation, leaving

    K = -(I + W+(A + ad Pi))^-1 W+ [Omega, phi0],

solved one cp-degree at a time (A + ad Pi raises the degree), which is
built from W+ images and therefore satisfies barGamma K = 0
automatically (barGamma W+ = 0).  Restriction to C = pi = 0 inverts the
lift, and on lifted elements the bracket and the product restrict to the
bracket and the product of the originals: the first-class functions and
their lifts realize the same algebra.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import _MATTER_SECTORS, Algebra, GradedPoly, InputError, Sector
from .operators import apply_W, apply_W_plus, bar_gamma
from .solver import MasterReport, SolverResult, apply_A, neumann_apply, tensor_bracket
from .tensors import SymTensor

_RESTRICTED = (Sector.GHOST, Sector.LAGRANGE_MOM)


class NotFirstClassError(ValueError):
    """The function's bracket with some constraint leaves the constraint
    ideal; the witness records the constraint index and the remainder."""

    def __init__(self, alpha: int, remainder: GradedPoly):
        self.alpha = alpha
        self.remainder = remainder
        super().__init__(
            f"not first class: {{phi0, xi[{alpha}]}} has remainder "
            f"{remainder!r} outside the constraint ideal")


def require_matter_only(phi0: GradedPoly) -> None:
    others = [s for s in Sector if s not in _MATTER_SECTORS]
    if phi0.substitute_zero(others).term_count() != phi0.term_count():
        raise InputError("phi0 must be a polynomial in the matter variables only")


def check_first_class(phi0: GradedPoly, alg: Algebra | None = None) -> None:
    """First class means {phi0, xi_alpha}' lies in the ideal generated by
    the constraints for every alpha.  The ideal is linear in the xi, so
    membership is decided by setting xi = 0: the remainder must vanish.
    One Algebra.brackets call gives every {phi0, xi_alpha}'; the first
    alpha with a remainder raises NotFirstClassError."""
    alg = phi0.alg if alg is None else alg
    require_matter_only(phi0)
    (row,) = alg.brackets([phi0], [alg.xi(alpha) for alpha in range(1, alg.m + 1)])
    for alpha, br in enumerate(row, 1):
        if remainder := br.substitute_zero((Sector.XI,)):
            raise NotFirstClassError(alpha, remainder)


def restrict(phi_prime: GradedPoly) -> GradedPoly:
    """Inverse of the lift: set the ghosts C and pi to zero."""
    return phi_prime.substitute_zero(_RESTRICTED)


# the boundary conditions of a lift; its report's boundary names those
# that fail
BAR_GAMMA, RESTRICTION, NGH = "barGamma K = 0", "restriction returns phi0", "ngh(Phi') = 0"


class ObservableLift(NamedTuple):
    """A lifted observable, phi_prime = phi0 + K, with its verification record.

    report's residual is the directly evaluated {Omega^a, Phi'}' and its
    structured form W K + [Omega, phi0] + A K + [Pi, K], the last two
    terms summed from the images the solve for K formed.  Both must
    vanish through the truncation degree and agree term by term for any
    K, and report.boundary names each of BAR_GAMMA, RESTRICTION and NGH
    that fails.
    """

    phi0: GradedPoly
    k_part: GradedPoly
    phi_prime: GradedPoly
    report: MasterReport

    @property
    def ok(self) -> bool:
        return self.report.ok

    def render(self) -> str:
        def mark(condition):
            return "NO" if condition in self.report.boundary else "yes"

        return "\n".join([
            "observable lift: " + ("verified" if self.ok else "FAILED")
            + f" through cp-degree {self.report.k}",
            f"  correction terms: {self.k_part.term_count()}",
            *self.report.degree_rows("commutator"),
            f"  boundary {BAR_GAMMA}: {mark(BAR_GAMMA)}",
            f"  {RESTRICTION}: {mark(RESTRICTION)}",
        ])


def lift(phi0: GradedPoly, omega_result: SolverResult) -> ObservableLift:
    """Extend a first-class phi0 to Phi' = phi0 + K with
    {Omega^a, Phi'}' = 0 through the solver's truncation degree.  Every
    polynomial formed stays under the term budget of the solve's algebra.

    A non-first-class phi0 is rejected: check_first_class raises
    NotFirstClassError with the witnessing constraint and remainder.
    """
    alg = omega_result.algebra
    if not alg.compatible(phi0.alg):
        raise ValueError("phi0 belongs to an algebra over a different theory")
    check_first_class(phi0, alg)

    omega, pi = omega_result.omega, omega_result.pi
    k = omega_result.k

    # the solve calls op once per degree part of K, so the images it
    # returns add up to (A + [Pi, .]) K, a term of the structured residual
    images = SymTensor.zero(alg, 1)

    def op(t: SymTensor) -> SymTensor:
        nonlocal images
        image = apply_A(t) + tensor_bracket(pi, t, k)
        images = images + image
        return image

    # [Omega, phi0] seeds K and is a term of the structured residual
    omega_phi0 = tensor_bracket(omega, SymTensor.from_scalar(phi0), k)
    seed = -apply_W_plus(omega_phi0)
    k_tensor = neumann_apply(op, seed, k)
    k_part = k_tensor.get(())
    phi_prime = phi0 + k_part

    direct = tensor_bracket(omega, SymTensor.from_scalar(phi_prime), k)
    structured = (apply_W(k_tensor) + omega_phi0 + images).truncate_cp(k)
    try:
        ngh_ok = phi_prime.ngh() == 0
    except ValueError:  # terms of different ngh
        ngh_ok = False
    failed = tuple(name for name, holds in (
        (BAR_GAMMA, bar_gamma(k_part).is_zero()),
        (RESTRICTION, restrict(phi_prime) == phi0),
        (NGH, ngh_ok)) if not holds)
    return ObservableLift(phi0, k_part, phi_prime,
                          MasterReport(k, direct, structured, failed))


class RealizationReport(NamedTuple):
    """Bracket and product compatibility of two lifts under restriction."""

    bracket_restricted: GradedPoly
    bracket_expected: GradedPoly
    product_restricted: GradedPoly
    product_expected: GradedPoly

    @property
    def bracket_ok(self) -> bool:
        return self.bracket_restricted == self.bracket_expected

    @property
    def product_ok(self) -> bool:
        return self.product_restricted == self.product_expected

    @property
    def ok(self) -> bool:
        return self.bracket_ok and self.product_ok

    def render(self) -> str:
        return ("realization: bracket "
                + ("matches" if self.bracket_ok else "DIFFERS")
                + ", product "
                + ("matches" if self.product_ok else "DIFFERS"))


def verify_realization(lift1: ObservableLift, lift2: ObservableLift) -> RealizationReport:
    """restrict({Phi'_1, Phi'_2}') must equal {phi_1, phi_2}' and
    restrict(Phi'_1 Phi'_2) must equal phi_1 phi_2, exactly."""
    if lift1.report.k != lift2.report.k:
        raise ValueError("lifts were computed at different truncation orders")
    alg = lift1.phi0.alg
    phi1, phi2 = lift1.phi_prime, lift2.phi_prime
    # restrict keeps exactly the cp-degree 0 terms, so nothing above it
    # needs forming
    return RealizationReport(
        restrict(alg.bracket(phi1, phi2, max_cp=0)),
        alg.bracket(lift1.phi0, lift2.phi0, max_cp=0),
        restrict(alg.mul(phi1, phi2, max_cp=0)),
        alg.mul(lift1.phi0, lift2.phi0, max_cp=0))
