"""Exact construction of Sp(2)-symmetric BRST charges and observables.

The package builds, for an irreducible first-class constraint system
given by a polynomial structure table, the pair of charges Omega^a
satisfying the master equations {Omega^a, Omega^b}' = 0 together with
lifts of first-class functions to observables commuting with both
charges.  All arithmetic is exact (rational coefficients); every result
is re-verified degree by degree against an independent evaluation of
the defining brackets.
"""

from .algebra import Algebra, GradedPoly, Sector, TermBudgetError, TheoryError
from .observables import (FirstClassCheck, NotFirstClassError, ObservableLift,
                          RealizationReport, check_first_class, lift, restrict,
                          verify_realization)
from .solver import (ConventionError, MasterReport, Method, SolverConfig,
                     SolverResult, solve, verify_master)
from .tensors import SymTensor
from .theory import (TheorySpec, abelian_spec, deformed_so3_spec,
                     jacobi_violations, mixed_parity_spec, so3_spec)
from .theoryfile import TheoryDocument, TheoryFileError, parse_theory

__all__ = [
    "Algebra", "GradedPoly", "Sector", "TheoryError", "SymTensor",
    "TheorySpec", "abelian_spec", "so3_spec", "deformed_so3_spec",
    "mixed_parity_spec", "jacobi_violations",
    "SolverConfig", "Method", "SolverResult", "MasterReport",
    "ConventionError", "TermBudgetError", "solve", "verify_master",
    "FirstClassCheck", "NotFirstClassError", "ObservableLift",
    "RealizationReport", "check_first_class", "lift", "restrict",
    "verify_realization",
    "TheoryDocument", "TheoryFileError", "parse_theory",
]

__version__ = "0.1.0"
