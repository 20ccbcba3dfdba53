"""Exact construction of Sp(2)-symmetric BRST charges and observables.

The package builds, for an irreducible first-class constraint system
given by a polynomial structure table, the pair of charges Omega^a
satisfying the master equations {Omega^a, Omega^b}' = 0 together with
lifts of first-class functions to observables commuting with both
charges.  All arithmetic is exact (rational coefficients); every result
is re-verified degree by degree against an independent evaluation of
the defining brackets.

``import sp2brst`` loads no submodule: each name of ``__all__`` imports
its module on first access (PEP 562), so a process loads only the
modules it uses.
"""

from importlib import import_module

# the module of each public name
_MODULES = {
    **dict.fromkeys(("Algebra", "GradedPoly", "InputError", "Sector",
                     "TermBudgetError", "TheoryError"), "algebra"),
    "SymTensor": "tensors",
    **dict.fromkeys(("TheorySpec", "mixed_parity_spec", "jacobi_violations"), "theory"),
    **dict.fromkeys(("Method", "SolverResult", "MasterReport", "ConventionError",
                     "solve", "verify_master"), "solver"),
    **dict.fromkeys(("NotFirstClassError", "ObservableLift", "RealizationReport",
                     "check_first_class", "lift", "restrict", "verify_realization"),
                    "observables"),
    **dict.fromkeys(("TheoryDocument", "TheoryFileError", "parse_theory"),
                    "theoryfile"),
}

__all__ = list(_MODULES)

__version__ = "0.1.0"


def __getattr__(name):
    """Import the module of a public name and bind the name here; any
    other name is missing, so ``from sp2brst import cli`` imports the
    submodule."""
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULES[name]}", __name__), name)
    return value
