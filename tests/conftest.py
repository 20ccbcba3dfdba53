from pathlib import Path

import pytest

from sp2brst import Algebra, Method, mixed_parity_spec, solve
from sp2brst.algebra import DEFAULT_MAX_TERMS
from sp2brst.theoryfile import build_algebra, parse_theory

THEORY_DIR = Path(__file__).resolve().parent.parent / "theories"


def bundled(name, max_terms=DEFAULT_MAX_TERMS):
    """The algebra of theories/<name>.json, read as the commands read it."""
    return build_algebra(parse_theory((THEORY_DIR / f"{name}.json").read_bytes()), max_terms)


@pytest.fixture(scope="session")
def so3_result():
    return solve(bundled("so3"), 6, Method.BOTH)


@pytest.fixture(scope="session")
def abelian_result():
    return solve(bundled("abelian3"), 6, Method.BOTH)


@pytest.fixture(scope="session")
def mixed2_result():
    return solve(Algebra(mixed_parity_spec()), 4, Method.BOTH)


@pytest.fixture(scope="session")
def mixed_alg():
    return Algebra(mixed_parity_spec())
