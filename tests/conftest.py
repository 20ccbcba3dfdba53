import pytest

from sp2brst import Algebra, Method, abelian_spec, mixed_parity_spec, so3_spec, solve


@pytest.fixture(scope="session")
def so3_result():
    return solve(Algebra(so3_spec()), 6, Method.BOTH)


@pytest.fixture(scope="session")
def abelian_result():
    return solve(Algebra(abelian_spec(3)), 6, Method.BOTH)


@pytest.fixture(scope="session")
def mixed2_result():
    return solve(Algebra(mixed_parity_spec()), 4, Method.BOTH)


@pytest.fixture(scope="session")
def mixed_alg():
    return Algebra(mixed_parity_spec())
