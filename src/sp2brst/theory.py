"""Theory specifications: constraint content and structure tables.

A TheorySpec is immutable data, equal to another when every field is, with
its parities normalised to 0 or 1 and its tables copied into read-only
mappings.  The Poisson structure it induces is realised by
``algebra.Algebra(spec)``:

* ``u_table[(a, b, g)]`` holds the coefficient polynomial of the closed
  constraint bracket  {xi_a, xi_b} = sum_g U_abg * xi_g  (so first-classness
  is manifest).  Values are expression strings in coordinate variables.
* ``mixed_table[(i, j)]`` holds brackets involving at least one physical
  coordinate, with global coordinate indices (constraints first).  Missing
  mirror entries are completed by graded antisymmetry.
* ``names[i - 1]``, if given, is the declared name of global coordinate i,
  which expression strings may write for it.
"""

from __future__ import annotations

from types import MappingProxyType

MAX_REPORT = 10


class TheorySpec:
    __slots__ = ("constraint_parities", "physical_parities", "u_table",
                 "mixed_table", "label", "names")

    def __init__(self, constraint_parities, physical_parities=(),
                 u_table=None, mixed_table=None, label="", names=()):
        put = object.__setattr__
        put(self, "constraint_parities", tuple(p & 1 for p in constraint_parities))
        put(self, "physical_parities", tuple(p & 1 for p in physical_parities))
        put(self, "u_table", MappingProxyType(dict(u_table or {})))
        put(self, "mixed_table", MappingProxyType(dict(mixed_table or {})))
        put(self, "label", label)
        put(self, "names", tuple(names))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    __hash__ = None

    @property
    def m(self):
        return len(self.constraint_parities)

    @property
    def n_physical(self):
        return len(self.physical_parities)


def abelian_spec(m, parities=None, label="abelian"):
    """m constraints with vanishing brackets."""
    if parities is None:
        parities = (0,) * m
    return TheorySpec(tuple(parities), label=label)


def so3_spec(label="so3"):
    """Angular-momentum algebra: {xi_i, xi_j} = eps_ijk xi_k."""
    u = {(1, 2, 3): "1", (2, 3, 1): "1", (3, 1, 2): "1"}
    return TheorySpec((0, 0, 0), u_table=u, label=label)


def deformed_so3_spec(label="so3-deformed"):
    """so(3) with a polynomial deformation {xi_3, xi_1} = xi_2 + xi_2^2.

    The cyclic Jacobi sum vanishes identically for any deformation of this
    entry that depends on xi_2 alone.
    """
    u = {(1, 2, 3): "1", (2, 3, 1): "1", (3, 1, 2): "1 + xi[2]"}
    return TheorySpec((0, 0, 0), u_table=u, label=label)


def mixed_parity_spec(label="mixed2"):
    """One bosonic and one fermionic constraint with a polynomial bracket:
    {xi_2, xi_2} = xi_1 + xi_1^2."""
    u = {(2, 2, 1): "1 + xi[1]"}
    return TheorySpec((0, 1), u_table=u, label=label)


def jacobi_violations(alg):
    """Check the graded Jacobi identity on all coordinate triples.

    Returns a list of (i, j, k, defect) with nonzero defect polynomials,
    the first MAX_REPORT found, where the defect is the graded-cyclic sum
    (-1)^(e_i e_k) {xi_i, {xi_j, xi_k}} + cyclic.  Every {xi_b, xi_c}
    comes from one Algebra.brackets call, and every
    {xi_a, {xi_b, xi_c}} from a second: all n^3, of which the sums read
    about half, since one call for them all ran faster than one call per
    a for only those read (timed for n = 9 to 30).
    """
    n = alg.m + alg.n_physical
    coords = [alg._xi_vid(i + 1) for i in range(n)]
    gens = [alg.gen(v) for v in coords]
    eps = [alg.var_parity[v] for v in coords]
    outer = alg.brackets(gens, [p for row in alg.brackets(gens, gens) for p in row])
    bad = []
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                defect = alg.zero()
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    term = outer[a][b * n + c]
                    if (eps[a] & eps[c]):
                        term = -term
                    defect = defect + term
                if defect:
                    bad.append((i + 1, j + 1, k + 1, defect))
                    if len(bad) >= MAX_REPORT:
                        return bad
    return bad
