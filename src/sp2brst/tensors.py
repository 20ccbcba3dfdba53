"""Sp(2)-symmetric tensors with polynomial components.

A rank-n tensor stores one component per sorted multi-index over {1, 2}
(n+1 canonical components).  The rank-raising sums (W, A and the bracket
with a rank-1 tensor) go through ``SymTensor.placement_sum``, which
evaluates each distinct (component, index) pair once and is symmetric by
construction.  ``SymTensor.from_full`` builds a tensor from a component
for every full index tuple and verifies that all members of a
permutation orbit agree instead of symmetrising silently; it is the check
for components computed separately, such as the direct
{Omega^a, Omega^b}' of the master-equation residual.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product

from .algebra import GradedPoly


class SymmetryError(ValueError):
    """A tensor built from full components failed the symmetry check."""


class SymTensor:
    __slots__ = ("alg", "rank", "comps")

    def __init__(self, alg, rank, comps=None):
        self.alg = alg
        self.rank = rank
        self.comps = {}
        if comps:
            for idx, p in comps.items():
                key = tuple(sorted(idx))
                if len(key) != rank:
                    raise ValueError(f"index {idx} has wrong length for rank {rank}")
                if p:
                    self.comps[key] = p

    @staticmethod
    def zero(alg, rank):
        return SymTensor(alg, rank)

    @staticmethod
    def from_scalar(p: GradedPoly):
        return SymTensor(p.alg, 0, {(): p})

    @staticmethod
    def from_full(alg, rank, full):
        """Build from a mapping defined on all full index tuples, verifying
        that components agree across each permutation orbit."""
        t = SymTensor(alg, rank)
        seen = {}
        for idx in product((1, 2), repeat=rank):
            p = full(idx) if callable(full) else full[idx]
            key = tuple(sorted(idx))
            if key in seen:
                if seen[key][1] != p:
                    raise SymmetryError(
                        f"components at {seen[key][0]} and {idx} differ; "
                        "result is not Sp(2)-symmetric")
            else:
                seen[key] = (idx, p)
        for key, (_, p) in seen.items():
            if p:
                t.comps[key] = p
        return t

    def placement_sum(self, fn):
        """Rank n -> n+1: out^(a0..an) = sum_j fn(self^(rest_j), aj), with
        rest_j the indices other than aj, for fn linear in its first
        argument.

        Placements of equal indices give equal terms, so each output
        component is sum over the distinct a in its key of
        count(a) * fn(self^(key minus one a), a): at most two calls of fn
        per component, each distinct (rest, a) pair evaluated once.  The
        result is symmetric by construction; zero components are skipped.
        """
        out = SymTensor(self.alg, self.rank + 1)
        for key in out.indices():
            total = None
            for a in (1, 2):
                n = key.count(a)
                if not n:
                    continue
                i = key.index(a)
                rest = self.comps.get(key[:i] + key[i + 1:])
                if rest is None:
                    continue
                p = fn(rest, a)
                if n != 1:
                    p = p * n
                total = p if total is None else total + p
            if total:
                out.comps[key] = total
        return out

    def get(self, idx):
        key = tuple(sorted(idx))
        p = self.comps.get(key)
        return p if p is not None else self.alg.zero()

    def indices(self):
        return list(combinations_with_replacement((1, 2), self.rank))

    def is_zero(self):
        return not self.comps

    def __bool__(self):
        return bool(self.comps)

    def term_count(self):
        return sum(p.term_count() for p in self.comps.values())

    def min_cp(self):
        vals = [p.min_cp() for p in self.comps.values()]
        vals = [v for v in vals if v is not None]
        return min(vals) if vals else None

    def map(self, fn):
        out = SymTensor(self.alg, self.rank)
        for key in self.indices():
            p = fn(self.get(key))
            if p:
                out.comps[tuple(key)] = p
        return out

    def truncate_cp(self, k):
        return self.map(lambda p: p.truncate_cp(k))

    def cp_part(self, d):
        return self.map(lambda p: p.cp_part(d))

    def __add__(self, other):
        if not isinstance(other, SymTensor):
            return NotImplemented
        if other.rank != self.rank:
            raise ValueError("rank mismatch")
        out = SymTensor(self.alg, self.rank)
        for key in set(self.comps) | set(other.comps):
            p = self.get(key) + other.get(key)
            if p:
                out.comps[key] = p
        return out

    def __neg__(self):
        return self.map(lambda p: -p)

    def __sub__(self, other):
        if not isinstance(other, SymTensor):
            return NotImplemented
        return self + (-other)

    def __mul__(self, c):
        from fractions import Fraction

        if isinstance(c, (int, Fraction)):
            return self.map(lambda p: p * c)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SymTensor):
            return NotImplemented
        return self.rank == other.rank and self.comps == other.comps

    __hash__ = None

    def __repr__(self):
        if self.rank == 0:
            return f"SymTensor0({self.get(())!r})"
        body = ", ".join(f"{''.join(map(str, k))}: {p!r}" for k, p in sorted(self.comps.items()))
        return f"SymTensor{self.rank}({{{body}}})"
