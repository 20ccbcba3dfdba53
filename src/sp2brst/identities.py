"""Randomized verification of the operator calculus.

Every identity the construction rests on is checked exactly on seeded
random elements: the symmetrized nilpotency of W and Gamma, the
anticommutator W^a Gamma_b + Gamma_b W^a = delta^a_b N, the reduction of
M powers to M^2 and M, the rank-level commutation and anticommutation
relations of W, Gamma, M and N, the generalized-inverse property
W W+ W = W with (W+)^2 = 0, the image/kernel decomposition
X = W+ W X + W W+ X, and the reconstruction identities built from the
antisymmetrized squares barW = eps_ab W^a W^b and
barGamma = eps^ab Gamma_a Gamma_b.

The bar identities hold on the kernel of W (where the uniqueness
argument uses them); samples for those are projected with I - W+ W,
which maps into ker W because W W+ W = W.  On general elements they can
fail -- lam[1] is a counterexample -- so the suite labels their domain.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .algebra import Algebra, TheoryError
from .operators import (apply_Gamma, apply_M, apply_N, apply_W,
                        apply_W_plus, bar_gamma, bar_w, gamma_component,
                        m_component, n_apply, n_inverse, w_component)
from .tensors import SymTensor
from .theory import TheorySpec, mixed_parity_spec

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
MAX_MONOMIALS = 4


def random_element(alg: Algebra, rng: random.Random, max_cp: int = 4,
                   max_n: int = 4):
    """A random polynomial of 1 to MAX_MONOMIALS monomials, each with a
    counted factor (so N is invertible on it), of cp-degree <= max_cp and
    N-degree <= max_n, with degrees and parities mixed.  A monomial is a
    coefficient times 1 to max_n factors of N-weight 1 (xi, P, lam) and 0
    to max_cp of N-weight 0 (C, pi, xip), pools read off alg.var_nwt; it
    is drawn again (up to 30 times) if an odd factor repeats."""
    counted = [v for v, w in enumerate(alg.var_nwt) if w]
    uncounted = [v for v, w in enumerate(alg.var_nwt) if not w]
    terms = Counter()
    for _ in range(rng.randint(1, MAX_MONOMIALS)):
        for _attempt in range(30):
            coeff = Fraction(rng.choice([s for s in range(-9, 10) if s]),
                             rng.randint(1, 9))
            factors = Counter(rng.choice(counted) for _ in range(rng.randint(1, max_n)))
            factors.update(rng.choice(uncounted) for _ in range(rng.randint(0, max_cp)))
            if all(e == 1 or not alg.var_parity[v] for v, e in factors.items()):
                terms[tuple(sorted(factors.items()))] += coeff
                break
    return alg.poly(terms)


def random_tensor(alg: Algebra, rng: random.Random, rank: int, **kw) -> SymTensor:
    """One random element per component, drawn in SymTensor.indices() order."""
    keys = SymTensor.zero(alg, rank).indices()
    return SymTensor(alg, rank, {key: random_element(alg, rng, **kw) for key in keys})


def w_closed_part(x):
    """Project into ker W: W(X - W+ W X) = (W - W W+ W) X = 0."""
    t = SymTensor.from_scalar(x)
    return (t - apply_W_plus(apply_W(t))).get(())


def random_w_closed(alg: Algebra, rng: random.Random, **kw):
    for _ in range(20):
        xc = w_closed_part(random_element(alg, rng, **kw))
        if xc:
            return xc
    return alg.zero()


class IdentityResult(NamedTuple):
    name: str
    domain: str
    samples: int
    failures: int
    first_defect: str | None = None

    @property
    def ok(self) -> bool:
        return self.failures == 0


class IdentityReport(NamedTuple):
    label: str
    degree: int
    samples: int
    seed: int
    results: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self) -> str:
        rows = [
            f"operator identity suite: theory {self.label}, "
            f"cp-degree <= {self.degree}, N-degree <= {self.degree}, "
            f"{self.samples} samples, seed {self.seed}"
        ]
        for r in self.results:
            status = "ok" if r.ok else f"FAILED ({r.failures}/{r.samples})"
            rows.append(f"  {r.name} [{r.domain}]: {status}")
            if r.first_defect:
                rows.append(f"    first defect: {r.first_defect}")
        rows.append("identity suite: " + ("all identities hold" if self.ok
                                          else "FAILURES FOUND"))
        return "\n".join(rows)


def _poly_checks(alg, x):
    """Defects of the first-order identities on one element of V; the
    symmetrized sums are formed once per unordered (a, b)."""
    out = []
    nx = n_apply(x)
    for a, b in ((1, 1), (1, 2), (2, 2)):
        out.append(("W symmetrized nilpotency", "V",
                    w_component(w_component(x, b), a) + w_component(w_component(x, a), b)))
        out.append(("Gamma symmetrized nilpotency", "V",
                    gamma_component(gamma_component(x, b), a)
                    + gamma_component(gamma_component(x, a), b)))
    for a in (1, 2):
        for b in (1, 2):
            anti = (w_component(gamma_component(x, b), a)
                    + gamma_component(w_component(x, a), b))
            want = nx if a == b else alg.zero()
            out.append(("W-Gamma anticommutator = delta N", "V", anti - want))

    m1 = m_component(x)
    m2 = m_component(m1)
    mp = m2
    for n in (3, 4, 5):
        mp = m_component(mp)
        rhs = ((2 ** (n - 1) - 1) * _n_power(m2, n - 2)
               - (2 ** (n - 1) - 2) * _n_power(m1, n - 1))
        out.append((f"M^{n} reduction to M^2 and M", "V", mp - rhs))
    return out


def _n_power(p, k):
    for _ in range(k):
        p = n_apply(p)
    return p


def _tensor_checks(alg, tensors):
    """Defects of the rank-level identities on sample tensors; W X, M X,
    W+ W X and W+ X are computed once each and shared by the identities
    that contain them."""
    out = []
    for t in tensors:
        n = t.rank
        wt = apply_W(t)
        mt = apply_M(t)
        out.append((f"W M = (M + N) W on rank {n}", "V",
                    apply_W(mt) - (apply_M(wt) + apply_N(wt))))
        gw = apply_Gamma(wt)
        if n >= 1:
            gw = gw + apply_W(apply_Gamma(t))
        out.append((f"Gamma W + W Gamma = nN + M on rank {n}", "V",
                    gw - (apply_N(t) * n + mt)))
        wp_wt = apply_W_plus(wt)
        out.append((f"W W+ W = W on rank {n}", "V", apply_W(wp_wt) - wt))
        if n >= 1:
            wp_t = apply_W_plus(t)
            out.append((f"(W+)^2 = 0 on rank {n}", "V", apply_W_plus(wp_t)))
            out.append((f"X = W+ W X + W W+ X on rank {n}", "V",
                        (wp_wt + apply_W(wp_t)) - t))
    return out


def _kernel_checks(alg, xc):
    """Defects of the bar-operator identities on a W-closed element."""
    out = []
    lhs = bar_w(bar_gamma(xc)) - bar_gamma(bar_w(xc))
    rhs = 4 * _n_power(xc, 2) - 2 * m_component(n_apply(xc))
    out.append(("barW barGamma - barGamma barW = 4N^2 - 2MN", "ker W",
                lhs - rhs))
    recon = (m_component(n_inverse(xc)) * HALF
             + (bar_w(bar_gamma(n_inverse(xc, 2)))
                - bar_gamma(bar_w(n_inverse(xc, 2)))) * QUARTER)
    out.append(("kernel reconstruction from M and bar operators", "ker W",
                recon - xc))
    return out


def run_identity_suite(degree: int = 4, samples: int = 100, seed: int = 0,
                       spec: TheorySpec | None = None) -> IdentityReport:
    """Check every identity on `samples` seeded random elements of
    cp-degree and N-degree at most `degree`; a failing sample counts once
    per identity, which keeps its first defect.

    Results are deterministic functions of (degree, samples, seed, spec).
    """
    if spec is None:
        spec = mixed_parity_spec()
    if spec.m == 0:
        raise TheoryError("the identity suite needs at least one constraint")
    alg = Algebra(spec)
    rng = random.Random(seed)
    kw = dict(max_cp=degree, max_n=degree)

    tally: dict = {}
    for i in range(samples):
        x = random_element(alg, rng, **kw)
        tensors = [SymTensor.from_scalar(x),
                   random_tensor(alg, rng, 1, **kw),
                   random_tensor(alg, rng, 2, **kw)]
        xc = random_w_closed(alg, rng, **kw)
        failed = set()
        for name, domain, defect in (_poly_checks(alg, x) + _tensor_checks(alg, tensors)
                                     + _kernel_checks(alg, xc)):
            key = (name, domain)
            fails, first = tally.get(key, (0, None))
            if defect and key not in failed:
                failed.add(key)
                fails += 1
                if first is None:
                    first = f"sample {i}: {defect!r}"[:200]
            tally[key] = (fails, first)

    results = tuple(IdentityResult(name, domain, samples, fails, first)
                    for (name, domain), (fails, first) in tally.items())
    return IdentityReport(spec.label or "anonymous", degree, samples, seed,
                          results)
