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

Sample i is drawn from its own stream, seeded with the text "seed:i", so
it depends only on (seed, i).  The samples are checked on one process per
CPU: the parent forks a worker per share, checks its own share through
the same chunk function, and merges every per-sample row in sample
order, so the report and its first defects are those of a one-process
run.
"""

from __future__ import annotations

import marshal
import os
import random
import sys
from collections import Counter
from typing import NamedTuple

from .algebra import Algebra, TheoryError
from .operators import (apply_Gamma, apply_M, apply_N, apply_W,
                        apply_W_plus, bar_gamma, bar_w, gamma_component,
                        m_component, n_apply, n_inverse, w_component)
from .tensors import SymTensor
from .theory import mixed_parity_spec

MAX_MONOMIALS = 4
# lcm(1..9): every coefficient s/q the sampler draws is s * (COMMON_DEN // q)
# over it
COMMON_DEN = 2520


def random_element(alg: Algebra, rng: random.Random, max_cp: int = 4,
                   max_n: int = 4):
    """A random polynomial of 1 to MAX_MONOMIALS monomials, each with a
    counted factor (so N is invertible on it), of cp-degree <= max_cp and
    N-degree <= max_n, with degrees and parities mixed.  A monomial is a
    coefficient times 1 to max_n factors of N-weight 1 (xi, P, lam) and 0
    to max_cp of N-weight 0 (C, pi, xip), pools read off alg.var_nwt; it
    is drawn again (up to 30 times) if an odd factor repeats.  The
    coefficient s/q is summed as the int s * (COMMON_DEN // q), and the sum
    divided by COMMON_DEN."""
    counted = [v for v, w in enumerate(alg.var_nwt) if w]
    uncounted = [v for v, w in enumerate(alg.var_nwt) if not w]
    terms = Counter()
    for _ in range(rng.randint(1, MAX_MONOMIALS)):
        for _attempt in range(30):
            num = rng.choice([s for s in range(-9, 10) if s])
            coeff = num * (COMMON_DEN // rng.randint(1, 9))
            factors = Counter(rng.choice(counted) for _ in range(rng.randint(1, max_n)))
            factors.update(rng.choice(uncounted) for _ in range(rng.randint(0, max_cp)))
            if all(e == 1 or not alg.var_parity[v] for v, e in factors.items()):
                terms[tuple(sorted(factors.items()))] += coeff
                break
    return alg.poly(terms) / COMMON_DEN


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
        rhs = ((2 ** (n - 1) - 1) * n_apply(m2, n - 2)
               - (2 ** (n - 1) - 2) * n_apply(m1, n - 1))
        out.append((f"M^{n} reduction to M^2 and M", "V", mp - rhs))
    return out


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
    rhs = 4 * n_apply(xc, 2) - 2 * m_component(n_apply(xc))
    out.append(("barW barGamma - barGamma barW = 4N^2 - 2MN", "ker W",
                lhs - rhs))
    recon = (m_component(n_inverse(xc)) / 2
             + (bar_w(bar_gamma(n_inverse(xc, 2)))
                - bar_gamma(bar_w(n_inverse(xc, 2)))) / 4)
    out.append(("kernel reconstruction from M and bar operators", "ker W",
                recon - xc))
    return out


def _sample_rows(alg, degree: int, seed: int, i: int) -> list:
    """Draw sample i from its own stream and check every identity on it:
    one (name, domain, first defect or None) row per identity, in report
    order.  A defect names the sample, so a failing sample counts once per
    identity however many of its index pairs fail."""
    rng = random.Random(f"{seed}:{i}")
    kw = dict(max_cp=degree, max_n=degree)
    x = random_element(alg, rng, **kw)
    tensors = [SymTensor.from_scalar(x),
               random_tensor(alg, rng, 1, **kw),
               random_tensor(alg, rng, 2, **kw)]
    xc = random_w_closed(alg, rng, **kw)
    found: dict = {}
    for name, domain, defect in (_poly_checks(alg, x) + _tensor_checks(alg, tensors)
                                 + _kernel_checks(alg, xc)):
        if found.get((name, domain)) is None:
            found[name, domain] = f"sample {i}: {defect!r}"[:200] if defect else None
    return [(name, domain, first) for (name, domain), first in found.items()]


def _check_chunk(alg, degree: int, seed: int, indices: range,
                 parent: int | None = None) -> list:
    """The rows of the samples at `indices`, in order, up to the first
    sample that raises; the caller checks that one again to raise.  A
    worker passes its parent's pid and leaves through os._exit, between
    two samples, once its parent has changed: the parent was killed, and
    nothing will read its rows."""
    rows = []
    for i in indices:
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        try:
            rows.append(_sample_rows(alg, degree, seed, i))
        except Exception:
            break
    return rows


def _workers(samples: int) -> int:
    """One process per CPU this process may run on, at most one per
    sample; one where os.fork is missing or another thread is running,
    since a lock that thread holds would stay locked in a forked child."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, samples))


def _fork(task, *args) -> tuple:
    """Fork a worker that writes marshal.dumps(task(*args)) to a pipe and
    exits 0; returns its pid and the read end of the pipe.  It leaves
    through os._exit, so it never flushes the parent's buffered output or
    runs its exit hooks."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            data = memoryview(marshal.dumps(task(*args)))
            while data:
                data = data[os.write(write_fd, data):]
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _read_all(fd: int) -> bytes:
    return b"".join(iter(lambda: os.read(fd, 1 << 16), b""))


def run_identity_suite(degree: int = 4, samples: int = 100, seed: int = 0,
                       alg: Algebra | None = None) -> IdentityReport:
    """Check every identity on `samples` seeded random elements of alg
    (default: the mixed2 algebra) of cp-degree and N-degree at most
    `degree`; a failing sample counts once per identity, which keeps its
    first defect.

    Sample i depends only on (seed, i).  With n processes (one per CPU),
    forked worker j checks samples j, j + n, ... and the parent samples
    0, n, ...; a worker that dies without its rows, or cannot be forked,
    leaves its samples to the parent.  The parent then checks, in sample
    order, every sample without a row, so the lowest sample that raises
    raises here as it would in one process.  Every worker is reaped
    before this returns, and stopped first if an exception (an interrupt,
    say) leaves it; one whose parent is killed stops before its next
    sample.

    Results are deterministic functions of (degree, samples, seed, alg.spec).
    """
    if alg is None:
        alg = Algebra(mixed_parity_spec())
    if alg.m == 0:
        raise TheoryError("the identity suite needs at least one constraint")
    n = _workers(samples)
    rows: list = [None] * samples

    def place(j, chunk):
        for i, row in zip(range(j, samples, n), chunk):
            rows[i] = row

    workers = []  # (first sample, pid, read end of its pipe)
    payloads, codes = {}, {}
    parent = os.getpid()
    try:
        for j in range(1, n):
            try:
                workers.append((j, *_fork(_check_chunk, alg, degree, seed,
                                          range(j, samples, n), parent)))
            except OSError:
                break
        place(0, _check_chunk(alg, degree, seed, range(0, samples, n)))
        for j, _, fd in workers:
            payloads[j] = _read_all(fd)
    except BaseException:
        # imported only here: signal builds enums that every command's
        # start-up would pay for
        from signal import SIGKILL

        for _, pid, _ in workers:
            os.kill(pid, SIGKILL)  # not yet reaped: pid is still the worker
        raise
    finally:
        for j, pid, fd in workers:
            os.close(fd)
            codes[j] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for j, data in payloads.items():
        if codes[j] == 0:
            place(j, marshal.loads(data))
    for i, row in enumerate(rows):
        if row is None:
            rows[i] = _sample_rows(alg, degree, seed, i)

    tally: dict = {}
    for row in rows:
        for name, domain, defect in row:
            fails, first = tally.get((name, domain), (0, None))
            if defect:
                fails += 1
                first = first or defect
            tally[name, domain] = (fails, first)
    results = tuple(IdentityResult(name, domain, samples, fails, first)
                    for (name, domain), (fails, first) in tally.items())
    return IdentityReport(alg.spec.label or "anonymous", degree, samples, seed,
                          results)
