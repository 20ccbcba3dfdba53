"""Tests for the randomized operator-identity suite.

The suite itself is a verification tool, so these tests check the tool:
that its samples really live in the domain it claims (every term carries
a counted factor, degrees capped), that the kernel projector lands in
ker W, that a run over a small parameter set reports all identities
clean, and that reports are deterministic and render failures honestly,
a failing sample counted once per identity.
"""

import random
from pathlib import Path

import sp2brst.identities as identities
from solver_oracles import term_cpdeg, term_ndeg
from sp2brst.algebra import Algebra
from sp2brst.identities import (IdentityReport, IdentityResult,
                                random_element, random_tensor,
                                random_w_closed, run_identity_suite,
                                w_closed_part)
from sp2brst.operators import apply_W
from sp2brst.tensors import SymTensor
from sp2brst.theoryfile import parse_theory
from sp2brst.theory import mixed_parity_spec, so3_spec


SHIFT = parse_theory((Path(__file__).resolve().parent.parent
                     / "theories" / "shift.json").read_text()).spec


def test_random_element_stays_in_domain():
    for spec in (mixed_parity_spec(), SHIFT):
        alg = Algebra(spec)
        rng = random.Random(5)
        seen = set()
        for _ in range(30):
            x = random_element(alg, rng, max_cp=3, max_n=2)
            assert not x.is_zero()
            for mono in x.terms:
                # every term must be N-invertible and within the caps
                assert 1 <= term_ndeg(alg, mono) <= 2
                assert term_cpdeg(alg, mono) <= 3
                seen.update(v for v, _ in mono)
        # both pools are drawn from in full, the physical xip included
        assert seen == set(range(len(alg.vars))), spec.label


def test_random_element_builds_no_products(monkeypatch):
    # each sample is a sum of monomials packed by one Algebra.poly call
    algebras = [Algebra(mixed_parity_spec()), Algebra(SHIFT)]

    def no_mul(*args, **kwargs):
        raise AssertionError("random_element called Algebra.mul")

    monkeypatch.setattr(Algebra, "mul", no_mul)
    for alg in algebras:
        rng = random.Random(9)
        for _ in range(50):
            assert not random_element(alg, rng).is_zero()


def test_random_tensor_is_symmetric_of_requested_rank():
    alg = Algebra(mixed_parity_spec())
    rng = random.Random(6)
    t = random_tensor(alg, rng, 2, max_cp=2, max_n=2)
    assert t.rank == 2
    assert t.get((1, 2)) == t.get((2, 1))
    assert not t.is_zero()
    t0 = random_tensor(alg, rng, 0, max_cp=2, max_n=2)
    assert t0.rank == 0


def test_w_closed_part_lands_in_kernel():
    alg = Algebra(mixed_parity_spec())
    rng = random.Random(7)
    seen_nonzero = False
    for _ in range(20):
        x = random_element(alg, rng, max_cp=3, max_n=3)
        xc = w_closed_part(x)
        assert apply_W(SymTensor.from_scalar(xc)).is_zero()
        seen_nonzero = seen_nonzero or not xc.is_zero()
    assert seen_nonzero


def test_random_w_closed_is_nonzero_and_closed():
    alg = Algebra(mixed_parity_spec())
    rng = random.Random(8)
    xc = random_w_closed(alg, rng, max_cp=3, max_n=3)
    assert not xc.is_zero()
    assert apply_W(SymTensor.from_scalar(xc)).is_zero()


def test_suite_reports_all_identities_clean():
    rep = run_identity_suite(degree=2, samples=3, seed=7)
    assert rep.ok
    assert len(rep.results) == 21
    assert {r.domain for r in rep.results} == {"V", "ker W"}
    for r in rep.results:
        assert r.samples == 3
        assert r.failures == 0
        assert r.first_defect is None
    names = {r.name for r in rep.results}
    assert "W symmetrized nilpotency" in names
    assert "W-Gamma anticommutator = delta N" in names
    assert "M^5 reduction to M^2 and M" in names
    assert "X = W+ W X + W W+ X on rank 2" in names
    assert "kernel reconstruction from M and bar operators" in names


def test_suite_is_deterministic():
    a = run_identity_suite(degree=2, samples=3, seed=7).render()
    b = run_identity_suite(degree=2, samples=3, seed=7).render()
    assert a == b
    assert "cp-degree <= 2" in a
    assert "seed 7" in a
    assert "theory mixed" in a
    assert "[ker W]" in a
    assert a.splitlines()[-1] == "identity suite: all identities hold"


def test_suite_accepts_explicit_spec():
    rep = run_identity_suite(degree=2, samples=2, seed=3, spec=so3_spec())
    assert rep.ok
    assert rep.label == "so3"
    assert "theory so3" in rep.render()


def test_report_renders_failures():
    bad = IdentityResult(name="toy check", domain="V", samples=5,
                         failures=2, first_defect="sample 0: GradedPoly(...)")
    assert not bad.ok
    rep = IdentityReport(label="toy", degree=1, samples=5, seed=0,
                         results=(bad,))
    assert not rep.ok
    text = rep.render()
    assert "toy check [V]: FAILED (2/5)" in text
    assert "first defect: sample 0" in text
    assert text.splitlines()[-1] == "identity suite: FAILURES FOUND"


def test_suite_counts_a_failing_sample_once(monkeypatch):
    # a broken W^a fails the symmetrized nilpotency at every index pair of
    # a sample; the sample is still one failure of that identity
    w_component = identities.w_component
    monkeypatch.setattr(identities, "w_component", lambda p, a: w_component(p, a) + p)
    rep = run_identity_suite(samples=5, seed=0)
    assert not rep.ok
    for r in rep.results:
        assert r.failures <= r.samples == 5
    (nil,) = [r for r in rep.results if r.name == "W symmetrized nilpotency"]
    assert nil.failures == 5
    assert nil.first_defect.startswith("sample 0: ")
    assert "W symmetrized nilpotency [V]: FAILED (5/5)" in rep.render()
