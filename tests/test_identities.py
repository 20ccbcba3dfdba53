"""Tests for the randomized operator-identity suite.

The suite itself is a verification tool, so these tests check the tool:
that its samples really live in the domain it claims (every term carries
a counted factor, degrees capped), that the kernel projector lands in
ker W, that a run over a small parameter set reports all identities
clean, and that reports are deterministic and render failures honestly,
a failing sample counted once per identity.  The suite forks one worker
per CPU, so reports, failures and raised errors are checked to be those
of a one-process run at several worker counts, with no child left.
"""

import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import sp2brst.identities as identities
from conftest import bundled
from solver_oracles import term_cpdeg, term_ndeg
from sp2brst.algebra import Algebra
from sp2brst.identities import (IdentityReport, IdentityResult,
                                random_element, random_tensor,
                                random_w_closed, run_identity_suite,
                                w_closed_part)
from sp2brst.cli import main
from sp2brst.expr import serialize
from sp2brst.operators import OutsideDomainError, apply_W
from sp2brst.solver import Method, solve
from sp2brst.tensors import SymTensor
from sp2brst.theoryfile import parse_theory
from sp2brst.theory import mixed_parity_spec


ROOT = Path(__file__).resolve().parent.parent
SHIFT = parse_theory((ROOT / "theories" / "shift.json").read_text()).spec
WORKER_COUNTS = (1, 2, 3, 7)


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
    rep = run_identity_suite(degree=2, samples=2, seed=3, alg=bundled("so3"))
    assert rep.ok
    assert rep.label == "so3"
    assert "theory so3" in rep.render()


def test_mixed_parity_spec_is_its_document(mixed2_result):
    # check-identities without --theory runs mixed_parity_spec: it must
    # stay the theory of theories/mixed2.json
    res = solve(bundled("mixed2"), 4, Method.BOTH)
    assert res.render() == mixed2_result.render()
    for a in (1, 2):
        assert serialize(res.omega.get((a,))) == serialize(mixed2_result.omega.get((a,)))
    spec_report, document_report = (run_identity_suite(2, 3, 0, alg=alg).render()
                                    for alg in (Algebra(mixed_parity_spec()), bundled("mixed2")))
    assert spec_report == document_report


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


def _break_w(monkeypatch, every_sample=True):
    """Add p to W^a p: on every element, or only on those whose term count
    is a multiple of 3, so that some samples fail and others pass."""
    w_component = identities.w_component
    monkeypatch.setattr(identities, "w_component", lambda p, a: w_component(p, a) + (
        p if every_sample or p.term_count() % 3 == 0 else p * 0))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _reports(monkeypatch, **kw) -> list:
    """The suite's report at each worker count, checking after each run
    that every worker was reaped."""
    reports = []
    for n in WORKER_COUNTS:
        monkeypatch.setattr(identities, "_workers", lambda samples, n=n: n)
        reports.append(run_identity_suite(**kw))
        _assert_no_child_left()
    return reports


def test_one_worker_per_cpu_and_one_beside_another_thread():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert identities._workers(1000) == cpus
    assert identities._workers(1) == 1
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert identities._workers(1000) == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize("broken", [None, "every", "some"],
                         ids=["passing", "W-broken", "W-broken-on-some-samples"])
@pytest.mark.parametrize("spec", [mixed_parity_spec(), SHIFT], ids=["mixed2", "shift"])
def test_report_is_the_same_on_every_worker_count(monkeypatch, spec, broken):
    if broken:
        _break_w(monkeypatch, every_sample=broken == "every")
    alg = Algebra(spec)
    reports = _reports(monkeypatch, degree=2, samples=8, seed=0, alg=alg)
    assert len({rep.render() for rep in reports}) == 1
    rep = reports[0]
    assert rep.ok is not bool(broken)
    if broken == "every":
        (nil,) = [r for r in rep.results if r.name == "W symmetrized nilpotency"]
        assert nil.failures == 8
        assert nil.first_defect.startswith("sample 0: ")
    if broken == "some":
        # each identity's count and first defect, from the samples one by one
        defects = {}
        for i in range(8):
            for name, domain, defect in identities._sample_rows(alg, 2, 0, i):
                if defect:
                    defects.setdefault((name, domain), []).append(defect)
        for r in rep.results:
            found = defects.get((r.name, r.domain), [])
            assert (r.failures, r.first_defect) == (len(found), found[0] if found else None)
        assert any(0 < r.failures < 8 and not r.first_defect.startswith("sample 0: ")
                   for r in rep.results)


def test_lowest_raising_sample_raises_on_every_worker_count(monkeypatch, capsys):
    # samples 5 and 7 raise; a one-process run raises at sample 5 whichever
    # process's share holds 5 or 7
    sample_rows = identities._sample_rows

    def raising(alg, degree, seed, i):
        if i in (5, 7):
            raise OutsideDomainError(f"term outside the invertible domain of N: sample {i}")
        return sample_rows(alg, degree, seed, i)

    monkeypatch.setattr(identities, "_sample_rows", raising)
    for n in WORKER_COUNTS:
        monkeypatch.setattr(identities, "_workers", lambda samples, n=n: n)
        with pytest.raises(OutsideDomainError, match="sample 5$"):
            run_identity_suite(degree=2, samples=10, seed=1)
        _assert_no_child_left()
        assert main(["check-identities", "--degree", "2", "--samples", "10"]) == 1
        _assert_no_child_left()
        out = capsys.readouterr().out
        assert out == ("verification failed: term outside the invertible "
                       "domain of N: sample 5\n")


def test_worker_that_dies_leaves_its_samples_to_the_parent(monkeypatch):
    _break_w(monkeypatch)
    monkeypatch.setattr(identities, "_workers", lambda samples: 1)
    want = run_identity_suite(degree=2, samples=9, seed=2).render()
    parent, check_chunk = os.getpid(), identities._check_chunk

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return check_chunk(*args)

    monkeypatch.setattr(identities, "_check_chunk", dying)
    monkeypatch.setattr(identities, "_workers", lambda samples: 3)
    assert run_identity_suite(degree=2, samples=9, seed=2).render() == want
    _assert_no_child_left()


def _command_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def test_workers_leave_buffered_output_alone():
    # the Jacobi line sits in the parent's stdout buffer when the workers
    # fork; a worker that flushed it on exit would print it again
    env = _command_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "sp2brst", "check-identities",
         "--theory", "theories/so3.json", "--samples", "4"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines.count("Jacobi identity: holds on all coordinate triples") == 1
    assert lines[-1] == "identity suite: all identities hold"


def _state(pid):
    """The /proc state letter of pid, with its parent's pid, or None when
    there is no such process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    state, ppid = stat[stat.rindex(")") + 2:].split()[:2]
    return state, int(ppid)


def _running(pid):
    state = _state(pid)
    return state is not None and state[0] not in "ZX"


@pytest.mark.skipif(not Path("/proc/self/stat").exists() or identities._workers(2) < 2,
                    reason="needs /proc and a second CPU for a worker")
def test_workers_stop_when_the_command_is_killed():
    # SIGTERM kills the parent without running its cleanup; each worker
    # sees its parent change before its next sample and leaves
    proc = subprocess.Popen(
        [sys.executable, "-m", "sp2brst", "check-identities", "--samples", "2000"],
        cwd=ROOT, env=_command_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while not workers and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.02)
            workers = [int(e) for e in os.listdir("/proc") if e.isdigit()
                       and (_state(e) or ("", 0))[1] == proc.pid]
        assert workers, "the command forked no worker"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == -signal.SIGTERM
        # a worker has over a second of samples left; one sample takes ms
        deadline = time.monotonic() + 3
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(map(_running, workers))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)


def test_sample_depends_only_on_seed_and_index(monkeypatch):
    # with W broken, a sample's rows carry the repr of its defects
    _break_w(monkeypatch)
    monkeypatch.setattr(identities, "_workers", lambda samples: 1)
    sample_rows, runs = identities._sample_rows, []

    def recording(alg, degree, seed, i):
        runs[-1][i] = rows = sample_rows(alg, degree, seed, i)
        return rows

    monkeypatch.setattr(identities, "_sample_rows", recording)
    for samples in (4, 10):
        runs.append({})
        run_identity_suite(degree=2, samples=samples, seed=3)
    assert runs[0][3] == runs[1][3]


def test_seeds_of_opposite_sign_draw_different_samples(monkeypatch):
    _break_w(monkeypatch)
    first = {seed: [r.first_defect for r in run_identity_suite(degree=2, samples=1,
                                                               seed=seed).results]
             for seed in (3, -3)}
    assert first[3] != first[-3]
