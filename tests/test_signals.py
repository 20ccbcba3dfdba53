"""SIGINT, a closed standard output and exhausted memory keep the
exit-code contract.

Each command runs in a child process.  SIGINT goes to that child only:
it exits 130 at once, with no traceback, and the identity suite's
forked workers are stopped rather than waited for.  A standard output
whose reader has gone exits 141, whether output is buffered or not, and
prints no traceback, no "Exception ignored" line and no error line.  A
solve that runs out of address space (RLIMIT_AS, set in the child only)
exits 2 with one error line, as an exceeded term budget does.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _timing_line_only(stderr: str) -> bool:
    lines = stderr.splitlines()
    return len(lines) == 1 and lines[0].startswith("[") and lines[0].endswith("s]")


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_sigint_exits_130_and_stops_the_workers():
    # a new session, so the child and its workers form one process group
    proc = subprocess.Popen(
        [sys.executable, "-m", "sp2brst", "check-identities", "--samples", "1500"],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    time.sleep(1)
    proc.send_signal(signal.SIGINT)
    sent = time.monotonic()
    out, err = proc.communicate(timeout=60)
    # a suite that waited for its worker's share would take seconds more
    assert time.monotonic() - sent < 1.0
    assert proc.returncode == 130
    assert out == "" and _timing_line_only(err), err
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # no worker outlives the command


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_141_without_a_traceback(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the child's stdout fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sp2brst", "solve", "theories/so3.json", "--order", "3"],
            cwd=ROOT, env=_env(PYTHONUNBUFFERED=unbuffered), stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert _timing_line_only(proc.stderr), proc.stderr


# the cubic Heisenberg theory: its fixed point at order 5 grows past the
# address-space cap below in about a second
CUBIC = {"format": 1, "label": "cubic",
         "constraints": [{"name": n, "parity": 0} for n in ("X", "Y", "Z")],
         "U": {"1,2,3": "1 + X*Y"}}
MEMORY_CAP = 50 << 20


def _settable_cap():
    try:
        import resource
    except ImportError:
        return False
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    return hard == resource.RLIM_INFINITY or hard >= MEMORY_CAP


@pytest.mark.skipif(not _settable_cap(), reason="needs a settable RLIMIT_AS")
def test_out_of_memory_exits_2_with_one_error_line(tmp_path):
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))

    theory = tmp_path / "cubic.json"
    theory.write_text(json.dumps(CUBIC))
    proc = subprocess.run(
        [sys.executable, "-m", "sp2brst", "solve", str(theory),
         "--method", "fixed-point", "--order", "5"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60,
        preexec_fn=cap)
    assert proc.returncode == 2, proc.stderr
    # the error, then the timing line every run prints
    assert proc.stderr.splitlines()[:-1] == ["error: out of memory"], proc.stderr
    assert proc.stdout.splitlines() == [
        "theory cubic: 3 constraints, 0 physical coordinates",
        "Jacobi identity: holds on all coordinate triples"]
