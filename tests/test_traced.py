"""The traced benchmark harness (perfbench/traced.py) runs CLI commands
through wrappers around the package's public functions; its per-command
stdout must equal the plain CLI's, byte for byte."""

import json
import os
import subprocess
import sys
from pathlib import Path

from sp2brst.cli import main

ROOT = Path(__file__).resolve().parent.parent

# the default `both` solve enters pair_bracket, the lift neumann_apply and
# lift, and the identity suite the operators
COMMANDS = [
    ["solve", "theories/so3.json", "--order", "3"],
    ["lift", "theories/so3.json", "--observable", "1", "--order", "3"],
    ["check-identities", "--samples", "2"],
]


def test_traced_run_matches_the_cli(tmp_path, capsys, monkeypatch):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "perfbench/traced.py", str(tmp_path),
         str(tmp_path / "trace.jsonl"), json.dumps(COMMANDS)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["exit_codes"] == [0, 0, 0]
    metrics = summary["metrics"]
    for name in ("solver.pair_bracket.calls", "solver.neumann_apply.calls",
                 "observables.lift_s", "operators.apply_W.calls",
                 "operators.w_component.calls", "operators.m_component.calls",
                 "operators.apply_W_plus.calls"):
        assert metrics[name] > 0, name

    monkeypatch.chdir(ROOT)
    for i, argv in enumerate(COMMANDS):
        assert main(argv) == 0
        want = capsys.readouterr().out.encode()
        assert (tmp_path / f"{i}.stdout").read_bytes() == want
