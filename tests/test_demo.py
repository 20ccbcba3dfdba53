"""Smoke test of the so(3) tour in scripts/demo_so3.py."""

import runpy
import sys
from pathlib import Path

DEMO = Path(__file__).resolve().parent.parent / "scripts" / "demo_so3.py"


def test_demo_so3_runs(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(DEMO), "--order", "3"])
    runpy.run_path(str(DEMO), run_name="__main__")
    out = capsys.readouterr().out
    assert "master equations: satisfied through cp-degree 3" in out
    assert out.count("observable lift: verified through cp-degree 3") == 2
    assert out.splitlines()[-1] == "realization: bracket matches, product matches"
