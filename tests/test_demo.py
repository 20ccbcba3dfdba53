"""Smoke tests of the so(3) tour in scripts/demo_so3.py and of README's
Library example."""

import re
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "scripts" / "demo_so3.py"


def test_demo_so3_runs(capsys, monkeypatch, tmp_path):
    # from a directory with no theories/ in it: the demo finds its document
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(DEMO), "--order", "3"])
    runpy.run_path(str(DEMO), run_name="__main__")
    out = capsys.readouterr().out
    assert "master equations: satisfied through cp-degree 3" in out
    assert out.count("observable lift: verified through cp-degree 3") == 2
    assert out.splitlines()[-1] == "realization: bracket matches, product matches"


def test_readme_library_example_runs(capsys, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("\n## Library\n"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    monkeypatch.chdir(ROOT)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["lifted"].ok and scope["res"].ok
    assert "master equations: satisfied through cp-degree 6" in capsys.readouterr().out
