"""Golden output: stdout and exit code of fixed CLI runs on the bundled
theories, byte for byte.

Each file under tests/golden/ holds one run: a first line `exit N`, then
the run's stdout, so a refactor that changes a single printed byte fails
here.  After a deliberate change of output, re-record them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

from pathlib import Path

import pytest

from sp2brst.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# the small theories at their document order (cubic and nambu4, whose Pi
# does not stop, at 3); so3-deformed at order 3,
# its lift with the fixed point alone, and both again with the fixed point
# at its document order (5), where Pi has 222 terms and K 538; the
# identity suite on the default mixed2 theory and on shift, which has
# physical coordinates
RUNS = {
    f"{command}-{theory}": [command, f"theories/{theory}.json", *extra]
    for theory, solve_extra, lift_extra in (
        ("abelian3", [], []),
        ("cubic", [], []),
        ("mixed2", [], []),
        ("nambu4", [], []),
        ("shift", [], []),
        ("so3", [], []),
        ("so3-deformed", ["--order", "3"],
         ["--order", "3", "--method", "fixed-point"]),
    )
    for command, extra in (("solve", solve_extra),
                           ("lift", ["--observable", "1", *lift_extra]))
}
for _command, _extra in (("solve", []), ("lift", ["--observable", "1"])):
    RUNS[f"{_command}-so3-deformed-fixed-point"] = [
        _command, "theories/so3-deformed.json", *_extra,
        "--method", "fixed-point"]
RUNS["check-identities-mixed2"] = ["check-identities", "--samples", "10"]
RUNS["check-identities-shift"] = [
    "check-identities", "--theory", "theories/shift.json", "--samples", "5"]
# an so3 order-4 charge document as `solve --method fixed-point --out`
# writes it, and a copy with the coefficient of xi[1]*C[1,1] doubled,
# whose report prints the boundary read-offs that fail
for _doc in ("omega-so3", "omega-so3-tampered"):
    RUNS[f"verify-{_doc}"] = [
        "verify", "theories/so3.json", f"tests/golden/{_doc}.json"]


def _run(argv, capsys, monkeypatch) -> str:
    monkeypatch.chdir(ROOT)
    code = main(argv)
    return f"exit {code}\n" + capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_output(name, capsys, monkeypatch):
    want = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert _run(RUNS[name], capsys, monkeypatch) == want


def record() -> None:
    import contextlib
    import io
    import os

    os.chdir(ROOT)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(RUNS.items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        (GOLDEN_DIR / f"{name}.txt").write_text(
            f"exit {code}\n" + out.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    record()
