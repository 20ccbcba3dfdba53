"""Benchmark of the sp2brst command line: three workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload descendants-so3 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, one summary line each

A run repeats whole rounds of its workload's ``sp2brst`` commands, each
command in its own child process and one process at a time, until
``--seconds`` have passed (at least one round).  After the timed rounds
it checks the outputs: the first round's charge and observable documents
with the independent checker in ``check.py``, its reports against the
expected lines, and every later round byte for byte against the first.

``--trace 0`` reports the end-to-end metrics: the median round wall
time, the median set-up time over several fresh interpreters, and the
median peak resident set of the commands.  ``--trace 1`` runs one
untraced round and then the same commands in process under the wrappers
of ``traced.py``, requires both to print the same bytes and emit the
same documents, and reports the per-layer metrics and the tracing
overhead.  The last line of stdout is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check  # noqa: E402
import traced  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 9
RUN_DEADLINE_S = 170.0
LAUNCH_SLACK_S = 5.0
IDENTITY_SAMPLES = 100
IDENTITY_COUNT = 21

# descendants-so3: the descendant sum dominates, on tiny polynomials.
# deformed-pipeline: wide Pi and K, so bracket and Fraction arithmetic
#   dominate; writes and re-reads a charge document; no descendant tree.
# identities-mixed2: the operator layer on small random elements of a
#   theory with a fermionic constraint; no bracket call at all.
WORKLOADS = {
    "descendants-so3": {
        "theory": "theories/so3.json",
        "order": 8,
        "commands": lambda out, seed: [
            ["solve", "theories/so3.json", "--order", "8", "--out", f"{out}/omega.json"],
        ],
    },
    "deformed-pipeline": {
        "theory": "theories/so3-deformed.json",
        "order": 5,
        "observable": ("J2sq", "J2^2"),
        "commands": lambda out, seed: [
            ["solve", "theories/so3-deformed.json", "--method", "fixed-point",
             "--out", f"{out}/omega.json"],
            ["verify", "theories/so3-deformed.json", f"{out}/omega.json"],
            ["lift", "theories/so3-deformed.json", "--observable", "J2sq",
             "--method", "fixed-point", "--out", f"{out}/lift.json"],
        ],
    },
    "identities-mixed2": {
        "theory": None,
        "commands": lambda out, seed: [
            ["check-identities", "--degree", "4", "--samples", str(IDENTITY_SAMPLES),
             "--seed", str(seed)],
        ],
    },
}


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline()


def child_env(root: Path) -> dict:
    """The environment of every process the benchmark starts: the program
    from the checkout's ``src``, with its bytecode cached there as an
    installed package's would be."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv, root: Path, stdout_path: Path, deadline: float) -> int:
    """Run one Python child to completion and return its exit code.  It
    gets SIGTERM when the run's deadline passes."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".stderr"), "wb") as err:
        proc = subprocess.Popen([sys.executable, *argv], cwd=root, env=child_env(root),
                                stdout=out, stderr=err)
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(max(1, int(deadline - time.monotonic())))
        try:
            proc.wait()
        except BaseException as exc:
            proc.terminate()
            proc.wait()
            if not isinstance(exc, Deadline):
                raise
        finally:
            signal.alarm(0)
    return proc.returncode


def run_round(spec, root: Path, out: Path, seed: int, deadline: float):
    """One untraced round: every command of the workload, in order, started
    by ``launch.py``, which times the round and reads each peak RSS."""
    out.mkdir(parents=True, exist_ok=True)
    rel = out.relative_to(root).as_posix()
    commands = [[sys.executable, "-m", "sp2brst.cli", *argv]
                for argv in spec["commands"](rel, seed)]
    request = {"commands": commands,
               "stdout": [f"{rel}/{i}.stdout" for i in range(len(commands))],
               "seconds": deadline - time.monotonic()}
    report = out.with_suffix(".launch")
    run_child([str(BENCH_DIR / "launch.py"), json.dumps(request)], root, report,
              deadline + LAUNCH_SLACK_S)
    lines = report.read_text().splitlines()
    if not lines:
        return {"dir": out, "codes": [None] * len(commands), "wall": 0.0, "rss": 0.0}
    result = json.loads(lines[-1])
    return {"dir": out, "codes": result["codes"], "wall": result["wall"],
            "rss": max(result["rss_mb"])}


def outputs(round_dir: Path) -> dict:
    """Every file a round's commands printed or emitted, stderr excepted."""
    return {p.name: p.read_bytes() for p in sorted(round_dir.iterdir())
            if p.suffix != ".stderr"}


def check_round(name: str, spec, root: Path, rnd, seed: int) -> list:
    """Per command, the problems found in the outputs of one round; a
    command that exited nonzero is not checked."""
    out, codes = rnd["dir"], rnd["codes"]
    problems = [[] for _ in codes]
    stdout = [(out / f"{i}.stdout").read_text(encoding="utf-8") if code == 0 else ""
              for i, code in enumerate(codes)]
    if name == "identities-mixed2":
        if codes[0] == 0:
            problems[0] = identity_problems(stdout[0], seed)
        return problems
    theory = check.Theory(check.load_json(root / spec["theory"]))
    charges = check.load_json(out / "omega.json") if codes[0] == 0 else None
    if charges is not None:
        problems[0] = check.check_charges(theory, charges, spec["order"])
    if name == "deformed-pipeline":
        if codes[1] == 0 and "verification: passed" not in stdout[1].splitlines():
            problems[1].append("verify did not print 'verification: passed'")
        if codes[2] == 0:
            if charges is None:
                problems[2].append("no charge document to check the lift against")
            else:
                obs, phi0 = spec["observable"]
                lifted = check.load_json(out / "lift.json")
                problems[2] = check.check_lift(theory, charges, lifted, spec["order"], phi0)
                if lifted.get("name") != obs:
                    problems[2].append(f"lift document names {lifted.get('name')!r}")
    return problems


def identity_problems(text: str, seed: int) -> list:
    lines = text.splitlines()
    problems = []
    if not lines or not lines[0].endswith(f", {IDENTITY_SAMPLES} samples, seed {seed}"):
        problems.append("report header does not echo the sample count and the seed")
    results = [ln for ln in lines if re.match(r"  \S.* \[[^]]+\]: ", ln)]
    ok = [ln for ln in results if ln.endswith("]: ok")]
    if len(results) != IDENTITY_COUNT or len(ok) != IDENTITY_COUNT:
        problems.append(f"{len(ok)} of {len(results)} identities ok, "
                        f"expected {IDENTITY_COUNT} of {IDENTITY_COUNT}")
    if not lines or lines[-1] != "identity suite: all identities hold":
        problems.append("report does not end with 'all identities hold'")
    return problems


def judge(name, spec, root, rounds, seed):
    """Attempted and failed commands, and whether every output checked out.

    A command fails when it exits nonzero, or when its outputs fail the
    checks (first round) or differ from the first round's (later rounds)."""
    attempted = failed = 0
    correct = True
    reference = None
    for r, rnd in enumerate(rounds):
        n = len(rnd["codes"])
        attempted += n
        if r == 0:
            problems = check_round(name, spec, root, rnd, seed)
            reference = outputs(rnd["dir"])
        else:
            got = outputs(rnd["dir"])
            problems = [[f"{f} differs from the first round"
                         for f in reference
                         if reference[f] != got.get(f) and _owner(f, n) == i]
                        for i in range(n)]
        for i, code in enumerate(rnd["codes"]):
            if code != 0:
                print(f"round {r + 1} command {i + 1}: exit code {code}", file=sys.stderr)
                failed += 1
            elif problems[i]:
                for p in problems[i]:
                    print(f"round {r + 1} command {i + 1}: {p}", file=sys.stderr)
                correct = False
                failed += 1
    return attempted, failed, correct


def _owner(filename: str, n: int) -> int:
    """Index of the command that wrote a round file."""
    if filename.endswith(".stdout"):
        return int(filename.split(".")[0])
    return {"omega.json": 0, "lift.json": n - 1}[filename]


def setup_time(spec, root: Path) -> float:
    target = spec["theory"] or "--mixed2"
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), target],
                              cwd=root, env=child_env(root), capture_output=True,
                              timeout=60, check=True)
        times.append(float(proc.stdout.decode().split()[-1]))
    return statistics.median(times)


def digest_line(rnd) -> str:
    paths = [rnd["dir"] / f"{i}.stdout" for i in range(len(rnd["codes"]))]
    digests = [hashlib.sha256(p.read_bytes()).hexdigest()[:16] if p.exists() else "missing"
               for p in paths]
    return "stdout sha256: " + " ".join(digests)


def run_untraced(name, spec, root, work, seed, seconds):
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup = setup_time(spec, root)
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        rnd = run_round(spec, root, work / f"round{len(rounds) + 1}", seed, deadline)
        rounds.append(rnd)
        if any(c != 0 for c in rnd["codes"]) or time.monotonic() > deadline:
            break
    attempted, failed, correct = judge(name, spec, root, rounds, seed)
    wall = statistics.median(r["wall"] for r in rounds)
    rss = statistics.median(r["rss"] for r in rounds)
    print(f"{name}: wall_s {wall:.4f} s, setup_s {setup:.4f} s, peak_rss_mb {rss:.2f} MiB, "
          f"rounds {len(rounds)}, attempted {attempted}, failed {failed}")
    print(digest_line(rounds[0]))
    metrics = {"wall_s": (wall, "s"), "setup_s": (setup, "s"), "peak_rss_mb": (rss, "MiB")}
    return correct, attempted, failed, metrics


PER_LAYER = (tuple(traced.SPAN_METRICS) + traced.COUNTER_METRICS
             + ("trace.wall_s", "trace.overhead_s"))


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def run_traced(name, spec, root, work, seed):
    deadline = time.monotonic() + RUN_DEADLINE_S
    plain = run_round(spec, root, work / "untraced", seed, deadline)
    attempted, failed, correct = judge(name, spec, root, [plain], seed)

    tdir = work / "traced"
    tdir.mkdir()
    commands = spec["commands"](tdir.relative_to(root).as_posix(), seed)
    code = run_child([str(BENCH_DIR / "traced.py"), str(tdir), str(work / "trace.jsonl"),
                      json.dumps(commands)], root, work / "traced.summary", deadline)
    attempted += len(commands)
    summary = None
    if code == 0:
        summary = json.loads((work / "traced.summary").read_text().splitlines()[-1])
    if summary is None or any(summary["exit_codes"]):
        failed += sum(1 for c in summary["exit_codes"] if c) if summary else len(commands)
        print(f"traced run failed (exit {code}); see {work}", file=sys.stderr)
        metrics = {m: (0, unit_of(m)) for m in PER_LAYER}
    else:
        want, got = outputs(plain["dir"]), outputs(tdir)
        for i, plain_code in enumerate(plain["codes"]):
            if plain_code != 0:
                continue
            bad = [f for f in want if _owner(f, len(commands)) == i and want[f] != got.get(f)]
            if bad:
                failed += 1
                correct = False
                print(f"traced command {i + 1}: {', '.join(bad)} differ from the untraced run",
                      file=sys.stderr)
        metrics = {m: (v, unit_of(m)) for m, v in summary["metrics"].items()}
        metrics["trace.wall_s"] = (summary["wall_s"], "s")
        metrics["trace.overhead_s"] = (summary["wall_s"] - plain["wall"], "s")
        print(f"{name}: untraced wall {plain['wall']:.4f} s, traced wall "
              f"{summary['wall_s']:.4f} s, {summary['spans']} spans in {work / 'trace.jsonl'}")
    print(digest_line(plain))
    return correct, attempted, failed, metrics


def run_workload(name, root: Path, seed: int, seconds: int, trace: int) -> dict:
    spec = WORKLOADS[name]
    work = BENCH_DIR / "_out" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if trace:
        correct, attempted, failed, metrics = run_traced(name, spec, root, work, seed)
    else:
        correct, attempted, failed, metrics = run_untraced(name, spec, root, work, seed, seconds)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd().resolve()
    missing = [p for p in ("src/sp2brst/cli.py", *(w["theory"] for w in WORKLOADS.values()
                                                   if w["theory"]))
               if not (root / p).is_file()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, root, args.seed, args.seconds, args.trace)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        print(f"{name}: {json.dumps(result)}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
