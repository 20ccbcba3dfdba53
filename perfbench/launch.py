"""Run one round of commands and report each one's exit code and peak RSS.

Usage (from the repository root):

    python3 perfbench/launch.py ROUND_JSON

ROUND_JSON is {"commands": [[argv...], ...], "stdout": [path, ...],
"seconds": budget}.  Command i runs with its stdout in ``stdout[i]`` and
its stderr next to it (suffix ``.stderr``), one after another.  When the
budget runs out the running command is killed and the rest are skipped.
Prints one JSON line: the round's wall time, the exit codes (None for a
skipped command) and each command's peak resident set in MiB.

Linux carries the resident set a process had when it was forked into the
``ru_maxrss`` of the program it executes, so a command started straight
from the benchmark would report the benchmark's own memory whenever that
is the larger.  This launcher imports almost nothing, which keeps that
floor at the size of a bare interpreter.
"""

import json
import os
import signal
import sys
import time

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


class Expired(Exception):
    pass


def _expire(signum, frame):
    raise Expired()


def main():
    spec = json.loads(sys.argv[1])
    deadline = time.monotonic() + spec["seconds"]
    codes, rss = [], []
    current = []

    def stop(signum, frame):
        for pid in current:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGALRM, _expire)
    start = time.perf_counter()
    for argv, out in zip(spec["commands"], spec["stdout"]):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            codes.append(None)
            rss.append(0.0)
            continue
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, out, FLAGS, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, out.rsplit(".", 1)[0] + ".stderr", FLAGS, 0o644)])
        current.append(pid)
        signal.alarm(max(1, int(remaining)))
        try:
            _, status, usage = os.wait4(pid, 0)
        except Expired:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.alarm(0)
            current.clear()
        codes.append(os.waitstatus_to_exitcode(status))
        rss.append(usage.ru_maxrss / 1024.0)
    wall = time.perf_counter() - start
    print(json.dumps({"wall": wall, "codes": codes, "rss_mb": rss}))


if __name__ == "__main__":
    main()
