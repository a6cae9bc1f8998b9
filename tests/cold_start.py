"""Wall time and peak RSS of fresh ``python -m coverlab.cli`` calls under two trees.

    python3 tests/cold_start.py OLD_SRC NEW_SRC [ROUNDS]

Each tree's ``coverlab`` package is copied without ``__pycache__`` into a
temporary directory beside three small space files.  Every subcommand
(``axioms``, ``complete --out``, ``reflect --out``, the three ``locale``
actions, ``real eval`` and ``demo heine-borel``) then runs in ROUNDS
alternating rounds, default 10, the old tree first in even rounds and the
new one first in odd ones: once with ``PYTHONDONTWRITEBYTECODE=1`` and no
bytecode cache, and once after ``compileall`` has written a cache into both
copies.  For each subcommand it prints each tree's median and quartiles in
ms, its median peak RSS in MB and the number of rounds each won.  The peak
is the child's own ``ru_maxrss``, read by reaping it with ``os.wait4``
(``RUSAGE_CHILDREN`` would give the largest over every child reaped so
far).  Linux starts a child's peak at its parent's when the parent is the
larger.  So a median at or below this script's own peak is the script's,
not the child's, and prints as ``<`` that peak; a median above it is the
child's.  A call that exits other than 0, or
whose output differs between the trees, stops the run.  Standard library
only, and pytest does not collect it; run it from the repository root, for
instance against a clean checkout of the parent commit:

    mkdir ../parent && git archive HEAD~1 src | tar -x -C ../parent
    python3 tests/cold_start.py ../parent/src src
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from statistics import median, quantiles

SPACES = {  # name -> a space file of three points
    "partition": '{"format": 1, "carrier": 3, "covers": [[[0, 1], [2]]]}',
    "discrete": '{"format": 1, "carrier": 3, "covers": [[[0], [1], [2]]]}',
    "chain": '{"format": 1, "carrier": 3, "covers": [[[0, 1], [1, 2]]]}',
}
CALLS = {  # label -> argv, {tmp} the directory of the space files
    "axioms": ["axioms", "{tmp}/discrete.json"],
    "complete --out": ["complete", "{tmp}/partition.json", "--out", "{tmp}/out.json"],
    "reflect --out": ["reflect", "{tmp}/chain.json", "--out", "{tmp}/out.json"],
    "locale build": ["locale", "build", "{tmp}/discrete.json"],
    "locale points": ["locale", "points", "{tmp}/partition.json"],
    "locale roundtrip": ["locale", "roundtrip", "{tmp}/discrete.json"],
    "real eval": ["real", "eval", "exp(1)/3", "--eps", "1e-20"],
    "demo heine-borel": ["demo", "heine-borel", "--eps", "1/10"],
}
_MS_FIELD = re.compile(r'"ms": [-0-9.e+]+')


def call(src: str, argv: list[str]) -> tuple[float, float, str]:
    """Seconds one fresh interpreter takes for argv, its peak RSS in MB, and
    what it printed."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "coverlab.cli", *argv], env=env,
                                 stdout=out, stderr=err)
        timer = threading.Timer(120, child.kill)
        timer.start()
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - started
        timer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        printed, errors = out.read().decode(), err.read().decode()
    if child.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} under {src} exited {child.returncode}:\n{errors}")
    return seconds, usage.ru_maxrss / 1024, _MS_FIELD.sub('"ms": -', printed)


def compare(srcs: tuple[str, str], tmp: str, rounds: int) -> None:
    print(f"{'subcommand':<18} {'old ms':>7} {'q1-q3':>13} {'old MB':>6} {'new ms':>7}"
          f" {'q1-q3':>13} {'new MB':>6} {'new faster':>11} {'old faster':>11}")
    for label, argv in CALLS.items():
        argv = [a.replace("{tmp}", tmp) for a in argv]
        times: tuple[list[float], list[float]] = ([], [])
        peaks: tuple[list[float], list[float]] = ([], [])
        for r in range(rounds):
            printed = {}
            for side in (0, 1) if r % 2 == 0 else (1, 0):
                seconds, peak, printed[side] = call(srcs[side], argv)
                times[side].append(seconds * 1000)
                peaks[side].append(peak)
            if printed[0] != printed[1]:
                raise SystemExit(f"{label}: the trees print different outputs")
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cells = []
        for ms, mb in zip(times, peaks):
            q1, _, q3 = quantiles(ms, n=4)
            peak = f"{median(mb):6.2f}" if median(mb) > own else f"<{own:5.2f}"
            cells.append(f"{median(ms):7.1f} {q1:6.1f}-{q3:6.1f} {peak}")
        won = sum(new < old for old, new in zip(*times))
        print(f"{label:<18} {cells[0]} {cells[1]} {won:>5} of {rounds:<2} {rounds - won:>5} of"
              f" {rounds:<2}")


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print("usage: cold_start.py OLD_SRC NEW_SRC [ROUNDS]", file=sys.stderr)
        return 2
    rounds = int(argv[2]) if len(argv) == 3 else 10
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in SPACES.items():
            with open(os.path.join(tmp, f"{name}.json"), "w", encoding="utf-8") as fh:
                fh.write(text)
        srcs = (os.path.join(tmp, "old"), os.path.join(tmp, "new"))
        for given, copy in zip(argv, srcs):
            shutil.copytree(os.path.join(given, "coverlab"), os.path.join(copy, "coverlab"),
                            ignore=shutil.ignore_patterns("__pycache__"))
        print(f"no bytecode cache, {rounds} rounds, Python {sys.version.split()[0]}")
        compare(srcs, tmp, rounds)
        for copy in srcs:
            subprocess.run([sys.executable, "-m", "compileall", "-q", copy], check=True)
        print(f"\nbytecode cache written first, {rounds} rounds")
        compare(srcs, tmp, rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
