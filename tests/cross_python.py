"""Print what a fixed list of command lines gives under this interpreter.

Each argv runs through ``coverlab.cli.main`` in-process; the script prints
the argv, its standard output and error, its exit code and any ``--out``
file.  Timing fields (``"ms": ...``) are blanked and the temporary
directory holding the space files is named ``{tmp}``, so two
interpreters' outputs compare byte for byte.  The list is the ops of the
four ``perfbench`` decks, ``decide``, ``build``, ``frames`` and ``reals``,
of seeds 1, 2 and 3 (space files written with ``decks.render_spacefile``),
``demo heine-borel`` at 1/10, 1/100 and 1/1000, and the rows of the
bounded-time table in ``bounded_time.py``.  Run under two trees' ``src``,
the script also checks that a change keeps every output byte for byte.  It
needs only the standard library; run it from the repository root:

    PYTHONPATH=src python3.10 tests/cross_python.py > out-3.10.txt
    PYTHONPATH=src python3.13 tests/cross_python.py > out-3.13.txt
    cmp out-3.10.txt out-3.13.txt

``tests/transcript.sha256`` holds one line per command line, in order: the
sha256 of its printed block and a label naming it.  ``--write`` writes that
file from this tree, and ``--check`` compares against it and names the first
rows that differ, exit 1 if any does (``test_transcript.py`` runs the same
comparison under pytest):

    PYTHONPATH=src python3 tests/cross_python.py --check

A change that alters output on purpose writes the file again and names the
rows it changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import re
import sys
import tempfile

from bounded_time import BOUNDED_TIME
from coverlab import cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import decks  # noqa: E402

_MS_FIELD = re.compile(r'"ms": [-0-9.e+]+')
HASHES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "transcript.sha256")


def runs(tmp: str) -> list[tuple[str, list[str], str | None]]:
    """Each argv with its label and the --out file it writes, if any."""
    out = os.path.join(tmp, "out.json")
    got = []
    for seed in (1, 2, 3):
        for workload in decks.WORKLOADS:
            for op in decks.make_deck(workload, seed):
                path = os.path.join(tmp, f"{workload}-{seed}-{op.id}.json")
                if op.covers is not None:
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(decks.render_spacefile(op.n, op.covers))
                argv = [a.replace("{file}", path).replace("{out}", out) for a in op.argv]
                got.append((f"{workload}-{seed}-{op.id}", argv, out if "--out" in argv else None))
    got += [(f"heine-borel {eps}", ["demo", "heine-borel", "--eps", eps], None)
            for eps in ("1/10", "1/100", "1/1000")]
    for row, (argv, data, _) in BOUNDED_TIME.items():
        argv = [a.replace("{tmp}", tmp) for a in argv]
        if data is not None:
            path = os.path.join(tmp, f"{row}.json")
            with open(path, "wb") as fh:
                fh.write(data)
            argv = [*argv, path]
        got.append((row, argv, None))
    return got


def blocks():
    """(label, printed block) for each command line, in order.  argparse
    wraps its help to the width in $COLUMNS, which the caller sets."""
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv, out_path in runs(tmp):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            text = "$ " + " ".join(argv) + "\n" + _MS_FIELD.sub('"ms": -', out.getvalue())
            text += err.getvalue() + f"exit {code}\n"
            if out_path is not None:
                with open(out_path, encoding="utf-8") as fh:
                    text += fh.read()
                os.remove(out_path)
            yield label, text.replace(tmp, "{tmp}")


def digests() -> list[str]:
    """One line per block: its sha256, two spaces and its label."""
    return [f"{hashlib.sha256(text.encode()).hexdigest()}  {label}" for label, text in blocks()]


def differences(limit: int = 5) -> list[str]:
    """The first rows, at most limit, where this tree's digests and those of
    ``transcript.sha256`` differ, each named by its line and labels."""
    with open(HASHES, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    differ = []
    for i, (w, g) in enumerate(itertools.zip_longest(want, digests(), fillvalue="-  (no row)"), 1):
        if w != g:
            committed, printed = w.split("  ", 1)[1], g.split("  ", 1)[1]
            differ.append(f"line {i}: {committed}"
                          + ("" if committed == printed else f" committed, {printed} printed"))
    return differ[:limit]


def main(argv: list[str]) -> int:
    os.environ["COLUMNS"] = "80"  # argparse wraps its help to the terminal's width
    if argv == ["--write"]:
        with open(HASHES, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in digests())
        return 0
    if argv == ["--check"]:
        differ = differences()
        for line in differ:
            print(f"differs at {line}", file=sys.stderr)
        return 1 if differ else 0
    if argv:
        print("usage: cross_python.py [--write | --check]", file=sys.stderr)
        return 2
    for _, text in blocks():
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
