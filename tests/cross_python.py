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
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
import tempfile

from bounded_time import BOUNDED_TIME
from coverlab import cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import decks  # noqa: E402

_MS_FIELD = re.compile(r'"ms": [-0-9.e+]+')


def runs(tmp: str) -> list[tuple[list[str], str | None]]:
    """Each argv with the --out file it writes, if any."""
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
                got.append((argv, out if "--out" in argv else None))
    got += [(["demo", "heine-borel", "--eps", eps], None) for eps in ("1/10", "1/100", "1/1000")]
    for row, (argv, data, _) in BOUNDED_TIME.items():
        if data is not None:
            path = os.path.join(tmp, f"{row}.json")
            with open(path, "wb") as fh:
                fh.write(data)
            argv = [*argv, path]
        got.append((argv, None))
    return got


def main() -> int:
    os.environ["COLUMNS"] = "80"  # argparse wraps its help to the terminal's width
    with tempfile.TemporaryDirectory() as tmp:
        for argv, out_path in runs(tmp):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            text = "$ " + " ".join(argv) + "\n" + _MS_FIELD.sub('"ms": -', out.getvalue())
            text += err.getvalue() + f"exit {code}\n"
            if out_path is not None:
                with open(out_path, encoding="utf-8") as fh:
                    text += fh.read()
                os.remove(out_path)
            print(text.replace(tmp, "{tmp}"), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
