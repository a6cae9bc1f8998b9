"""Print what a fixed list of command lines gives under this interpreter.

Each argv runs through ``coverlab.cli.main`` in-process; the script prints
the argv, its standard output and error, and its exit code.  Timing fields
(``"ms": ...``) are blanked, so two interpreters' outputs compare byte for
byte.  The list is the ``real eval`` ops of the seed-1 ``reals`` deck of
``perfbench``, ``demo heine-borel`` at 1/10, 1/100 and 1/1000, and the
``real`` rows of the bounded-time table in ``test_closed_forms.py``.  It
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

from coverlab import cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import decks  # noqa: E402

_MS_FIELD = re.compile(r'"ms": [-0-9.e+]+')

# the rows of test_closed_forms.BOUNDED_TIME that run `real eval`
BOUNDED_REAL_ROWS = [
    ["real", "eval", "1", "--eps", "1e999999999"],
    ["real", "eval", "1", "--eps", "1e-999999999"],
    ["real", "eval", "limit(geometric; 9999/10000)", "--eps", "1/1000"],
    ["real", "eval", "exp(1000000)", "--eps", "1"],
    ["real", "eval", "exp(exp(5))", "--eps", "1"],
    ["real", "eval", "exp(exp(20))", "--eps", "1"],
    ["real", "eval", "1/3", "--eps", "1e-5000"],
    ["real", "eval", "1/3", "--eps", "1e-100000", "--bounds"],
    ["real", "eval", "exp(exp(1/2))", "--eps", "1e-1000"],
    ["real", "eval", "exp(7000)", "--eps", "1"],
    ["real", "eval", "exp(exp(0) + 999)", "--eps", "1"],
    ["real", "eval", "1" * 5000 + "/3", "--eps", "1"],
]


def argv_list() -> list[list[str]]:
    deck = [op.argv for op in decks.make_deck("reals", 1) if op.cmd == "real eval"]
    demos = [["demo", "heine-borel", "--eps", eps] for eps in ("1/10", "1/100", "1/1000")]
    return deck + demos + BOUNDED_REAL_ROWS


def main() -> int:
    for argv in argv_list():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        print("$", " ".join(argv))
        print(_MS_FIELD.sub('"ms": -', out.getvalue()), end="")
        print(err.getvalue(), end="")
        print("exit", code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
