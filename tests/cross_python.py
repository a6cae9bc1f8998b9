"""Print what a fixed list of command lines gives under this interpreter.

Each argv runs through ``coverlab.cli.main`` in-process; the script prints
the argv, its standard output and error, its exit code and any ``--out``
file.  Timing fields (``"ms": ...``) are blanked and the temporary
directory holding the space files is named ``{tmp}``, so two
interpreters' outputs compare byte for byte.  The list is the ops of the
seed-1 ``decide``, ``build`` and ``frames`` decks of ``perfbench`` (space
files written with ``decks.render_spacefile``), the ``real eval`` ops of
the seed-1 ``reals`` deck, ``demo heine-borel`` at 1/10, 1/100 and
1/1000, and the rows of the bounded-time table in ``test_closed_forms.py``
(its space files written as that table writes them).  It needs only the
standard library; run it from the repository root:

    PYTHONPATH=src python3.10 tests/cross_python.py > out-3.10.txt
    PYTHONPATH=src python3.13 tests/cross_python.py > out-3.13.txt
    cmp out-3.10.txt out-3.13.txt
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import sys
import tempfile

from coverlab import cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import decks  # noqa: E402

_MS_FIELD = re.compile(r'"ms": [-0-9.e+]+')

# the rows of test_closed_forms.BOUNDED_TIME that read no space file
BOUNDED_ARGV_ROWS = [
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
    ["demo", "heine-borel", "--eps", "1/10000"],
    ["demo", "heine-borel", "--eps", "1/100000"],
]


def _space(n: int, cover) -> bytes:
    return json.dumps({"format": 1, "carrier": n, "covers": [cover]}).encode()


def _random_covers(seed: int, n: int, count: int, members: int) -> bytes:
    rng = random.Random(seed)
    covers = [[[x for x in range(n) if rng.random() < 0.75] for _ in range(members)]
              for _ in range(count)]
    return json.dumps({"format": 1, "carrier": n, "covers": covers}).encode()


def bounded_file_rows() -> list[tuple[list[str], bytes]]:
    """The rows of test_closed_forms.BOUNDED_TIME that read a space file."""
    discrete = {n: _space(n, [[x] for x in range(n)]) for n in (200, 1000, 2000, 10_000)}
    chain = {n: _space(n, [[x, x + 1] for x in range(n - 1)]) for n in (200, 2000)}
    star = _space(10_000, [[x, 9999] for x in range(9999)])
    big_int = b"9" * 5000
    return [
        (["axioms"], b"[" * 5000 + b"]" * 5000),
        (["axioms"], b"\xff\xfe"),
        (["axioms"], b'{"format": 1, "carrier": true, "covers": [[[0]]]}'),
        (["axioms"], b'{"format": true, "carrier": 1, "covers": [[[0]]]}'),
        *((["locale", a], data) for data in (discrete[200], chain[200])
          for a in ("build", "points", "roundtrip")),
        (["locale", "points"], _space(200, [[2 * x, 2 * x + 1] for x in range(100)])),
        (["locale", "points"], discrete[1000]),
        *(([*a.split()], data) for data in (discrete[2000], chain[2000])
          for a in ("axioms", "complete", "reflect", "locale roundtrip")),
        (["axioms"], _random_covers(30, 30, 4, 31)),
        (["axioms"], _space(10**9, [[0]])),
        (["locale", "roundtrip"], discrete[10_000]),
        (["axioms"], _space(10_000, [[0]])),
        (["axioms"], b'{"format": 1, "carrier": 1, "covers": [[[' + big_int + b"]]]}"),
        (["axioms"], b'{"format": 1, "carrier": ' + big_int + b', "covers": [[[0]]]}'),
        (["locale", "points"], _space(2000, [list(range(1000)), list(range(1000, 2000))])),
        (["axioms"], star),
        (["locale", "build"], star),
    ]


def runs(tmp: str) -> list[tuple[list[str], str | None]]:
    """Each argv with the --out file it writes, if any."""
    out = os.path.join(tmp, "out.json")
    got = []
    for workload in ("decide", "build", "frames"):
        for op in decks.make_deck(workload, 1):
            path = os.path.join(tmp, f"{workload}-{op.id}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(decks.render_spacefile(op.n, op.covers))
            argv = [a.replace("{file}", path).replace("{out}", out) for a in op.argv]
            got.append((argv, out if "--out" in argv else None))
    got += [(op.argv, None) for op in decks.make_deck("reals", 1) if op.cmd == "real eval"]
    got += [(["demo", "heine-borel", "--eps", eps], None) for eps in ("1/10", "1/100", "1/1000")]
    got += [(argv, None) for argv in BOUNDED_ARGV_ROWS]
    for i, (argv, data) in enumerate(bounded_file_rows()):
        path = os.path.join(tmp, f"bounded-{i}.json")
        with open(path, "wb") as fh:
            fh.write(data)
        got.append(([*argv, path], None))
    return got


def main() -> int:
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
