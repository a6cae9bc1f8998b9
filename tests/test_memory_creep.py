"""Memory stays flat across calls in one long-running interpreter.

A tuple built from an iterator with no length hint, such as a generator,
starts at 10 slots and is shrunk in place to its k items.  When it dies it
joins the interpreter's free list for k-slot tuples rather than the list
for 10-slot ones, so each call that builds one leaves one more block on
that list, up to 2,000 for each size.  ``gc.collect()`` finds nothing to
free here: only a full collection empties the free lists.  ``src/coverlab``
therefore builds a tuple from a list, which knows its final size.

Two tests pin that.  One parses the sources and names every ``tuple()`` of
a generator expression or of ``map``, ``filter``, ``zip`` or ``enumerate``.
The other runs each subcommand about 1,000 times in one fresh interpreter,
after a warm-up that fills the bounded caches (``xreal._log2_bounds``,
``spacefile._KEY_TEXT``) and the free lists a call uses, and bounds the
growth of ``sys.getallocatedblocks()`` over those calls.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
ITERATORS = {"map", "filter", "zip", "enumerate"}


def unsized_tuples(path: str) -> list[int]:
    """Lines of ``tuple(x)`` calls whose x is a generator expression or a
    call of one of ITERATORS, neither of which gives a length hint."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "tuple" and len(node.args) == 1):
            arg = node.args[0]
            if isinstance(arg, ast.GeneratorExp) or (
                    isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
                    and arg.func.id in ITERATORS):
                lines.append(node.lineno)
    return sorted(lines)


def test_no_tuple_is_built_from_an_iterator_without_a_length():
    package = os.path.join(SRC, "coverlab")
    found = [f"{name}:{line}" for name in sorted(os.listdir(package)) if name.endswith(".py")
             for line in unsized_tuples(os.path.join(package, name))]
    assert not found, ("tuple() of a generator or iterator; build it from a list comprehension"
                       " instead: " + ", ".join(found))


def test_the_scan_sees_each_form(tmp_path):
    path = tmp_path / "forms.py"
    path.write_text("a = tuple(x for x in y)\n"
                    "b = tuple(map(f, y))\nc = tuple(filter(f, y))\n"
                    "d = tuple(zip(y, z))\ne = tuple(enumerate(y))\n"
                    "f = tuple([x for x in y])\ng = tuple(y)\nh = tuple(sorted(y))\n")
    assert unsized_tuples(str(path)) == [1, 2, 3, 4, 5]


SPACES = {  # name -> a small space file
    "partition": '{"format": 1, "carrier": 5, "covers": [[[0, 1], [2, 3], [4]]]}',
    "discrete": '{"format": 1, "carrier": 4, "covers": [[[0], [1], [2], [3]]]}',
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
# Calls of each subcommand: interleaved to fill the caches, then, after a
# full collection has emptied the free lists, in a row to refill them, and
# last the calls measured.  A creeping call reaches a free list's cap of
# 2,000 only after the measured ones begin, so they see its growth.
WARM_UP, SETTLE, MEASURED = 300, 100, 1_000
# Blocks a subcommand may gain over the MEASURED calls: a quarter of a block
# a call.  A call that leaves one tuple on a free list gains about 1,000.
# Flat code gained 0-2 under Python 3.11-3.13 and up to 30 under 3.10, but
# `real eval` up to about 100: blocks that the interpreter keeps after its
# `re` scans fill over a few thousand calls before they stop growing.
SLACK = 250

PROGRAM = """
import contextlib, gc, io, json, sys
from coverlab import cli
calls, warm_up, settle, measured = json.loads(sys.argv[1]), *map(int, sys.argv[2:])
sink = io.StringIO()

def run(argv, times):
    for _ in range(times):
        with contextlib.redirect_stdout(sink):
            assert cli.main(argv) == 0, argv
        sink.seek(0)
        sink.truncate()

# no collection may run while measuring: a full one empties the free lists
gc.disable()
for _ in range(10):
    for argv in calls.values():
        run(argv, warm_up // 10)
grown = {}
for label, argv in calls.items():
    # start each subcommand from empty free lists, then let it fill them
    gc.collect()
    run(argv, settle)
    before = sys.getallocatedblocks()
    run(argv, measured)
    grown[label] = sys.getallocatedblocks() - before
print(json.dumps(grown))
"""


@pytest.fixture(scope="module")
def growth(tmp_path_factory) -> dict[str, int]:
    tmp = tmp_path_factory.mktemp("creep")
    for name, text in SPACES.items():
        (tmp / f"{name}.json").write_text(text, encoding="utf-8")
    calls = {label: [a.replace("{tmp}", str(tmp)) for a in argv] for label, argv in CALLS.items()}
    run = subprocess.run(
        [sys.executable, "-c", PROGRAM, json.dumps(calls), *map(str, (WARM_UP, SETTLE, MEASURED))],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.mark.parametrize("label", CALLS)
def test_calls_leave_memory_flat(growth, label):
    assert growth[label] < SLACK, (
        f"{label}: {growth[label]} more blocks after {MEASURED} calls")
