"""The command-line reader against argparse.

``cli._read`` serves every well-formed argv from the table ``cli.GRAMMAR``
and refuses the rest, which ``cli.build_parser()`` (argparse, built from
the same table) then reads.  Every argv the reader accepts must give the
namespace argparse gives, except that an expression beginning with ``-``
in ``real eval`` is read as argparse reads it after ``--``.
"""

import contextlib
import io
import itertools
import os
import subprocess
import sys
import time

from hypothesis import given, settings, strategies as st

from coverlab import cli

COMMANDS = list(cli.GRAMMAR)
ACTIONS = ["build", "points", "roundtrip", "eval", "heine-borel"]
# tokens the reader refuses wherever they stand, or reads only as an expression
IRREGULAR = ["--ep", "--eps=1", "-h", "--", "-1", "-exp(1)"]
VOCABULARY = [*COMMANDS, *ACTIONS, "FILE", "--out", "--eps", "--bounds", *IRREGULAR]


def _argparse(argv):
    """argparse's namespace for argv as a dict, or None on a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def _agrees(argv) -> bool:
    """Whether the reader accepts argv; when it does, its namespace must be
    argparse's, taken on the ``--`` form for an expression beginning with -."""
    got = cli._read(argv)
    if got is None:
        return False
    expression = vars(got).get("expression", "")
    if expression.startswith("-"):
        argv = list(argv)
        argv.remove(expression)
        argv += ["--", expression]
    assert vars(got) == _argparse(argv), argv
    return True


def test_every_argv_of_up_to_four_tokens():
    started = time.perf_counter()
    accepted = [argv for size in range(5)
                for argv in itertools.product(VOCABULARY, repeat=size) if _agrees(argv)]
    assert time.perf_counter() - started < 3
    # every subcommand but real, whose shortest line has five tokens, is served
    assert {argv[0] for argv in accepted} == set(COMMANDS) - {"real"}
    assert ("locale", "points", "FILE") in accepted
    assert ("complete", "--out", "FILE", "FILE") in accepted
    assert ("demo", "--eps", "FILE", "heine-borel") in accepted


@st.composite
def command_lines(draw):
    """A subcommand, a word for each positional (often one of its choices),
    each option zero to two times, in any order, at times with one more
    token of the vocabulary put in somewhere."""
    command = draw(st.sampled_from(COMMANDS))
    _, _, positionals, options = cli.GRAMMAR[command]
    words = st.sampled_from(VOCABULARY)
    pieces = [[draw(st.sampled_from(choices) | words if choices else words)]
              for _, choices in positionals]
    for flag, kind, _ in options:
        for _ in range(draw(st.integers(0, 2))):
            pieces.append([flag] if kind == "flag" else [flag, draw(words)])
    argv = [command, *itertools.chain.from_iterable(draw(st.permutations(pieces)))]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(1, len(argv))), draw(words))
    return argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argv=command_lines())
def test_seeded_command_lines(argv):
    accepted = _agrees(argv)
    # an argv of regular tokens that argparse accepts is the reader's too
    if not set(argv) & set(IRREGULAR) and _argparse(argv) is not None:
        assert accepted, argv


def test_leading_minus_expression():
    for argv in (["real", "eval", "-exp(1)", "--eps", "1"],
                 ["real", "eval", "--eps", "1", "-exp(1)"],
                 ["real", "--bounds", "eval", "-1/3", "--eps", "1"]):
        assert _agrees(argv)
    # help, a separator and a double dash keep argparse's reading
    for argv in (["real", "eval", "-h", "--eps", "1"], ["real", "eval", "-hx", "--eps", "1"],
                 ["real", "eval", "--x", "--eps", "1"], ["real", "eval", "--eps", "1", "--"],
                 ["real", "eval", "1", "--eps", "-1"], ["locale", "build", "-x"]):
        assert cli._read(argv) is None


def test_well_formed_calls_leave_argparse_unimported(tmp_path):
    space = tmp_path / "d2.json"
    space.write_text('{"format": 1, "carrier": 2, "covers": [[[0], [1]]]}')
    program = "\n".join([
        "import contextlib, io, sys",
        "from coverlab import cli",
        "print('argparse' in sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [cli.main(['real', 'eval', '-exp(1)', '--eps', '1e-6', '--bounds']),",
        "             cli.main(['complete', sys.argv[1], '--out', sys.argv[1] + '.out'])]",
        "print(codes, 'argparse' in sys.modules, cli.build_parser.cache_info().misses)",
        # an abbreviation is argparse's to read
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [cli.main(['real', 'eval', '1', '--ep', '1'])]",
        "print(codes, 'argparse' in sys.modules, cli.build_parser.cache_info().misses)",
    ])
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    run = subprocess.run([sys.executable, "-c", program, str(space)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert run.stdout.splitlines() == ["False", "[0, 0] False 0", "[0] True 1"], run.stderr
