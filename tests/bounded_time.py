"""Hostile and large inputs that the CLI answers in bounded time, and the
command lines it reads only through argparse, for a usage error or help:
row id -> (argv, the bytes of the space file whose path ends the argv or
None, exit code).  ``{tmp}`` in an argv names the directory that holds the
row's file.  ``test_closed_forms.py`` runs each row under 2 s, ``cross_python.py``
prints what each gives.  Standard library only, and pytest does not collect it.
"""

import json
import random


def space_bytes(n, cover):
    return json.dumps({"format": 1, "carrier": n, "covers": [cover]}).encode()


def random_covers_bytes(seed, n, count, members):
    """count covers of n points, each of members random members holding
    every point with probability 3/4 (a point missing from a cover, or an
    empty member, fails the assertion instead of the budget)."""
    rng = random.Random(seed)
    covers = [[[x for x in range(n) if rng.random() < 0.75] for _ in range(members)]
              for _ in range(count)]
    for cover in covers:
        assert all(cover) and set().union(*cover) == set(range(n))
    return json.dumps({"format": 1, "carrier": n, "covers": covers}).encode()


DISCRETE_200 = space_bytes(200, [[x] for x in range(200)])
CHAIN_200 = space_bytes(200, [[x, x + 1] for x in range(199)])
_PAIRS_100 = space_bytes(200, [[2 * x, 2 * x + 1] for x in range(100)])
_DISCRETE_1000 = space_bytes(1000, [[x] for x in range(1000)])
_DISCRETE_2000 = space_bytes(2000, [[x] for x in range(2000)])
_CHAIN_2000 = space_bytes(2000, [[x, x + 1] for x in range(1999)])
_DISCRETE_10000 = space_bytes(10_000, [[x] for x in range(10_000)])
# every member holds the last point: each meet, maximal-mask and star step
# handles 9,999 distinct 10,000-bit masks
_STAR_10000 = space_bytes(10_000, [[x, 9999] for x in range(9999)])
_TWO_BLOCKS_1000 = space_bytes(2000, [list(range(1000)), list(range(1000, 2000))])
_BIG_INT = b"9" * 5000
# 0.333...3, 4000 digits: a ratio of about 13,300 bits over 10^4000
_THIRD_4000 = "0." + "3" * 3999
_DISCRETE_2 = space_bytes(2, [[0], [1]])

BOUNDED_TIME = {
    "deep-nesting": (["axioms"], b"[" * 5000 + b"]" * 5000, 2),
    "not-utf8": (["axioms"], b"\xff\xfe", 2),
    "carrier-true": (["axioms"], b'{"format": 1, "carrier": true, "covers": [[[0]]]}', 2),
    "format-true": (["axioms"], b'{"format": true, "carrier": 1, "covers": [[[0]]]}', 2),
    "eps-1e999999999": (["real", "eval", "1", "--eps", "1e999999999"], None, 2),
    "eps-1e-999999999": (["real", "eval", "1", "--eps", "1e-999999999"], None, 2),
    "build-discrete-200": (["locale", "build"], DISCRETE_200, 0),
    "points-discrete-200": (["locale", "points"], DISCRETE_200, 0),
    "roundtrip-discrete-200": (["locale", "roundtrip"], DISCRETE_200, 0),
    "build-chain-200": (["locale", "build"], CHAIN_200, 0),
    "points-chain-200": (["locale", "points"], CHAIN_200, 0),
    "roundtrip-chain-200": (["locale", "roundtrip"], CHAIN_200, 1),
    "points-100-pairs": (["locale", "points"], _PAIRS_100, 1),
    "points-discrete-1000": (["locale", "points"], _DISCRETE_1000, 0),
    "axioms-discrete-2000": (["axioms"], _DISCRETE_2000, 0),
    "complete-discrete-2000": (["complete"], _DISCRETE_2000, 0),
    "reflect-discrete-2000": (["reflect"], _DISCRETE_2000, 0),
    "roundtrip-discrete-2000": (["locale", "roundtrip"], _DISCRETE_2000, 0),
    "axioms-chain-2000": (["axioms"], _CHAIN_2000, 1),
    "complete-chain-2000": (["complete"], _CHAIN_2000, 0),
    "reflect-chain-2000": (["reflect"], _CHAIN_2000, 0),
    "roundtrip-chain-2000": (["locale", "roundtrip"], _CHAIN_2000, 1),
    # about 189,000 terms, past xreal.MAX_SERIES_TERMS: refused at once
    "geometric-9999/10000": (
        ["real", "eval", "limit(geometric; 9999/10000)", "--eps", "1/1000"], None, 1
    ),
    # needs over 2,000,000 terms: the index search stops at the budget
    "exp-1000000": (["real", "eval", "exp(1000000)", "--eps", "1"], None, 1),
    # the exponential of a real is two rational exponentials at the ends of
    # one answer for its argument, not a series of interval products
    "exp-exp-5": (["real", "eval", "exp(exp(5))", "--eps", "1"], None, 0),
    # e^20 is about 4.9e8: the bound on e^|x| already passes the term budget
    "exp-exp-20": (["real", "eval", "exp(exp(20))", "--eps", "1"], None, 1),
    # past the interpreter's 4300-digit int-to-str limit
    "third-1e-5000": (["real", "eval", "1/3", "--eps", "1e-5000"], None, 0),
    "third-1e-100000-bounds": (
        ["real", "eval", "1/3", "--eps", "1e-100000", "--bounds"], None, 0
    ),
    # exact series terms are carried as integer bounds on a fixed-point grid,
    # so a term's bits follow the precision, not its index
    "exp-exp-1/2-1e-1000": (["real", "eval", "exp(exp(1/2))", "--eps", "1e-1000"], None, 0),
    "exp-7000": (["real", "eval", "exp(7000)", "--eps", "1"], None, 0),
    "exp-exp-0-plus-999": (["real", "eval", "exp(exp(0) + 999)", "--eps", "1"], None, 0),
    # at realexpr.MAX_LITERAL_DIGITS: int() reads "0333...3" whole, 4300
    # digits, where Fraction(text) read "0" and 4299 digits apart
    "literal-4300-digit-decimal": (["real", "eval", "0." + "3" * 4299, "--eps", "1e-10"], None, 0),
    # past realexpr.MAX_LITERAL_DIGITS: a parse error, not int()'s message
    "literal-5000-digits": (["real", "eval", "1" * 5000 + "/3", "--eps", "1"], None, 2),
    # ceil(1/eps) + 1 net points, refused past cli.MAX_NET_POINTS
    "heine-borel-1/10000": (["demo", "heine-borel", "--eps", "1/10000"], None, 0),
    "heine-borel-1/100000": (["demo", "heine-borel", "--eps", "1/100000"], None, 1),
    # a net of two balls whose ends have 5,001 digits, past the int-to-str limit
    "heine-borel-1e5000": (["demo", "heine-borel", "--eps", "1e5000"], None, 0),
    # the third meet step would form 29,729 pairs, past coverspace.MAX_MEET_PAIRS:
    # refused at once instead of meeting and pruning for over 100 s
    "meets-30-points-four-covers-of-31": (["axioms"], random_covers_bytes(30, 30, 4, 31), 1),
    # past spacefile.MAX_CARRIER: refused before any mask or point set is built
    "carrier-1e9": (["axioms"], space_bytes(10**9, [[0]]), 2),
    # at the budget: the slowest subcommand on a discrete file, and a cover
    # of one point that lists the other 9,999 as missing
    "roundtrip-discrete-10000": (["locale", "roundtrip"], _DISCRETE_10000, 0),
    "axioms-one-point-cover-10000": (["axioms"], space_bytes(10_000, [[0]]), 1),
    # past the interpreter's 4300-digit int limit, which json.loads enforces
    "index-5000-digits": (
        ["axioms"], b'{"format": 1, "carrier": 1, "covers": [[[' + _BIG_INT + b"]]]}", 2
    ),
    "carrier-5000-digits": (
        ["axioms"], b'{"format": 1, "carrier": ' + _BIG_INT + b', "covers": [[[0]]]}', 2
    ),
    # 2,000 subsets of 1,999 points, past cli.MAX_POINTS_PRINTED: refused
    # before any is built instead of printing 54 MB
    "points-two-blocks-of-1000": (["locale", "points"], _TWO_BLOCKS_1000, 1),
    "axioms-star-10000": (["axioms"], _STAR_10000, 1),
    "build-star-10000": (["locale", "build"], _STAR_10000, 0),
    # the same file reflected to one block of 10,000 points, and completed
    # to that block's one point: a walk over 9,999 wide masks and a star
    # table of 10,000 points each
    "complete-star-10000": (["complete"], _STAR_10000, 0),
    "reflect-star-10000": (["reflect"], _STAR_10000, 0),
    # the tail test compares |r|^(n+1) to a few bits instead of building it
    # (27.9M bits at 1e-1000); past xreal.MAX_SERIES_WORK, which counts the
    # ratio's bits, the walk refuses before its first step
    "geometric-4000-digits-1e-300": (
        ["real", "eval", f"limit(geometric; {_THIRD_4000})", "--eps", "1e-300"], None, 0
    ),
    "geometric-4000-digits-1e-1000": (
        ["real", "eval", f"limit(geometric; {_THIRD_4000})", "--eps", "1e-1000"], None, 0
    ),
    "geometric-4000-digits-1e-3000": (
        ["real", "eval", f"limit(geometric; {_THIRD_4000})", "--eps", "1e-3000"], None, 1
    ),
    "exp-4000-digits-1e-20000": (
        ["real", "eval", f"exp({_THIRD_4000})", "--eps", "1e-20000"], None, 1
    ),
    "exp-1/3-1e-70000": (["real", "eval", "exp(1/3)", "--eps", "1e-70000"], None, 1),
    # MAX_SERIES_WORK bounds the walks of one evaluation together: six of the
    # terms above took 2 s, each walk under the budget alone
    "geometric-4000-digits-six-terms-1e-1000": (
        ["real", "eval", " + ".join([f"limit(geometric; {_THIRD_4000})"] * 6), "--eps", "1e-1000"],
        None, 1,
    ),
    # a divisor that is exactly zero but not a literal: every apartness probe
    # down to realexpr.APARTNESS_FLOOR straddles zero
    "apartness-at-the-floor": (["real", "eval", "1/(exp(1/2) - exp(1/2))", "--eps", "1"], None, 2),
    # a negative ratio swaps the walk's lower and upper bounds at every step
    "geometric-negative-ratio": (
        ["real", "eval", "limit(geometric; -9/10)", "--eps", "1e-200", "--bounds"], None, 0
    ),
    # past spacefile.MAX_NESTING, though Python 3.13's json.loads reads it
    "deep-nesting-in-covers": (
        ["axioms"], b'{"format": 1, "carrier": 1, "covers": ' + b"[" * 5000 + b"]" * 5000 + b"}", 2
    ),
    # argparse's usage errors and help, for argvs the reader refuses; no
    # file is read, so "FILE" names none
    "usage-empty": ([], None, 2),
    "usage-help": (["--help"], None, 0),
    "usage-real-help": (["real", "--help"], None, 0),
    "usage-locale-h": (["locale", "-h"], None, 0),
    "usage-locale-spin": (["locale", "spin", "FILE"], None, 2),
    "usage-real-without-eps": (["real", "eval", "1"], None, 2),
    "usage-eps-abbreviated": (["real", "eval", "1", "--ep", "1"], None, 0),
    "usage-eps-equals": (["real", "eval", "1", "--eps=1"], None, 0),
    "usage-out-without-value": (["complete", "FILE", "--out"], None, 2),
    "usage-extra-positional": (["axioms", "FILE", "extra"], None, 2),
    "usage-max-carrier": (["--max-carrier", "4", "locale", "roundtrip", "FILE"], None, 2),
    # an expression that begins with "-" is the expression, as after "--"
    "leading-minus-expression": (["real", "eval", "-exp(1)", "--eps", "1"], None, 0),
    # file errors name the path, as open() names it, and exit 2
    "input-missing": (["axioms", "{tmp}/missing.json"], None, 2),
    "input-directory": (["axioms", "{tmp}"], None, 2),
    "out-into-missing-directory": (["complete", "--out", "{tmp}/missing/out.json"], _DISCRETE_2, 2),
    "out-names-a-directory": (["reflect", "--out", "{tmp}"], _DISCRETE_2, 2),
    # the document follows 200 KiB of blanks, so it is read in several chunks
    "input-after-200-KiB-of-blanks": (["axioms"], b" " * 200 * 1024 + _DISCRETE_2, 0),
}
