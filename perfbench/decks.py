"""Seeded op decks for the four workloads.

A deck is one round of ops.  Its shape (which subcommand, carrier size,
kind of structure, expression template and precision) is fixed per
workload, so every seed runs the same mix and costs stay comparable from
seed to seed; the seed picks the concrete inputs (which points form which
blocks, the extra covers in each file, the rationals in each expression)
and the order of the round.

Space files are described by ``(n, covers)`` with covers as lists of
integer bitmasks; ``render_spacefile`` turns them into the JSON text the
CLI reads.  Expressions are small trees that render to the CLI grammar and
that ``oracle.reference`` evaluates independently.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from oracle import generator, is_partition

WORKLOADS = ("decide", "build", "frames", "reals")


@dataclass
class Op:
    """One CLI invocation of the deck."""

    id: int
    cmd: str  # axioms, complete, reflect, locale build|points|roundtrip, real eval, heine-borel
    argv: list[str]  # "{file}" and "{out}" are replaced by paths in the work directory
    n: int | None = None
    covers: list[list[int]] | None = None
    kind: str | None = None  # partition, discrete, indiscrete, nonregular
    expr: tuple | None = None
    eps: str | None = None
    bounds: bool = False
    known_failure: str | None = None
    reps: int = 1  # times per pass of a run; cheap ops repeat so their fastest time settles


# ----------------------------------------------------------------- spaces

def _full(n: int) -> int:
    return (1 << n) - 1


def _mask(xs) -> int:
    m = 0
    for x in xs:
        m |= 1 << x
    return m


def partition(rng: random.Random, n: int, sizes: list[int]) -> list[int]:
    """Blocks with the given sizes over a random permutation of the points."""
    assert sum(sizes) == n
    pts = list(range(n))
    rng.shuffle(pts)
    out, i = [], 0
    for s in sizes:
        out.append(_mask(pts[i:i + s]))
        i += s
    return out


def block_sizes(n: int, k: int) -> list[int]:
    """k blocks as even as possible."""
    return [n // k + (1 if i < n % k else 0) for i in range(k)]


def coarsening(rng: random.Random, blocks: list[int]) -> list[int]:
    """Merge the blocks into at most half as many groups."""
    groups = max(1, len(blocks) // 2)
    merged = [0] * groups
    for b in blocks:
        merged[rng.randrange(groups)] |= b
    return [m for m in merged if m]


def partition_file(rng, n, sizes) -> list[list[int]]:
    """The partition plus two coarsenings of it, so the meet is the partition."""
    blocks = partition(rng, n, sizes)
    covers = [blocks, coarsening(rng, blocks), coarsening(rng, blocks)]
    rng.shuffle(covers)
    return covers


def discrete_file(rng, n) -> list[list[int]]:
    """Binary-digit partitions of a random labelling; their meet is discrete."""
    labels = list(range(n))
    rng.shuffle(labels)
    covers = []
    for j in range(max(1, (n - 1).bit_length())):
        zero = _mask(x for x in range(n) if not labels[x] >> j & 1)
        one = _full(n) & ~zero
        covers.append([m for m in (zero, one) if m])
    rng.shuffle(covers)
    return covers


def indiscrete_file(rng, n) -> list[list[int]]:
    """The trivial cover and a cover containing the whole carrier."""
    return [[_full(n)], [_full(n), rng.randrange(1, _full(n) + 1)]]


def _random_cover(rng, n) -> list[int]:
    masks = {rng.randrange(1, _full(n) + 1) for _ in range(rng.randint(2, 4))}
    union = 0
    for m in masks:
        union |= m
    if union != _full(n):
        masks.add(_full(n) & ~union)
    return sorted(masks)


def nonregular_file(rng, n) -> list[list[int]]:
    """Two random covers whose meet is not a partition (n >= 3)."""
    while True:
        covers = [_random_cover(rng, n), _random_cover(rng, n)]
        if not is_partition(generator(n, covers)):
            return covers


def space(rng, n, kind, sizes=None) -> list[list[int]]:
    if kind == "partition":
        return partition_file(rng, n, sizes)
    if kind == "discrete":
        return discrete_file(rng, n)
    if kind == "indiscrete":
        return indiscrete_file(rng, n)
    return nonregular_file(rng, n)


def render_spacefile(n: int, covers: list[list[int]]) -> str:
    doc = {
        "format": 1,
        "carrier": n,
        "covers": [[[x for x in range(n) if m >> x & 1] for m in c] for c in covers],
    }
    return json.dumps(doc) + "\n"


# ------------------------------------------------------------------ decks

class _Deck:
    def __init__(self, seed: int, workload: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.ops: list[Op] = []

    def file_op(self, cmd, n, kind, sizes=None, known=None, out=False, reps=1):
        argv = cmd.split() + ["{file}"] + (["--out", "{out}"] if out else [])
        self.ops.append(
            Op(0, cmd, argv, n=n, covers=space(self.rng, n, kind, sizes), kind=kind,
               known_failure=known, reps=reps)
        )

    def finish(self) -> list[Op]:
        self.rng.shuffle(self.ops)
        for i, op in enumerate(self.ops):
            op.id = i
        return self.ops


def schedule(ops: list[Op]) -> list[Op]:
    """One pass of a run: every op, then the ops repeated a second time, and
    so on, so the repetitions of an op fall at different times."""
    return [op for k in range(max(op.reps for op in ops)) for op in ops if op.reps > k]


def deck_decide(seed: int) -> list[Op]:
    d = _Deck(seed, "decide")
    for n in range(2, 13):
        for sizes in (block_sizes(n, (n + 1) // 2), block_sizes(n, 2),
                      block_sizes(n, n - 1), block_sizes(n, max(1, n // 3))):
            d.file_op("axioms", n, "partition", sizes)
        # three discrete files at n = 8 put the 90th percentile inside one
        # group of equal-cost ops instead of on the edge between two
        for _ in range({8: 3, 9: 4}.get(n, 2)):
            d.file_op("axioms", n, "discrete")
        d.file_op("axioms", n, "indiscrete")
        for k in range(3):
            if n >= 3:
                d.file_op("axioms", n, "nonregular")
            else:
                d.file_op("axioms", n, "partition", block_sizes(n, 1 + k % 2))
    return d.finish()


def deck_build(seed: int) -> list[Op]:
    d = _Deck(seed, "build")
    for n in range(5, 13):
        # ten equal complete ops on 12-point partitions sit just below the
        # slowest ones and hold the 90th percentile
        for _ in range(10 if n == 12 else 2):
            d.file_op("complete", n, "partition", block_sizes(n, (n + 1) // 2), out=True,
                      reps=3 if n <= 10 else 2)
        for _ in range(2):
            d.file_op("complete", n, "partition", block_sizes(n, 3), out=True,
                      reps=3 if n <= 10 else 1)
            d.file_op("complete", n, "indiscrete", out=True, reps=3 if n <= 10 else 1)
        for _ in range(1 if n >= 11 else 2):
            d.file_op("complete", n, "discrete", out=True, reps=3 if n <= 8 else 1)
    for n in (3, 4):
        for _ in range(6):
            d.file_op("complete", n, "nonregular", out=True, reps=3 if n == 3 else 1)
        for _ in range(4):
            d.file_op("reflect", n, "partition", block_sizes(n, 2), out=True, reps=5 - n)
            d.file_op("reflect", n, "discrete", out=True, reps=5 - n)
            d.file_op("reflect", n, "indiscrete", out=True, reps=5 - n)
            d.file_op("reflect", n, "nonregular", out=True, reps=5 - n)
    return d.finish()


def deck_frames(seed: int) -> list[Op]:
    d = _Deck(seed, "frames")
    actions = ("locale build", "locale points", "locale roundtrip")
    shapes = [(2, "discrete", None), (2, "indiscrete", None)] * 5
    shapes += [(3, "partition", [2, 1]), (3, "discrete", None), (3, "indiscrete", None),
               (3, "nonregular", None)] * 5
    # few 4-point ops, which take most of the time, so each of them repeats
    # often enough in a run for its fastest time to settle; they are the top
    # seventh of the deck and hold the 90th percentile
    shapes += [(4, "partition", [2, 2]), (4, "partition", [3, 1]), (4, "discrete", None),
               (4, "indiscrete", None), (4, "nonregular", None)]
    for n, kind, sizes in shapes:
        for a in actions:
            d.file_op(a, n, kind, sizes, reps=3 if n <= 3 else 1)
    return d.finish()


# ---------------------------------------------------------------- reals

EPS_LADDER = ("1e-3", "1e-6", "1e-12", "1e-25", "1e-50", "1e-100", "1e-200")


def render_expr(node) -> str:
    kind = node[0]
    if kind == "rat":
        q = node[1]
        s = f"{abs(q.numerator)}/{q.denominator}" if q.denominator != 1 else str(abs(q.numerator))
        return f"(-{s})" if q < 0 else f"({s})"
    if kind in "+-*/":
        return f"({render_expr(node[1])} {kind} {render_expr(node[2])})"
    if kind == "exp":
        return f"exp({render_expr(node[1])})"
    if kind == "inv":
        d = node[2]
        return f"inv({render_expr(node[1])}; {d.numerator}/{d.denominator})"
    if kind == "inv_n":
        return "limit(inv_n)"
    if kind == "geometric":
        r = node[1]
        return f"limit(geometric; {r.numerator}/{r.denominator})"
    raise ValueError(kind)


def _small_rat(rng, lo=-2, hi=2, maxden=9) -> Fraction:
    while True:
        q = Fraction(rng.randint(lo * maxden, hi * maxden), rng.randint(1, maxden))
        if q != 0 and lo <= q <= hi:
            return q


def _rat(q):
    return ("rat", q)


def real_op(expr, eps, bounds=True, known=None, reps=1) -> Op:
    argv = ["real", "eval", render_expr(expr), "--eps", eps] + (["--bounds"] if bounds else [])
    return Op(0, "real eval", argv, expr=expr, eps=eps, bounds=bounds, known_failure=known,
              reps=reps)


def deck_reals(seed: int) -> list[Op]:
    d = _Deck(seed, "reals")
    rng = d.rng

    def real(expr, eps, bounds=True, reps=2):
        d.ops.append(real_op(expr, eps, bounds, reps=reps))

    def exp_():
        return ("exp", _rat(_small_rat(rng)))

    def lit():
        return _rat(_small_rat(rng, -5, 5, 30))

    # the templates cycle in a fixed order, so every seed runs the same mix
    products = [lambda: ("*", exp_(), exp_()), lambda: ("*", exp_(), lit())]
    quotients = [lambda: ("/", exp_(), exp_()), lambda: ("/", lit(), exp_()),
                 lambda: ("inv", ("exp", _rat(_small_rat(rng, 0, 1))), Fraction(1, 4))]
    for i, eps in enumerate(EPS_LADDER):
        for j in range(2):
            real(("+", ("*", lit(), lit()), lit()), eps)
            real(exp_(), eps)
            real(products[j](), eps)
            real(quotients[(2 * i + j) % 3](), eps)
        real(("-", lit(), lit()), eps)
        real(("+", ("inv_n",), lit()), eps)
        real(("geometric", Fraction(1, 2)), eps)
    for eps in EPS_LADDER[:3]:
        real(("geometric", Fraction(9, 10)), eps)
    # ten equal ops, the same on every seed, hold the median
    for _ in range(10):
        real(("geometric", Fraction(1, 2)), "1e-12")
    # eight equal ops just below the slowest six put the 90th percentile in
    # the middle of one group, whatever the seed picks for the rest
    for _ in range(8):
        real(("geometric", Fraction(9, 10)), "1e-25")
    for _ in range(2):
        real(("geometric", Fraction(9, 10)), "1e-50", reps=1)
    real(("geometric", Fraction(99, 100)), "1e-3", reps=1)
    nested = ("exp", ("exp", _rat(Fraction(1, 4))))
    real(nested, "1/100", bounds=False, reps=1)
    real(nested, "1/1000", bounds=False, reps=1)
    for eps, count in (("1/10", 3), ("1/100", 3), ("1/1000", 1)):
        for _ in range(count):
            d.ops.append(Op(0, "heine-borel", ["demo", "heine-borel", "--eps", eps], eps=eps,
                            reps=1 if eps == "1/1000" else 2))
    return d.finish()


def deck_known(seed: int) -> list[Op]:
    """Ordinary inputs that fail at the seed (``metrics.KNOWN_FAILURES``).
    They stay out of the timed workloads, whose ops must all succeed, and
    ``run.py --known`` runs them once to show which still fail."""
    d = _Deck(seed, "known")
    d.file_op("axioms", 13, "discrete", known="size_guard_axioms_13")
    for n in (5, 6):
        d.file_op("complete", n, "nonregular", out=True, known="size_guard_complete_nonregular")
    d.file_op("locale build", 5, "partition", [2, 2, 1], known="size_guard_locale_5")
    d.file_op("locale points", 5, "partition", [3, 2], known="size_guard_locale_5")
    d.file_op("locale roundtrip", 5, "discrete", known="size_guard_locale_5")
    d.ops.append(real_op(("geometric", Fraction(99, 100)), "1e-10",
                         known="digit_limit_geometric_name"))
    d.ops.append(real_op(("exp", ("exp", _rat(Fraction(1, 4)))), "1/100",
                         known="digit_limit_bounds"))
    return d.finish()


def make_deck(workload: str, seed: int) -> list[Op]:
    return {"decide": deck_decide, "build": deck_build, "frames": deck_frames,
            "reals": deck_reals, "known": deck_known}[workload](seed)
