"""Expression grammar for evaluating exact reals from the command line.

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom
    atom   := NUMBER | '(' expr ')'
            | 'inv' '(' expr ';' NUMBER ')'
            | 'exp' '(' expr ')'
            | 'limit' '(' NAME (';' NUMBER)* ')'

Numbers are integers or exact decimals of at most ``MAX_LITERAL_DIGITS``
digits; rationals like 1/3 arrive through the division operator, which
folds exactly on rational operands.  Division by a non-literal denominator
searches for an apartness witness.  Supported limit forms:
``limit(inv_n)`` (the sequence 1/n) and ``limit(geometric; r)`` (the
geometric series at ratio r, |r| < 1, summed from its ratio).
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

from . import xreal
from .xreal import ConvergentSeq, Real

APARTNESS_FLOOR = Fraction(1, 2**60)
# The parser, ``evaluate`` and the answers' queries each recurse once per
# level of nesting, against the interpreter's limit of about 1000 frames.
MAX_DEPTH = 100
# Fraction reads a literal through int(), which refuses more digits than
# the interpreter's int-to-str limit, 4300 by default from Python 3.11 on.
MAX_LITERAL_DIGITS = 4300
# rational operands fold exactly
_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class ExprError(ValueError):
    """Syntax or evaluation error with position information."""


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/();]))"
)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprError(f"unexpected character {stripped[0]!r} at position {pos}")
        if m.group("num"):
            if sum(c.isdigit() for c in m.group("num")) > MAX_LITERAL_DIGITS:
                raise ExprError(f"numeric literal at position {m.start('num')} has more "
                                f"than {MAX_LITERAL_DIGITS} digits")
            out.append(("num", m.group("num"), m.start("num")))
        elif m.group("name"):
            out.append(("name", m.group("name"), m.start("name")))
        else:
            out.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return out


class Parser:
    """Recursive descent over the grammar above.  Input nested deeper than
    MAX_DEPTH is refused, counting both the factors open at once (the
    parser's own recursion) and the depth of the tree built."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0
        self.open = 0  # factors being parsed, each inside the one before
        self.depth = 0  # depth of the subtree parsed last

    def _within(self, depth: int, tok) -> int:
        if depth > MAX_DEPTH:
            raise ExprError(f"nesting deeper than {MAX_DEPTH} at position {tok[2]}")
        return depth

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, kind=None, value=None):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        if kind and tok[0] != kind or value and tok[1] != value:
            raise ExprError(f"unexpected {tok[1]!r} at position {tok[2]}")
        self.i += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            tok = self.peek()
            raise ExprError(f"trailing {tok[1]!r} at position {tok[2]}")
        return node

    def expr(self):
        node, depth = self.term(), self.depth
        while self.peek() and self.peek()[1] in "+-":
            op = self.take()
            node = (op[1], node, self.term())
            depth = self._within(1 + max(depth, self.depth), op)
        self.depth = depth
        return node

    def term(self):
        node, depth = self.factor(), self.depth
        while self.peek() and self.peek()[1] in "*/":
            op = self.take()
            node = (op[1], node, self.factor())
            depth = self._within(1 + max(depth, self.depth), op)
        self.depth = depth
        return node

    def factor(self):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        self.open = self._within(self.open + 1, tok)
        if tok[1] == "-":
            self.take()
            node = ("neg", self.factor())
            self.depth = self._within(self.depth + 1, tok)
        else:
            node = self.atom()
        self.open -= 1
        return node

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            self.depth = 1
            return ("lit", Fraction(tok[1]))
        if tok[1] == "(":
            self.take()
            node = self.expr()
            self.take(value=")")
            return node
        if tok[0] == "name":
            return self.call()
        raise ExprError(f"unexpected {tok[1]!r} at position {tok[2]}")

    def call(self):
        tok = self.take("name")
        name = tok[1]
        self.take(value="(")
        if name == "inv":
            arg = self.expr()
            self.take(value=";")
            delta = self.number()
            self.take(value=")")
            self.depth = self._within(self.depth + 1, tok)
            return ("inv", arg, delta)
        if name == "exp":
            arg = self.expr()
            self.take(value=")")
            self.depth = self._within(self.depth + 1, tok)
            return ("exp", arg)
        if name == "limit":
            form = self.take("name")[1]
            args = []
            while self.peek() and self.peek()[1] == ";":
                self.take()
                args.append(self.number())
            self.take(value=")")
            self.depth = 1
            return ("limit", form, tuple(args))
        raise ExprError(f"unknown function {name!r}")

    def number(self) -> Fraction:
        sign = Fraction(1)
        if self.peek() and self.peek()[1] == "-":
            self.take()
            sign = Fraction(-1)
        tok = self.take("num")
        value = sign * Fraction(tok[1])
        if self.peek() and self.peek()[1] == "/":
            self.take()
            denom = Fraction(self.take("num")[1])
            if denom == 0:
                raise ExprError("zero denominator in literal")
            value /= denom
        return value


def evaluate(node) -> Fraction | Real:
    """Evaluate to an exact fraction where possible, a Real otherwise."""
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "neg":
        v = evaluate(node[1])
        return -v if isinstance(v, Fraction) else xreal.neg(v)
    if kind in "+-*/":
        a = evaluate(node[1])
        b = evaluate(node[2])
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            if kind == "/" and b == 0:
                raise ExprError("division by exact zero")
            return _FOLD[kind](a, b)
        ra, rb = _to_real(a), _to_real(b)
        if kind == "/":
            return xreal.mul(ra, _inverse(rb))
        return {"+": xreal.add, "-": xreal.sub, "*": xreal.mul}[kind](ra, rb)
    if kind == "inv":
        arg = _to_real(evaluate(node[1]))
        return xreal.inv(arg, node[2])
    if kind == "exp":
        arg = evaluate(node[1])
        if isinstance(arg, Fraction):
            return xreal.exp_rational(arg)
        return xreal.exp_real(arg)
    if kind == "limit":
        return _limit_form(node[1], node[2])
    raise ExprError(f"unknown node {kind!r}")


def _to_real(v) -> Real:
    return xreal.real_of_rat(v) if isinstance(v, Fraction) else v


def _inverse(x: Real) -> Real:
    delta = xreal.find_apartness(x, APARTNESS_FLOOR)
    if delta is None:
        raise ExprError(
            f"no apartness witness for divisor above {APARTNESS_FLOOR}"
        )
    return xreal.inv(x, delta)


def _limit_form(form: str, args: tuple[Fraction, ...]) -> Real:
    if form == "inv_n":
        if args:
            raise ExprError("limit(inv_n) takes no arguments")
        seq = ConvergentSeq(
            terms=lambda n: xreal.real_of_rat(Fraction(1, n + 1)),
            modulus=lambda eps: math.ceil(2 / eps),
        )
        return xreal.limit(seq)
    if form == "geometric":
        if len(args) != 1:
            raise ExprError("limit(geometric; r) takes one ratio")
        r = args[0]
        if not abs(r) < 1:
            raise ExprError("geometric ratio must satisfy |r| < 1")
        return xreal.sum_series(
            terms=(Fraction(1), lambda k: r),
            tail_bound=lambda n: abs(r) ** (n + 1) / (1 - abs(r)),
            tail_index=lambda eps: _geometric_index(r, eps),
        )
    raise ExprError(f"unknown limit form {form!r}")


def _geometric_index(r: Fraction, eps: Fraction) -> int:
    """Smallest n >= 0 with |r|^(n+1) / (1 - |r|) <= eps: doubling, then
    bisection on n + 1 over the exact test, which is monotone in n."""
    a = abs(r)
    t = eps * (1 - a)
    hi = 1
    while not _power_at_most(a, hi, t):
        hi *= 2
    lo = hi // 2  # fails the test, or is 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _power_at_most(a, mid, t):
            hi = mid
        else:
            lo = mid
    return hi - 1


def _power_at_most(a: Fraction, n: int, t: Fraction) -> bool:
    """Exact test of a^n <= t, without forming a^n.

    Bounds on the n-th powers of a's numerator and denominator, carried
    to p bits, decide it unless the two sides agree to about n * 2^-p;
    p then doubles, and once the powers fit in p bits the bounds are exact.
    """
    p = 64
    while True:
        nl, nh, ns = _power_bounds(a.numerator, n, p)
        dl, dh, ds = _power_bounds(a.denominator, n, p)
        m = min(ns, ds)
        # a^n <= t  iff  num^n * t.den <= den^n * t.num
        left_lo, left_hi = ((x << (ns - m)) * t.denominator for x in (nl, nh))
        right_lo, right_hi = ((y << (ds - m)) * t.numerator for y in (dl, dh))
        if left_hi <= right_lo:
            return True
        if left_lo > right_hi:
            return False
        p *= 2


def _power_bounds(b: int, n: int, p: int) -> tuple[int, int, int]:
    """(lo, hi, s) with lo * 2^s <= b^n <= hi * 2^s and hi of about p bits,
    by squaring and multiplying with truncation down for lo, up for hi."""
    lo = hi = 1
    s = 0
    for bit in bin(n)[2:]:
        lo, hi, s = lo * lo, hi * hi, 2 * s
        if bit == "1":
            lo, hi = lo * b, hi * b
        drop = max(0, hi.bit_length() - p)
        lo, hi, s = lo >> drop, -(-hi >> drop), s + drop
    return lo, hi, s


def eval_expression(text: str, eps) -> xreal.RInterval:
    """Parse and evaluate, returning one interval at the given precision."""
    value = evaluate(Parser(text).parse())
    return _to_real(value).approx(eps)


def format_interval(iv: xreal.RInterval, eps: Fraction, eps_text: str) -> str:
    """Exact-decimal rendering: midpoint rounded to enough digits that the
    printed value plus-minus eps still encloses the interval.  The digit
    count, least d with 10**d * eps >= 1, steps up from a lower bound read
    off the bit lengths (1233/4096 < log10 2)."""
    num, den = eps.numerator, eps.denominator
    digits = max(0, (den.bit_length() - num.bit_length() - 1) * 1233 >> 12)
    while 10**digits * num < den:
        digits += 1
    scaled = iv.midpoint * 10**digits
    rounded = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    whole, frac = divmod(abs(rounded), 10**digits)
    text = "-" * (rounded < 0) + decimal_digits(whole)
    tail = f".{decimal_digits(frac).zfill(digits)}" if digits else ""
    return f"{text}{tail} ± {eps_text}"


def format_fraction(q: Fraction) -> str:
    """str(q), its integers printed by decimal_digits."""
    text = decimal_digits(q.numerator)
    return text if q.denominator == 1 else f"{text}/{decimal_digits(q.denominator)}"


def decimal_digits(n: int) -> str:
    """str(n) past the interpreter's int-to-str limit (4300 digits from
    Python 3.11 on): a long n splits at a power of ten into halves."""
    if n.bit_length() <= 4000:
        return str(n)
    if n < 0:
        return "-" + decimal_digits(-n)
    half = n.bit_length() * 3 // 20  # about half of n's digits
    high, low = divmod(n, 10**half)
    return decimal_digits(high) + decimal_digits(low).zfill(half)
