"""Expression grammar for evaluating exact reals from the command line.

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom
    atom   := NUMBER | '(' expr ')'
            | 'inv' '(' expr ';' RATIONAL ')'
            | 'exp' '(' expr ')'
            | 'limit' '(' NAME (';' RATIONAL)* ')'
    RATIONAL := ['-'] NUMBER ['/' NUMBER]

Numbers are integers or exact decimals of at most ``MAX_LITERAL_DIGITS``
digits, read with int(); rationals like 1/3 arrive through the division
operator, which folds rational operands exactly as integer pairs, one
Fraction made where each enters ``xreal``.  Division by a non-literal
denominator searches for an apartness witness.  Limit forms: ``limit(inv_n)``
(1/n) and ``limit(geometric; r)`` (ratio r, |r| < 1, summed from its ratio).
``answer`` gives xreal's triple (lo, hi, den), which is printed on integers.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from . import xreal
from .xreal import ConvergentSeq, Real

APARTNESS_FLOOR = Fraction(1, 2**60)
# The parser, ``evaluate`` and the answers' queries each recurse once per
# level of nesting, against the interpreter's limit of about 1000 frames.
MAX_DEPTH = 100
# A literal is read through int(), which refuses more digits than the
# interpreter's int-to-str limit, 4300 by default from Python 3.11 on.
MAX_LITERAL_DIGITS = 4300
# rational operands (a/b, c/d), b, d > 0, fold exactly on integers, not reduced
_FOLD = {"+": lambda a, b, c, d: (a * d + c * b, b * d), "*": lambda a, b, c, d: (a * c, b * d),
         "-": lambda a, b, c, d: (a * d - c * b, b * d),
         "/": lambda a, b, c, d: (a * d, b * c) if c > 0 else (-a * d, -b * c)}


class ExprError(ValueError):
    """Syntax or evaluation error with position information."""

    exit_code = 2  # the CLI's code for a parse error


def parse_eps(text: str, max_exponent: int) -> Fraction:
    """The precision text as a positive Fraction; a decimal exponent beyond
    max_exponent in magnitude is refused before Fraction builds 10**exponent."""
    exponent = re.search(r"[eE][-+]?([0-9_]*)\s*$", text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > 6 or int(digits or "0") > max_exponent:
            raise ExprError(f"precision exponent beyond +-{max_exponent} in {text!r}")
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ExprError(f"bad precision {text!r}") from e
    if eps <= 0:
        raise ExprError("precision must be positive")
    return eps


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/();])"
    r"|(?P<bad>\S))"
)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value = m.group(kind)
        if kind == "bad":
            # the position where the whitespace before the character begins
            raise ExprError(f"unexpected character {value!r} at position {m.start()}")
        if kind == "num" and len(value) - ("." in value) > MAX_LITERAL_DIGITS:
            raise ExprError(f"numeric literal at position {m.start(kind)} has more "
                            f"than {MAX_LITERAL_DIGITS} digits")
        out.append((kind, value, m.start(kind)))
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

    def expr(self, ops="+-"):
        """A left-associative level: terms joined by '+ -', or factors by '* /'."""
        node = self.expr("*/") if ops == "+-" else self.factor()
        depth = self.depth
        while self.peek() and self.peek()[1] in ops:
            op = self.take()
            node = (op[1], node, self.expr("*/") if ops == "+-" else self.factor())
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
            return ("lit", literal(tok[1]))
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
        if name in ("inv", "exp"):
            node = (name, self.expr())
            if name == "inv":  # and its apartness radius
                self.take(value=";")
                node += (self.number(),)
            self.take(value=")")
            self.depth = self._within(self.depth + 1, tok)
            return node
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
        negative = bool(self.peek() and self.peek()[1] == "-" and self.take())
        n, d = literal(self.take("num")[1])
        if self.peek() and self.peek()[1] == "/":
            self.take()
            if (denom := literal(self.take("num")[1]))[0] == 0:
                raise ExprError("zero denominator in literal")
            n, d = n * denom[1], d * denom[0]
        return Fraction(-n if negative else n, d)


def literal(text: str) -> tuple[int, int]:
    """A number token as the pair (its digits, a power of ten)."""
    whole, _, frac = text.partition(".")
    return int(whole + frac), 10 ** len(frac)


def evaluate(node) -> tuple[int, int] | Real:
    """Evaluate to an exact rational (n, d), d > 0, or else a Real."""
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "neg":
        v = evaluate(node[1])
        return (-v[0], v[1]) if isinstance(v, tuple) else xreal.neg(v)
    if kind in "+-*/":
        a = evaluate(node[1])
        b = evaluate(node[2])
        if isinstance(a, tuple) and isinstance(b, tuple):
            if kind == "/" and b[0] == 0:
                raise ExprError("division by exact zero")
            return _FOLD[kind](*a, *b)
        ra, rb = _to_real(a), _to_real(b)
        if kind == "/":
            return xreal.mul(ra, _inverse(rb))
        return {"+": xreal.add, "-": xreal.sub, "*": xreal.mul}[kind](ra, rb)
    if kind == "inv":
        arg = _to_real(evaluate(node[1]))
        return xreal.inv(arg, node[2])
    if kind == "exp":
        v = evaluate(node[1])
        return xreal.exp_rational(Fraction(*v)) if isinstance(v, tuple) else xreal.exp_real(v)
    if kind == "limit":
        return _limit_form(node[1], node[2])
    raise ExprError(f"unknown node {kind!r}")


def _to_real(v) -> Real:
    return xreal.real_of_rat(Fraction(*v)) if isinstance(v, tuple) else v


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
        ratio = a, d = r.numerator, r.denominator
        return xreal.sum_series(
            terms=(Fraction(1), ratio),
            # |r|^(n+1) / (1 - |r|) <= e: the test _geometric_index ends on
            tail_within=lambda n, e: xreal._power_at_most(
                abs(a), d, n + 1, e.numerator * (d - abs(a)), e.denominator * d),
            tail_index=lambda eps: _geometric_index(r, eps),
        )
    raise ExprError(f"unknown limit form {form!r}")


def _geometric_index(r: Fraction, eps: Fraction) -> int:
    """Smallest n >= 0 with |r|^(n+1) / (1 - |r|) <= eps: one less than
    the least k >= 1 with (a/d)^k <= eps (d - a)/d for |r| = a/d, from
    ``xreal.least_power`` on integers."""
    a, d = abs(r.numerator), r.denominator
    return max(1, xreal.least_power(a, d, eps.numerator * (d - a), eps.denominator * d)) - 1


def answer(text: str, eps: Fraction) -> xreal.Answer:
    """Parse and evaluate, returning the answer (lo, hi, den) for the interval
    (lo/den, hi/den) at the positive precision eps."""
    return _to_real(evaluate(Parser(text).parse()))._get((eps.numerator, eps.denominator))


def format_interval(ans: xreal.Answer, eps: Fraction, eps_text: str) -> str:
    """Exact-decimal rendering of the answer (lo, hi, den): its midpoint
    (lo + hi) / (2 den) rounded, half up, to enough digits that the printed
    value plus-minus eps still encloses the interval.  The digit count,
    least d with 10**d * eps >= 1, steps up from a lower bound read off the
    bit lengths (1233/4096 < log10 2)."""
    lo, hi, den = ans
    num, eden = eps.numerator, eps.denominator
    digits = max(0, (eden.bit_length() - num.bit_length() - 1) * 1233 >> 12)
    while 10**digits * num < eden:
        digits += 1
    rounded = ((lo + hi) * 10**digits + den) // (2 * den)
    whole, frac = divmod(abs(rounded), 10**digits)
    text = "-" * (rounded < 0) + decimal_digits(whole)
    tail = f".{decimal_digits(frac).zfill(digits)}" if digits else ""
    return f"{text}{tail} ± {eps_text}"


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


def format_ratio(n: int, d: int, digits=decimal_digits) -> str:
    """str(Fraction(n, d)) for d > 0, its integers printed by digits: str for short ones."""
    g = math.gcd(n, d)
    text = digits(n // g)
    return text if g == d else f"{text}/{digits(d // g)}"
