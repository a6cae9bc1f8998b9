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


# a number, a name or an operator, else one character that starts none,
# matched with the group empty
_TOKEN = re.compile(r"\s*(?:(\d+\.\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*/();])|\S)")
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def tokenize(text: str) -> list[str]:
    """The tokens of text in one scan.  A text with a character no token
    starts, or long enough for a literal past MAX_LITERAL_DIGITS digits, is
    scanned again for its first refusal."""
    tokens = _TOKEN.findall(text)
    if "" in tokens or len(text) > MAX_LITERAL_DIGITS:
        for m in _TOKEN.finditer(text):
            if not (tok := m.group(1)):  # at where the whitespace before it begins
                raise ExprError(f"unexpected character {text[m.end() - 1]!r} at position {m.start()}")
            if tok[0].isdecimal() and len(tok) - ("." in tok) > MAX_LITERAL_DIGITS:
                raise ExprError(f"numeric literal at position {m.start(1)} has more "
                                f"than {MAX_LITERAL_DIGITS} digits")
    return tokens


class Parser:
    """Precedence climbing over the token list (Pratt, POPL 1973), each
    level's operators joined left to right; a token's position is scanned
    for only when an error names it.  Input nested deeper than MAX_DEPTH is
    refused, counting both the factors open at once (the parser's own
    recursion) and the depth of the tree built."""

    def __init__(self, text: str):
        self.text, self.tokens = text, tokenize(text) + [None]  # None ends the input
        self.i = self.open = self.depth = 0  # next token, factors open, depth parsed last

    def parse(self):
        node = self._expr(1)
        if self.tokens[self.i] is not None:
            raise ExprError(f"trailing {self.tokens[self.i]!r} at position {self._at(self.i)}")
        return node

    def _at(self, i: int) -> int:
        return [m.start(1) for m in _TOKEN.finditer(self.text)][i]

    def _unexpected(self) -> ExprError:
        if (tok := self.tokens[self.i]) is None:
            return ExprError("unexpected end of expression")
        return ExprError(f"unexpected {tok!r} at position {self._at(self.i)}")

    def _within(self, depth: int, i: int) -> int:
        if depth > MAX_DEPTH:
            raise ExprError(f"nesting deeper than {MAX_DEPTH} at position {self._at(i)}")
        return depth

    def _take(self, value: str | None = None) -> str:
        """The next token, which must be value, or a number for None."""
        tok = self.tokens[self.i]
        if tok != value if value else tok is None or not tok[0].isdecimal():
            raise self._unexpected()
        self.i += 1
        return tok

    def _expr(self, level: int):
        """Factors joined by the operators of precedence level and above."""
        node, depth = self._factor(), self.depth
        while _PRECEDENCE.get(op := self.tokens[self.i], 0) >= level:
            i, self.i = self.i, self.i + 1
            node = (op, node, self._expr(_PRECEDENCE[op] + 1))
            depth = self._within(1 + max(depth, self.depth), i)
        self.depth = depth
        return node

    def _factor(self):
        i, tok = self.i, self.tokens[self.i]
        if tok is None:
            raise self._unexpected()
        self.open = self._within(self.open + 1, i)
        if tok == "-":
            self.i += 1
            node = ("neg", self._factor())
            self.depth = self._within(self.depth + 1, i)
        elif tok == "(":
            self.i += 1
            node = self._expr(1)
            self._take(")")
        elif tok[0].isdecimal():
            self.i += 1
            node, self.depth = ("lit", literal(tok)), 1
        elif tok.isidentifier():
            node = self._call(tok, i)
        else:
            raise self._unexpected()
        self.open -= 1
        return node

    def _call(self, name: str, i: int):
        self.i += 1
        self._take("(")
        if name in ("inv", "exp"):
            arg = self._expr(1)
            if name == "inv":  # and its apartness radius
                self._take(";")
            node = (name, arg, self._number()) if name == "inv" else (name, arg)
            self._take(")")
            self.depth = self._within(self.depth + 1, i)
            return node
        if name == "limit":
            if not (form := self.tokens[self.i] or "0").isidentifier():
                raise self._unexpected()
            self.i, args = self.i + 1, []
            while self.tokens[self.i] == ";":
                self.i += 1
                args.append(self._number())
            self._take(")")
            self.depth = 1
            return ("limit", form, tuple(args))
        raise ExprError(f"unknown function {name!r}")

    def _number(self) -> Fraction:
        negative = self.tokens[self.i] == "-"
        self.i += negative
        n, d = literal(self._take())
        if self.tokens[self.i] == "/":
            self.i += 1
            if (denom := literal(self._take()))[0] == 0:
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
