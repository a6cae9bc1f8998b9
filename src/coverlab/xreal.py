"""Exact real arithmetic on rational intervals queried by precision.

A real is a function from a positive rational precision to an open
rational interval of width at most that precision; all answers of one real
pairwise overlap, and the number denoted sits strictly inside every
answer.  No floating point enters this module.  Inside it an answer is an
integer triple (lo, hi, den), den > 0, for (lo/den, hi/den), at a precision
n/d asked as the pair (n, d) in lowest terms, after Boehm's constructive
reals (LFP 1986; J. Logic and Algebraic Programming 64, 2005).  Combinators
ask their arguments at powers of two, so nearby requests share cached
answers, and round out onto a grid 2^k sized by the precision.  A series of
exact terms, partial or whole, is one walk on integers, ``_walk``.
Fractions are built at the boundary only: ``Real.approx``, ``Real(fn)``'s
fn, the callables of the limits and series.
"""

from __future__ import annotations

import contextvars
import functools
import math
import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence

Answer = tuple[int, int, int]  # the interval (lo/den, hi/den), den > 0


class InvariantError(RuntimeError):
    """An answer violated the width or overlap contract."""


class ApartnessError(ValueError):
    """The apartness witness failed; carries the offending interval."""

    def __init__(self, interval: "RInterval", delta: Fraction):
        super().__init__(f"interval {interval} is not outside (-{delta}, {delta})")
        self.interval = interval
        self.delta = delta


# The most terms a partial sum may add: limit(geometric; 999/1000) at 1/1000
# needs about 16,600, 9999/10000 would need 189,000 and refuses at once.  An
# exact term's bits follow the precision and the series' growth, not its index.
MAX_SERIES_TERMS = 20_000
# The most work the fixed-point walks of exact terms may do in one evaluation,
# the outermost query under way, whose units _SERIES_WORK holds.  A walk of n
# terms, integers of at most p + growth bits and a last ratio of q bits is
# n * (p + growth) * (1 + q // 256) units: each step multiplies by the ratio's
# numerator and divides by its denominator.  Walks timed in-process (2-core
# x86-64 VM, Python 3.11.7): exp(7000) at eps 1, 3.9e8 units, 0.28 s;
# exp(exp(1/2)) at 1e-3000, two of 9.9e8, 0.41 s each; limit(geometric; r)
# for r = 0.333...3 of 4000 digits at 1e-2000, 2.9e9, 1.25 s, and at 1e-3000,
# 6.5e9, 2.6 s; exp(1/3) at 1e-70000, 4.3e9, 1.6 s.
MAX_SERIES_WORK = 1_200_000_000
_SERIES_WORK = contextvars.ContextVar("series_work", default=None)


class TailBoundError(ValueError):
    """The series tail bound did not drop below the requested precision."""


class SeriesBudgetError(ValueError):
    """A series would need more than MAX_SERIES_TERMS terms, or its walk
    would take its evaluation past MAX_SERIES_WORK work."""


class UncoveredPointError(ValueError):
    """Greedy subcover found a point no cover member contains."""

    def __init__(self, point: Fraction):
        super().__init__(f"point {point} is not covered")
        self.point = point


def rat(x) -> Fraction:
    """Coerce to an exact fraction; floats are rejected on purpose."""
    if isinstance(x, float):
        raise TypeError("floats carry rounding; pass a Fraction, int, or string")
    return Fraction(x)


@dataclass(frozen=True)
class RInterval:
    """An open interval with rational endpoints, lo < hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not (isinstance(self.lo, Fraction) and isinstance(self.hi, Fraction)):
            raise TypeError("endpoints must be exact fractions")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got {self.lo} >= {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, q: Fraction) -> bool:
        return self.lo < q < self.hi

    def overlaps(self, other: "RInterval") -> bool:
        return max(self.lo, other.lo) < min(self.hi, other.hi)

    def hull(self, other: "RInterval") -> "RInterval":
        return RInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def gap(self, other: "RInterval") -> Fraction:
        """Separation between the intervals; nonpositive when they meet."""
        return max(self.lo, other.lo) - min(self.hi, other.hi)

    def __repr__(self) -> str:
        return f"({self.lo}, {self.hi})"


class Real:
    """A number presented by its precision-indexed interval answers:
    ``approx`` answers an RInterval, ``_get`` the triple at a pair (n, d),
    and ``fn`` either at the Fraction n/d, or at the pair if ``pairs``.
    Each new answer is checked by integer cross-products for width and for
    overlap with the narrowest so far, then cached.  The outermost query in a
    context opens the evaluation MAX_SERIES_WORK bounds."""

    __slots__ = ("_fn", "_cache", "_lock", "_narrowest", "_name")

    def __init__(self, fn: Callable[[Fraction], RInterval | Answer],
                 name: str | Callable[[], str] = "real", pairs: bool = False):
        self._fn = fn if pairs else lambda eps: fn(Fraction(*eps))
        self._cache: dict[tuple[int, int], Answer] = {}
        self._lock = threading.Lock()
        self._narrowest: Answer | None = None
        self._name = name

    @property
    def name(self) -> str:
        if callable(self._name):
            self._name = self._name()
        return self._name

    def approx(self, eps) -> RInterval:
        eps = rat(eps)
        if eps <= 0:
            raise ValueError("precision must be positive")
        return _interval(*self._get((eps.numerator, eps.denominator)))

    def _get(self, eps: tuple[int, int]) -> Answer:
        if _SERIES_WORK.get() is None:
            token = _SERIES_WORK.set([0])
            try:
                return self._get(eps)
            finally:
                _SERIES_WORK.reset(token)
        if (got := self._cache.get(eps)) is not None:
            return got
        ans = self._fn(eps)
        if isinstance(ans, RInterval):
            a, b = ans.lo, ans.hi
            ans = (a.numerator * b.denominator, b.numerator * a.denominator,
                   a.denominator * b.denominator)
        lo, hi, den = ans
        if (hi - lo) * eps[1] > eps[0] * den:
            raise InvariantError(f"{self.name}: answer {_interval(*ans)} wider than "
                                 f"requested {Fraction(*eps)}")
        with self._lock:
            n = self._narrowest or ans
            if not (lo * n[2] < n[1] * den and n[0] * den < hi * n[2]):
                raise InvariantError(f"{self.name}: answer {_interval(*ans)} disjoint "
                                     f"from {_interval(*n)}")
            if n is ans or (hi - lo) * n[2] < (n[1] - n[0]) * den:
                self._narrowest = ans
            self._cache[eps] = ans
        return ans

    def __repr__(self) -> str:
        return f"<Real {self.name}>"


def _interval(lo: int, hi: int, den: int) -> RInterval:
    return RInterval(Fraction(lo, den), Fraction(hi, den))


def real_of_rat(q) -> Real:
    """q -+ eps/3, exactly over 3 q.den eps.den."""
    q = rat(q)
    n, d = 3 * q.numerator, q.denominator
    return Real(lambda eps: (n * eps[1] - d * eps[0], n * eps[1] + d * eps[0], 3 * d * eps[1]),
                name=lambda: f"rat({q})", pairs=True)


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


class CutLocator:
    """Decision oracle for a two-sided cut: given a < b, LEFT asserts a is
    below the cut, RIGHT asserts b is above it."""

    def __init__(self, fn: Callable[[Fraction, Fraction], Side], name: str = "cut"):
        self._fn = fn
        self.name = name
        self.calls = 0

    def loc(self, a, b) -> Side:
        a, b = rat(a), rat(b)
        if not a < b:
            raise ValueError("locator queries need a < b")
        self.calls += 1
        side = self._fn(a, b)
        if side not in (Side.LEFT, Side.RIGHT):
            raise ValueError("locator must answer a Side")
        return side


def rational_cut(q) -> CutLocator:
    """The cut sitting at a rational number (the number itself on neither side)."""
    q = rat(q)

    def fn(a: Fraction, b: Fraction) -> Side:
        return Side.LEFT if b <= q or a < q and q - a >= b - q else Side.RIGHT

    return CutLocator(fn, name=f"cut@{q}")


def sqrt_cut(k: int) -> CutLocator:
    """The cut under the square root of a positive non-square integer."""

    def fn(a: Fraction, b: Fraction) -> Side:
        return Side.LEFT if a <= 0 or a * a < k else Side.RIGHT

    return CutLocator(fn, name=f"cut@sqrt({k})")


def trisection_steps(width: Fraction, eps: Fraction) -> int:
    """Smallest k with width * (2/3)^k <= eps, that is, with
    (2/3)^k <= eps/width: ``least_power`` on integer pairs."""
    return least_power(2, 3, eps.numerator * width.denominator, eps.denominator * width.numerator)


def least_power(cn: int, cd: int, tn: int, td: int) -> int:
    """The least k >= 0 with (cn/cd)^k <= tn/td, for 0 <= cn < cd and
    tn, td > 0: the ceiling of R = log(td/tn) / log(cd/cn).  A lower bound
    over an upper bound from ``_log2_bounds`` never passes R.  For
    s = bits(cd) - bits(cd - cn), log2(cd/cn) > 2^-(s+1) and
    R < bits(td) 2^(s+1), so 48 + 2s + bits(bits(td)) bits put it short by
    under 2^-40: one or two exact ``_power_at_most`` tests finish.  td/tn
    is split into its power of two and an odd rest, cached for a series."""
    if tn >= td:
        return 0
    if cn == 0:
        return 1
    bits = 48 + 2 * (cd.bit_length() - (cd - cn).bit_length()) + td.bit_length().bit_length()
    x, y = (td & -td).bit_length() - 1, (tn & -tn).bit_length() - 1
    lo = ((x - y) << bits) + _log2_bounds(td >> x, tn >> y, bits)[0]
    k = max(1, -(-lo // _log2_bounds(cd, cn, bits)[1]))
    while not _power_at_most(cn, cd, k, tn, td):
        k += 1
    return k


@functools.lru_cache(maxsize=64)
def _log2_bounds(num: int, den: int, bits: int) -> tuple[int, int]:
    """(lo, lo + 2) holding 2^bits log2(num/den), for num, den > 0: the
    integer part e from the bit lengths, then m = num/(den 2^e) in [1, 2),
    floored to w = bits + 4 fraction bits, squared bits times, a square of
    2 or more halved for a 1 bit.  A floor only lowers a square, so the
    bits read never pass log2(m); they miss it by under 2^-bits for the
    bits not read and 1.45 * 3 * 2^-w for the floors: under two units.
    Cached for the ratios that recur in trisection_steps and a series."""
    e = _exponent(num, den)
    w = bits + 4
    y, acc = (num << w) // (den << e) if e >= 0 else (num << w - e) // den, e
    for _ in range(bits):
        y = y * y >> w
        acc <<= 1
        if y >> (w + 1):
            y >>= 1
            acc += 1
    return acc, acc + 2


def _power_at_most(an: int, ad: int, n: int, tn: int, td: int) -> bool:
    """Exact test of (an/ad)^n <= tn/td, without forming the powers.

    Powers of at most 4096 bits are compared at once.  Otherwise bounds on
    the n-th powers of an and ad, carried to p bits, decide it unless the
    two sides agree to about n * 2^-p; p then doubles, and once the powers
    fit in p bits the bounds are exact.
    """
    if n * ad.bit_length() <= 4096:
        return an**n * td <= ad**n * tn
    p = 64
    while True:
        nl, nh, ns = _power_bounds(an, n, p)
        dl, dh, ds = _power_bounds(ad, n, p)
        m = min(ns, ds)
        # an^n td <= ad^n tn, both sides over 2^m
        left_lo, left_hi = ((x << (ns - m)) * td for x in (nl, nh))
        right_lo, right_hi = ((y << (ds - m)) * tn for y in (dl, dh))
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


def real_of_cut(locator: CutLocator, seed: RInterval) -> Real:
    """The real determined by a cut locator, shrunk from a straddling seed.

    Each round queries the two inner trisection points and keeps the two
    thirds the locator certifies, shrinking the width by a factor of 3/2.
    An inconsistent seed is undetectable from the answers alone; it
    surfaces later as an overlap violation.
    """
    chain = [seed]
    lock = threading.Lock()

    def fn(eps: Fraction) -> RInterval:
        steps = trisection_steps(seed.width, eps)
        with lock:
            while len(chain) <= steps:
                cur = chain[-1]
                third = cur.width / 3
                if locator.loc(cur.lo + third, cur.hi - third) is Side.LEFT:
                    chain.append(RInterval(cur.lo + third, cur.hi))
                else:
                    chain.append(RInterval(cur.lo, cur.hi - third))
            return chain[steps]

    return Real(fn, name=f"of_cut({locator.name})")


def cut_of_real(x: Real) -> CutLocator:
    """The cut locator of a real: query at a third of the gap; if the
    answer clears the left endpoint, the left endpoint is below the cut,
    otherwise the right endpoint is forced above it."""

    def fn(a: Fraction, b: Fraction) -> Side:
        return Side.LEFT if x.approx((b - a) / 3).lo > a else Side.RIGHT

    return CutLocator(fn, name=f"cut_of({x.name})")


def _exponent(n: int, d: int) -> int:
    """The k with 2^k <= n/d < 2^(k+1), for n, d > 0, from bit lengths."""
    k = n.bit_length() - d.bit_length()
    return k - (n << -k < d if k < 0 else n < d << k)


def _power_of_two(k: int) -> tuple[int, int]:
    """2^k as a precision pair, in lowest terms."""
    return (1 << k, 1) if k >= 0 else (1, 1 << -k)


def _grid(eps: tuple[int, int]) -> int:
    """The k of the grid 2^k, the largest power of two at most eps/4."""
    return _exponent(eps[0], 4 * eps[1])


def _round_out(lo: int, hi: int, den: int, k: int) -> Answer:
    """Floor lo/den and ceil hi/den onto the grid 2^k, for k = _grid(eps) a
    growth of at most eps/2: half of a combinator's width budget."""
    if k >= 0:
        den <<= k
        return lo // den << k, -(-hi // den) << k, 1
    return (lo << -k) // den, -((-hi << -k) // den), 1 << -k


def _pad(lo: int, hi: int, den: int, j: int) -> Answer:
    """lo/den - 2^j and hi/den + 2^j over one denominator."""
    if j >= 0:
        return lo - (den << j), hi + (den << j), den
    return (lo << -j) - den, (hi << -j) + den, den << -j


def add(x: Real, y: Real) -> Real:
    def fn(eps: tuple[int, int]) -> Answer:
        k = _grid(eps)
        alo, ahi, ad = x._get(_power_of_two(k))
        blo, bhi, bd = y._get(_power_of_two(k))
        return _round_out(alo * bd + blo * ad, ahi * bd + bhi * ad, ad * bd, k)

    return Real(fn, name=lambda: f"({x.name}+{y.name})", pairs=True)


def neg(x: Real) -> Real:
    def fn(eps: tuple[int, int]) -> Answer:
        lo, hi, den = x._get(eps)
        return -hi, -lo, den

    return Real(fn, name=lambda: f"(-{x.name})", pairs=True)


def sub(x: Real, y: Real) -> Real:
    return add(x, neg(y))


def scale(x: Real, c) -> Real:
    """Multiplication by an exact rational constant."""
    c = rat(c)
    if c == 0:
        return real_of_rat(0)
    cn, cd, twice = c.numerator, c.denominator, 2 * abs(c.numerator)

    def fn(eps: tuple[int, int]) -> Answer:  # x at eps/(2|c|)
        lo, hi, den = x._get(_power_of_two(_exponent(eps[0] * cd, twice * eps[1])))
        lo, hi = (lo * cn, hi * cn) if cn > 0 else (hi * cn, lo * cn)
        return _round_out(lo, hi, den * cd, _grid(eps))

    return Real(fn, name=lambda: f"({c}*{x.name})", pairs=True)


def mul(x: Real, y: Real) -> Real:
    """Product via magnitude bounds: a unit-precision answer bounds each
    factor, and the precision split charges each factor with the other's
    bound plus one, within half the width; the rounding takes the rest."""

    def fn(eps: tuple[int, int]) -> Answer:
        en, ed = eps
        (bxn, bxd), (byn, byd) = _magnitude_bound(x), _magnitude_bound(y)
        # each factor at min(1, eps / (4 (b + 1))), b the other's bound
        alo, ahi, ad = x._get(_power_of_two(min(0, _exponent(en * byd, 4 * ed * (byn + byd)))))
        blo, bhi, bd = y._get(_power_of_two(min(0, _exponent(en * bxd, 4 * ed * (bxn + bxd)))))
        products = alo * blo, alo * bhi, ahi * blo, ahi * bhi
        return _round_out(min(products), max(products), ad * bd, _grid(eps))

    return Real(fn, name=lambda: f"({x.name}*{y.name})", pairs=True)


def _magnitude_bound(x: Real) -> tuple[int, int]:
    """n/d at least |x|, from x's answer at precision 1."""
    lo, hi, den = x._get(_power_of_two(0))
    return max(-lo, hi), den


def inv(x: Real, delta) -> Real:
    """Reciprocal of a real witnessed apart from zero.

    The witness query at the apartness radius must land entirely outside
    the symmetric interval; each answer then queries at e*delta^2 /
    (1 + e*delta) for e = eps/2, clips to the witnessed side, and inverts
    endpoints.  The clipped endpoints stay at least delta from zero, which
    bounds the inverted width by e and leaves the rest for the rounding.
    """
    delta = rat(delta)
    if delta <= 0:
        raise ValueError("apartness radius must be positive")
    dn, dd = delta.numerator, delta.denominator
    wlo, whi, wd = x._get((dn, dd))
    if not (wlo * dd >= dn * wd or whi * dd <= -dn * wd):
        raise ApartnessError(_interval(wlo, whi, wd), delta)

    def fn(eps: tuple[int, int]) -> Answer:
        en, ed = eps
        glo, ghi, gd = x._get(_power_of_two(_exponent(en * dn * dn, dd * (2 * ed * dd + en * dn))))
        ln, ld = (glo, gd) if glo * wd >= wlo * gd else (wlo, wd)
        hn, hd = (ghi, gd) if ghi * wd <= whi * gd else (whi, wd)
        # 1/hi and 1/lo over hn * ln, positive: both ends have the witness's sign
        return _round_out(hd * ln, ld * hn, hn * ln, _grid(eps))

    return Real(fn, name=lambda: f"inv({x.name};{delta})", pairs=True)


def find_apartness(x: Real, eps_floor) -> Fraction | None:
    """Search delta = 1, 1/2, 1/4, ... down to the floor for a witness
    that x is outside (-delta, delta), on integers.  None proves nothing."""
    eps_floor = rat(eps_floor)
    fn, fd, j = eps_floor.numerator, eps_floor.denominator, 0
    while fn << j <= fd:  # 2^-j >= the floor
        lo, hi, den = x._get((1, 1 << j))
        if lo << j >= den or hi << j <= -den:
            return Fraction(1, 1 << j)
        j += 1
    return None


@dataclass(frozen=True)
class ConvergentSeq:
    """A sequence of reals with an explicit convergence witness.

    Contract: for all n, m >= modulus(eps), the values of terms(n) and
    terms(m) differ by at most eps/2.  Operationally: their answers at
    precision eps/4 have a hull of width at most eps.
    """

    terms: Callable[[int], Real]
    modulus: Callable[[Fraction], int]


def check_cauchy_witness(seq: ConvergentSeq, eps, n: int) -> bool:
    """The testable form of the sequence contract at one index."""
    eps = rat(eps)
    base_index = seq.modulus(eps)
    if n < base_index:
        return True
    a = seq.terms(n).approx(eps / 4)
    b = seq.terms(base_index).approx(eps / 4)
    return a.hull(b).width <= eps


def limit(seq: ConvergentSeq) -> Real:
    """The limit: query the term at the modulus index of s = 2^_grid(eps)
    at s, pad by the convergence slack s/2 and round; the term and the
    padding take half the width, the rounding the other half."""

    def fn(eps: tuple[int, int]) -> Answer:
        k = _grid(eps)
        s = _power_of_two(k)
        return _round_out(*_pad(*seq.terms(seq.modulus(Fraction(*s)))._get(s), k - 1), k)

    return Real(fn, name="limit", pairs=True)


# series terms: a Real for each index, or exact terms as t_0 and the ratio
# with t_k = t_{k-1} * a/d for (a, d) = ratio(k), or ratio itself, and d > 0
Terms = Callable[[int], Real] | tuple[Fraction, Callable[[int], tuple[int, int]] | tuple[int, int]]


def partial_sum(terms: Terms, n: int, growth: int = 0) -> Real:
    """The sum of terms 0..n.  Real terms add as two integers on the grid
    per, the largest power of two at most eps/(2(n+1)): each term's answer
    at per adds its floor and ceil, spending at most 2*per.

    Exact terms (t_0, ratio), where 2^growth bounds every product of
    consecutive |ratio(k)|, k <= n (growth 0 serves |ratio| <= 1), carry
    integers l_k <= t_k 2^p <= u_k in ``_walk``, the one walk that
    sum_series takes too (Brent, J. ACM 23, 1976; Brent & Zimmermann,
    Modern Computer Arithmetic, 4.4).  ratio(k), or ratio for every k, is a
    pair of integers (a, d), d > 0, in lowest terms or not: each step
    multiplies by a and floors (for l) or ceils (for u) the division by d,
    swapping the two first when a < 0, so the bits of a term follow p, not
    k.  A floor and a ceil each lose less than one unit, so e_k = u_k - l_k
    obeys e_0 <= 1 and e_k <= |ratio(k)| e_{k-1} + 2; unrolled, e_k is at
    most 2 times a sum of k + 1 products of consecutive ratios, so
    e_k <= 2(k+1)G for G = 2^growth.  The sums of the l_k and u_k, one unit
    further out for strictness, then differ by at most (n+1)(n+2)G + 2 <
    2^(2 bits(n+2) + growth + 1) units, which is at most 2^-k <= eps once
    p = k + 2 bits(n+2) + growth + 1.  A walk that would take its
    evaluation past MAX_SERIES_WORK refuses before its first step.
    """

    def fn(eps: tuple[int, int]) -> Answer:
        if isinstance(terms, tuple):
            return _walk(terms, n, -_exponent(*eps), growth)
        j = _exponent(eps[0], 2 * (n + 1) * eps[1])
        lo = hi = 0
        for i in range(n + 1):
            l, h, den = _round_out(*terms(i)._get(_power_of_two(j)), j)
            lo, hi = lo + l, hi + h
        return lo, hi, den

    return Real(fn, name=lambda: f"partial_sum({n})", pairs=True)


def _walk(terms: Terms, n: int, k: int, growth: int) -> Answer:
    """partial_sum's answer on exact terms at 2^-k, checked for width."""
    t0, ratio = terms
    p = max(0, k + 2 * (n + 2).bit_length() + growth + 1)
    a, d = ratio if isinstance(ratio, tuple) else ratio(n) if n else (0, 1)
    q = abs(a).bit_length() + d.bit_length()
    work, spent = n * (p + growth) * (1 + q // 256), _SERIES_WORK.get()
    if spent[0] + work > MAX_SERIES_WORK:
        before = f" after {spent[0]} in this evaluation" if spent[0] else ""
        raise SeriesBudgetError(
            f"summing {n} terms at {p} bits with {q}-bit ratios is {work} units of "
            f"work{before}, more than {MAX_SERIES_WORK}")
    spent[0] += work
    lo = l = (t0.numerator << p) // t0.denominator
    hi = u = -(-t0.numerator << p) // t0.denominator
    c = d - 1  # for a constant ratio, ceil(x/d) is (x + c) // d
    if not isinstance(ratio, tuple):
        for i in range(1, n + 1):
            a, d = ratio(i)
            if a < 0:
                l, u = u, l
            l, u = l * a // d, -(-u * a // d)
            lo, hi = lo + l, hi + u
    elif a < 0:
        for _ in range(n):
            l, u = u * a // d, (l * a + c) // d
            lo, hi = lo + l, hi + u
    else:
        for _ in range(n):
            l, u = l * a // d, (u * a + c) // d
            lo, hi = lo + l, hi + u
    if hi - lo + 2 > 1 << p - k:
        raise InvariantError(f"partial_sum({n}): answer wider than requested 2^{-k}")
    return lo - 1, hi + 1, 1 << p


def sum_series(
    terms: Terms,
    tail_within: Callable[[int, Fraction], bool],
    tail_index: Callable[[Fraction], int],
    growth: int = 0,
) -> Real:
    """Sum a series whose tails are explicitly bounded.

    tail_within(N, e) must say exactly whether a bound on the absolute value
    of the sum beyond N, decreasing in N, is at most e; tail_index(eps) must
    return an N whose bound is at most eps (checked at each use; failure
    raises), and may stop its search at MAX_SERIES_TERMS: an index there or
    past it refuses before any term is built or bound tested.  Real terms go
    through ``limit``: partial-sum differences are bounded by two tails,
    hence the quarter precision below.
    Exact terms (t_0, ratio), the ratios integer pairs and growth as in
    partial_sum, answer at once by its walk, no partial sum Real built: for
    s = 2^_grid(eps), the sum to the index of s/4 within s, widened by s/4
    for the tail, is rounded out once, 3s/2 + eps/2 <= eps in all.
    """

    def index(e: Fraction) -> int:  # a checked N whose tail bound is at most e
        n = tail_index(e)
        if n >= MAX_SERIES_TERMS:
            raise SeriesBudgetError(
                f"series needs index {n} or more, past {MAX_SERIES_TERMS} terms")
        if not tail_within(n, e):
            raise TailBoundError(f"the tail bound at index {n} exceeds requested {e}")
        return n

    if not isinstance(terms, tuple):
        return limit(ConvergentSeq(lambda n: partial_sum(terms, n), lambda eps: index(eps / 4)))

    def fn(eps: tuple[int, int]) -> Answer:
        k = _grid(eps)
        n = index(Fraction(*_power_of_two(k - 2)))
        return _round_out(*_pad(*_walk(terms, n, -k, growth), k - 2), k)

    return Real(fn, name="series", pairs=True)


def exp_rational(q) -> Real:
    """The exponential of an exact rational via its power series, the ratio
    q/k as the integer pair (q.numerator, q.denominator * k).  For the
    integer b > |q|, a product of consecutive ratios is at most
    b^m j!/(j+m)! <= b^m/m! <= e^b < 2^ceil(1.4427 b)."""
    q = rat(q)
    b = abs(q.numerator) // q.denominator + 1  # integer bound > |q|
    growth = -(-14427 * b // 10000)
    a, d = q.numerator, q.denominator
    out = sum_series((Fraction(1), lambda k: (a, d * k)), _factorial_tail(b),
                     _factorial_tail_index(b), growth)
    out._name = lambda: f"exp({q})"
    return out


def exp_real(x: Real) -> Real:
    """The exponential of a real as the monotone image of one answer for x:
    (lo, hi) maps into (e^lo, e^hi), bracketed by exp_rational.  For the
    integer b > |x| + 1 and g >= e^b, an answer a at a precision at most 1
    has |a.lo|, |a.hi| < b, so e^a.hi - e^a.lo <= g * width(a) (mean value
    theorem): x at eps/(4g) takes eps/4, each endpoint at eps/8 another
    eps/8, the rounding the remaining half."""
    n, d = _magnitude_bound(x)
    b = n // d + 2
    _, gn, gd = exp_rational(b)._get(_power_of_two(0))  # g = gn/gd

    def fn(eps: tuple[int, int]) -> Answer:
        en, ed = eps
        alo, ahi, ad = x._get(_power_of_two(min(0, _exponent(en * gd, 4 * ed * gn))))
        e = _power_of_two(_exponent(en, 8 * ed))
        lo, _, ld = exp_rational(Fraction(alo, ad))._get(e)
        _, hi, hd = exp_rational(Fraction(ahi, ad))._get(e)
        return _round_out(lo * hd, hi * ld, ld * hd, _grid(eps))

    return Real(fn, name=lambda: f"exp({x.name})", pairs=True)


def _factorial_tail(b: int) -> Callable[[int, Fraction], bool]:
    # 2 b^(n+1)/(n+1)! bounds the tail of sum b^k/k! once n+1 >= 2b
    return lambda n, e: 2 * b ** (n + 1) * e.denominator <= e.numerator * math.factorial(n + 1)


def _factorial_tail_index(b: int) -> Callable[[Fraction], int]:
    def index(eps: Fraction) -> int:
        # the least n >= 2b with 2 b^(n+1) eps.den <= eps.num (n+1)!, or the
        # budget if that is smaller: steps of s double from 1 while the test
        # fails, then halve, each multiplying by b^s and (n+2)...(n+1+s)
        n, step, grow = 2 * b, 1, True
        if n >= MAX_SERIES_TERMS:
            return n
        num, den = 2 * b ** (n + 1) * eps.denominator, math.factorial(n + 1) * eps.numerator
        if num <= den:
            return n
        while step:  # the test fails at n
            ahead = num * b**step, den * math.perm(n + 1 + step, step)
            if ahead[0] > ahead[1]:
                n, (num, den) = n + step, ahead
                if n >= MAX_SERIES_TERMS:
                    return MAX_SERIES_TERMS
            else:
                grow = False
            step = 2 * step if grow else step // 2
        return n + 1

    return index


@dataclass(frozen=True)
class Verified:
    """Grid-limited positive verdict: no violation at the sampled points."""

    grid: tuple[Fraction, ...]
    eps_values: tuple[Fraction, ...]
    probes: tuple[int, ...]


@dataclass(frozen=True)
class Refuted:
    """Certified violation: at the witness point and index, the interval
    answers are separated by at least eps."""

    eps: Fraction
    x: Fraction
    n: int
    base_index: int
    base: RInterval
    probe: RInterval

    @property
    def separation(self) -> Fraction:
        return self.base.gap(self.probe)


def uniform_convergence_check(
    family: Callable[[int, Fraction], Real],
    domain: RInterval,
    candidate_modulus: Callable[[Fraction], int],
    grid_eps,
    probe_indices: Sequence[int],
    eps_values: Iterable,
) -> Verified | Refuted:
    """Sound refuter and grid-sampled verifier of the uniform-convergence
    criterion: past the modulus index, values at each point must stay
    within eps of the value at the modulus index.

    Refutation is certified by interval separation; verification only
    covers the sampled grid, precisions, and indices.
    """
    grid = tuple(epsilon_net(domain, grid_eps))
    eps_values = tuple([rat(e) for e in eps_values])
    probes = tuple(probe_indices)
    for eps in eps_values:
        base_index = candidate_modulus(eps)
        for xq in grid:
            base = family(base_index, xq).approx(eps / 8)
            for n in probes:
                if n < base_index:
                    continue
                probe = family(n, xq).approx(eps / 8)
                if base.gap(probe) >= eps:
                    return Refuted(eps, xq, n, base_index, base, probe)
    return Verified(grid, eps_values, probes)


def _net_numerators(domain: RInterval, eps) -> tuple[Fraction, range, int]:
    """eps and the net lo + width i/k, i <= k = ceil(width/eps), over one
    denominator: for lo = a/b and width = c/d, point i is (adk + cbi)/(bdk)."""
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("net radius must be positive")
    a, b = domain.lo.numerator, domain.lo.denominator
    c, d = domain.width.numerator, domain.width.denominator
    k = -(-c * eps.denominator // (d * eps.numerator))
    return eps, range(a * d * k, a * d * k + c * b * k + 1, c * b), b * d * k


def epsilon_net(domain: RInterval, eps) -> list[Fraction]:
    """Evenly spaced rationals covering the closed domain within eps."""
    _, nums, den = _net_numerators(domain, eps)
    return [Fraction(x, den) for x in nums]


def _balls(domain: RInterval, eps) -> tuple[list[int], list[int], int]:
    """The ends of ball_cover's balls, integer numerators over one denominator."""
    eps, nums, den = _net_numerators(domain, eps)
    e, f = eps.numerator * den, eps.denominator
    return [x * f - e for x in nums], [x * f + e for x in nums], den * f


def ball_cover(domain: RInterval, eps) -> list[RInterval]:
    """The open balls of radius eps about the points of epsilon_net."""
    los, his, d = _balls(domain, eps)
    return [RInterval(Fraction(lo, d), Fraction(hi, d)) for lo, hi in zip(los, his)]


def ball_subcover(domain: RInterval, eps) -> tuple[list[tuple[int, int]], int]:
    """The ends of the balls finite_subcover(domain, ball_cover(domain, eps))
    picks, as integer numerators over the balls' denominator d, a multiple
    of the domain's, and d: swept on the numerators, with no Fraction built."""
    los, his, d = _balls(domain, eps)
    ends = (x.numerator * d // x.denominator for x in (domain.lo, domain.hi))
    return [(los[i], his[i]) for i in _sweep(*ends, los, his)], d


def finite_subcover(domain: RInterval, cover: Sequence[RInterval]) -> list[RInterval]:
    """Greedy left-to-right selection covering the closed domain.

    At each step the frontier point must lie strictly inside some member;
    the member reaching furthest right is chosen, the first in input order
    among equals.  If no member contains the frontier, that rational point
    is an uncovered-point certificate.
    """
    picks = _sweep(domain.lo, domain.hi, [iv.lo for iv in cover], [iv.hi for iv in cover])
    return [cover[i] for i in picks]


def _sweep(start, end, los: Sequence, his: Sequence) -> list[int]:
    """The indices of the members (los[i], his[i]) that finite_subcover picks
    for the closed domain [start, end], on any ordered endpoints.  The
    frontier only moves right, so one sweep over the members sorted by left
    end suffices: a member starting left of the frontier contains it exactly
    when it ends right of it, and the furthest-reaching one is a running best."""
    order = sorted(range(len(los)), key=los.__getitem__)
    chosen: list[int] = []
    reach, best, j, pos = start, -1, 0, start
    while pos <= end:
        while j < len(order) and los[order[j]] < pos:
            i = order[j]
            if his[i] > reach or his[i] == reach and i < best:
                reach, best = his[i], i
            j += 1
        if reach <= pos:
            raise UncoveredPointError(pos)
        chosen.append(best)
        pos = reach
    return chosen


def limit_at_zero(
    f: Callable[[Fraction, Fraction], Real],
    limit_modulus: Callable[[Fraction], Fraction],
) -> Real:
    """The value a function on the punctured line approaches at zero.

    f(x, apart) evaluates at a nonzero rational x with apartness witness;
    limit_modulus(eps) must return delta > 0 with |f(x) - y| < eps
    whenever 0 < |x| < delta, y being the limit.  For s = 2^_grid(eps),
    each answer samples at half the modulus of s/2 for precision s, pads by
    s/2 and rounds outward, as ``limit`` does.
    """

    def fn(eps: tuple[int, int]) -> Answer:
        k = _grid(eps)
        delta = rat(limit_modulus(Fraction(*_power_of_two(k - 1))))
        if delta <= 0:
            raise ValueError("limit modulus must be positive")
        q = delta / 2
        return _round_out(*_pad(*f(q, q / 2)._get(_power_of_two(k)), k - 1), k)

    return Real(fn, name="limit_at_zero", pairs=True)
