"""Exact real arithmetic on rational intervals queried by precision.

A real is a function from a positive rational precision to an open
rational interval of width at most that precision; all answers of one real
pairwise overlap, and the number denoted sits strictly inside every
answer.  Endpoints are exact fractions throughout; no floating point
enters this module.  The constructors answer exactly; the combinators
query their arguments at powers of two, so nearby requests share cached
answers, and round outward onto a dyadic grid, so endpoint sizes follow
the precision, not the depth of the expression.  Cut locators, interval
arithmetic with moduli, limits with convergence witnesses, series under a
term budget (Real terms as integers on a grid, exact terms from integer
bounds on a fixed-point grid, so a term's bits follow the precision, not
its index), a uniform-convergence refuter, rational nets, and the greedy
finite subcover all live here.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence

class InvariantError(RuntimeError):
    """An answer violated the width or overlap contract."""


class ApartnessError(ValueError):
    """The apartness witness failed; carries the offending interval."""

    def __init__(self, interval: "RInterval", delta: Fraction):
        super().__init__(
            f"interval {interval} is not outside (-{delta}, {delta})"
        )
        self.interval = interval
        self.delta = delta


# The most terms a partial sum may add: limit(geometric; 999/1000) at 1/1000
# needs about 16,600, 9999/10000 would need 189,000 and refuses at once.  An
# exact term's bits follow the precision and the series' growth, not its index.
MAX_SERIES_TERMS = 20_000


class TailBoundError(ValueError):
    """The series tail bound did not drop below the requested precision."""


class SeriesBudgetError(ValueError):
    """A series would need more than MAX_SERIES_TERMS terms."""


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

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, q: Fraction) -> bool:
        return self.lo < q < self.hi

    def overlaps(self, other: "RInterval") -> bool:
        return max(self.lo, other.lo) < min(self.hi, other.hi)

    def hull(self, other: "RInterval") -> "RInterval":
        return RInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widen(self, per_side: Fraction) -> "RInterval":
        return RInterval(self.lo - per_side, self.hi + per_side)

    def gap(self, other: "RInterval") -> Fraction:
        """Separation between the intervals; nonpositive when they meet."""
        return max(self.lo, other.lo) - min(self.hi, other.hi)

    def __repr__(self) -> str:
        return f"({self.lo}, {self.hi})"


class Real:
    """A number presented by its precision-indexed interval answers.

    Answers are cached; the cache is guarded by a lock so concurrent
    queries stay invisible.  Each new answer is checked for width and for
    overlap with the narrowest answer seen so far.  A name given as a
    function is built on first read: names of deep expressions and long
    fractions are costly and are read only in error messages.
    """

    __slots__ = ("_fn", "_cache", "_lock", "_narrowest", "_name")

    def __init__(
        self, fn: Callable[[Fraction], RInterval], name: str | Callable[[], str] = "real"
    ):
        self._fn = fn
        self._cache: dict[Fraction, RInterval] = {}
        self._lock = threading.Lock()
        self._narrowest: RInterval | None = None
        self._name = name

    @property
    def name(self) -> str:
        if callable(self._name):
            self._name = self._name()
        return self._name

    @name.setter
    def name(self, name: str | Callable[[], str]) -> None:
        self._name = name

    def approx(self, eps) -> RInterval:
        eps = rat(eps)
        if eps <= 0:
            raise ValueError("precision must be positive")
        with self._lock:
            got = self._cache.get(eps)
        if got is not None:
            return got
        ans = self._fn(eps)
        if ans.width > eps:
            raise InvariantError(
                f"{self.name}: answer {ans} wider than requested {eps}"
            )
        with self._lock:
            if self._narrowest is not None and not ans.overlaps(self._narrowest):
                raise InvariantError(
                    f"{self.name}: answer {ans} disjoint from {self._narrowest}"
                )
            if self._narrowest is None or ans.width < self._narrowest.width:
                self._narrowest = ans
            self._cache[eps] = ans
        return ans

    def __repr__(self) -> str:
        return f"<Real {self.name}>"


def real_of_rat(q) -> Real:
    q = rat(q)
    return Real(lambda eps: RInterval(q - eps / 3, q + eps / 3), name=lambda: f"rat({q})")


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
        if b <= q:
            return Side.LEFT
        if a >= q:
            return Side.RIGHT
        return Side.LEFT if q - a >= b - q else Side.RIGHT

    return CutLocator(fn, name=f"cut@{q}")


def sqrt_cut(k: int) -> CutLocator:
    """The cut under the square root of a positive non-square integer."""

    def fn(a: Fraction, b: Fraction) -> Side:
        if a <= 0 or a * a < k:
            return Side.LEFT
        return Side.RIGHT

    return CutLocator(fn, name=f"cut@sqrt({k})")


def trisection_steps(width: Fraction, eps: Fraction) -> int:
    """Smallest k with width * (2/3)^k <= eps: the exact ceiling of the
    base-3/2 logarithm of width/eps."""
    k = 0
    grow = Fraction(1)
    target = Fraction(width, 1) / eps
    while grow < target:
        grow *= Fraction(3, 2)
        k += 1
    return k


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


def _snap(e: Fraction) -> Fraction:
    """The largest power of two at most e: the precisions queried."""
    g = Fraction(2) ** (e.numerator.bit_length() - e.denominator.bit_length())
    return g if g <= e else g / 2


def _round_out(lo: Fraction, hi: Fraction, eps: Fraction) -> RInterval:
    """Floor lo and ceil hi onto the grid _snap(eps/4).  The interval keeps
    everything it held and grows by at most eps/2, so a combinator that
    spends half its width budget on its arguments may round its answer."""
    g = _snap(eps / 4)
    return RInterval(lo // g * g, -(-hi // g) * g)


def add(x: Real, y: Real) -> Real:
    def fn(eps: Fraction) -> RInterval:
        s = _snap(eps / 4)
        a, b = x.approx(s), y.approx(s)
        return _round_out(a.lo + b.lo, a.hi + b.hi, eps)

    return Real(fn, name=lambda: f"({x.name}+{y.name})")


def neg(x: Real) -> Real:
    def fn(eps: Fraction) -> RInterval:
        a = x.approx(eps)
        return RInterval(-a.hi, -a.lo)

    return Real(fn, name=lambda: f"(-{x.name})")


def sub(x: Real, y: Real) -> Real:
    return add(x, neg(y))


def scale(x: Real, c) -> Real:
    """Multiplication by an exact rational constant."""
    c = rat(c)
    if c == 0:
        return real_of_rat(0)

    def fn(eps: Fraction) -> RInterval:
        a = x.approx(_snap(eps / (2 * abs(c))))
        lo, hi = sorted((a.lo * c, a.hi * c))
        return _round_out(lo, hi, eps)

    return Real(fn, name=lambda: f"({c}*{x.name})")


def mul(x: Real, y: Real) -> Real:
    """Product via magnitude bounds: a unit-precision answer bounds each
    factor, and the precision split charges each factor with the other's
    bound plus one, within half the width; the rounding takes the rest."""

    def fn(eps: Fraction) -> RInterval:
        bx = _magnitude_bound(x)
        by = _magnitude_bound(y)
        ex = _snap(min(Fraction(1), eps / (4 * (by + 1))))
        ey = _snap(min(Fraction(1), eps / (4 * (bx + 1))))
        a = x.approx(ex)
        b = y.approx(ey)
        products = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
        return _round_out(min(products), max(products), eps)

    return Real(fn, name=lambda: f"({x.name}*{y.name})")


def _magnitude_bound(x: Real) -> Fraction:
    a = x.approx(Fraction(1))
    return max(abs(a.lo), abs(a.hi))


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
    witness = x.approx(delta)
    if not (witness.lo >= delta or witness.hi <= -delta):
        raise ApartnessError(witness, delta)

    def fn(eps: Fraction) -> RInterval:
        e = eps / 2
        got = x.approx(_snap(e * delta * delta / (1 + e * delta)))
        lo = max(got.lo, witness.lo)
        hi = min(got.hi, witness.hi)
        return _round_out(1 / hi, 1 / lo, eps)

    return Real(fn, name=lambda: f"inv({x.name};{delta})")


def find_apartness(x: Real, eps_floor) -> Fraction | None:
    """Search delta = 1, 1/2, 1/4, ... down to the floor for a witness
    that x is outside (-delta, delta).  None proves nothing about x."""
    eps_floor = rat(eps_floor)
    delta = Fraction(1)
    while delta >= eps_floor:
        got = x.approx(delta)
        if got.lo >= delta or got.hi <= -delta:
            return delta
        delta /= 2
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
    """The limit: query the term at the modulus index of s = _snap(eps/4)
    at s, pad by the convergence slack s/2 and round; the term and the
    padding take half the width, the rounding the other half."""

    def fn(eps: Fraction) -> RInterval:
        s = _snap(eps / 4)
        inner = seq.terms(seq.modulus(s)).approx(s)
        return _round_out(inner.lo - s / 2, inner.hi + s / 2, eps)

    return Real(fn, name="limit")


# series terms: a Real for each index, or exact terms as t_0 and the ratio
# with t_k = t_{k-1} * ratio(k)
Terms = Callable[[int], Real] | tuple[Fraction, Callable[[int], Fraction]]


def partial_sum(terms: Terms, n: int, growth: int = 0) -> Real:
    """The sum of terms 0..n.  Real terms add as two integers on the grid
    per = _snap(eps/(2(n+1))): each term's answer at per adds its floor and
    ceil, spending at most 2*per.

    Exact terms (t_0, ratio), where 2^growth bounds every product of
    consecutive |ratio(k)|, k <= n (growth 0 serves |ratio| <= 1), carry
    integers l_k <= t_k 2^p <= u_k (Brent, J. ACM 23, 1976; Brent &
    Zimmermann, Modern Computer Arithmetic, 4.4): each step multiplies by
    the ratio's numerator a and floors (for l) or ceils (for u) the
    division by its denominator, swapping the two first when a < 0, so the
    bits of a term follow p, not k.  A floor and a ceil each lose less than
    one unit, so e_k = u_k - l_k obeys e_0 <= 1 and
    e_k <= |ratio(k)| e_{k-1} + 2; unrolled, e_k is at most 2 times a sum of
    k + 1 products of consecutive ratios, so e_k <= 2(k+1)G for G = 2^growth.
    The sums of the l_k and u_k, one unit further out for strictness, then
    differ by at most (n+1)(n+2)G + 2 < 2^(2 bits(n+2) + growth + 1) units,
    which is at most _snap(eps) = 2^-k once p = k + 2 bits(n+2) + growth + 1.
    """

    def fn(eps: Fraction) -> RInterval:
        if isinstance(terms, tuple):
            w, (t0, ratio) = _snap(eps), terms
            k = w.denominator.bit_length() - w.numerator.bit_length()
            p = max(0, k + 2 * (n + 2).bit_length() + growth + 1)
            lo = l = (t0.numerator << p) // t0.denominator
            hi = u = -(-t0.numerator << p) // t0.denominator
            for i in range(1, n + 1):
                r = ratio(i)
                a, d = r.numerator, r.denominator
                if a < 0:
                    l, u = u, l
                l, u = l * a // d, -(-u * a // d)
                lo, hi = lo + l, hi + u
            return RInterval(Fraction(lo - 1, 1 << p), Fraction(hi + 1, 1 << p))
        per = _snap(eps / (2 * (n + 1)))
        lo = hi = 0
        for k in range(n + 1):
            got = terms(k).approx(per)
            lo, hi = lo + got.lo // per, hi - (-got.hi // per)
        return RInterval(lo * per, hi * per)

    return Real(fn, name=lambda: f"partial_sum({n})")


def sum_series(
    terms: Terms,
    tail_bound: Callable[[int], Fraction],
    tail_index: Callable[[Fraction], int],
    growth: int = 0,
) -> Real:
    """Sum a series whose tails are explicitly bounded.

    tail_bound(N) must bound the absolute value of the sum beyond N and
    decrease in N; tail_index(eps) must return an N whose bound is at most
    eps (checked at each use; failure raises), and may stop its search at
    MAX_SERIES_TERMS: an index there or past it refuses before any term or
    tail bound is built.  Real terms go through ``limit``: partial-sum
    differences are bounded by two tails, hence the quarter precision below.
    Exact terms (t_0, ratio), growth as in partial_sum, answer at once: for
    s = _snap(eps/4), the sum to the index of s/4 within s, widened by s/4
    for the tail, is rounded out once, 3s/2 + eps/2 <= eps in all.
    """

    def modulus(eps: Fraction) -> int:
        n = tail_index(eps / 4)
        if n >= MAX_SERIES_TERMS:
            raise SeriesBudgetError(
                f"series needs index {n} or more, past {MAX_SERIES_TERMS} terms")
        if (bound := tail_bound(n)) > eps / 4:
            raise TailBoundError(f"tail_bound({n}) = {bound} exceeds requested {eps / 4}")
        return n

    if not isinstance(terms, tuple):
        return limit(ConvergentSeq(lambda n: partial_sum(terms, n), modulus))

    def fn(eps: Fraction) -> RInterval:
        s = _snap(eps / 4)
        got = partial_sum(terms, modulus(s), growth).approx(s)
        return _round_out(got.lo - s / 4, got.hi + s / 4, eps)

    return Real(fn, name="series")


def exp_rational(q) -> Real:
    """The exponential of an exact rational via its power series, the ratio
    q/k.  For the integer b > |q|, a product of consecutive ratios is at
    most b^m j!/(j+m)! <= b^m/m! <= e^b < 2^ceil(1.4427 b)."""
    q = rat(q)
    b = abs(q).numerator // abs(q).denominator + 1  # integer bound > |q|
    growth = -(-14427 * b // 10000)
    out = sum_series((Fraction(1), lambda k: q / k), _factorial_tail(b),
                     _factorial_tail_index(b), growth)
    out.name = f"exp({q})"
    return out


def exp_real(x: Real) -> Real:
    """The exponential of a real as the monotone image of one answer for x:
    (lo, hi) maps into (e^lo, e^hi), bracketed by exp_rational.  For the
    integer b > |x| + 1 and g >= e^b, an answer a at a precision at most 1
    has |a.lo|, |a.hi| < b, so e^a.hi - e^a.lo <= g * width(a) (mean value
    theorem): x at eps/(4g) takes eps/4, each endpoint at eps/8 another
    eps/8, the rounding the remaining half."""
    m = _magnitude_bound(x) + 1
    b = m.numerator // m.denominator + 1
    g = exp_rational(b).approx(Fraction(1)).hi

    def fn(eps: Fraction) -> RInterval:
        a = x.approx(_snap(min(Fraction(1), eps / (4 * g))))
        e = _snap(eps / 8)
        return _round_out(exp_rational(a.lo).approx(e).lo,
                          exp_rational(a.hi).approx(e).hi, eps)

    return Real(fn, name=lambda: f"exp({x.name})")


def _factorial_tail(b: int) -> Callable[[int], Fraction]:
    # valid bound for the tail of sum b^k/k! once n+1 >= 2b
    return lambda n: 2 * Fraction(b) ** (n + 1) / math.factorial(n + 1)


def _factorial_tail_index(b: int) -> Callable[[Fraction], int]:
    def index(eps: Fraction) -> int:
        # the bound num/den stepped by b/(n+2) as integers, up to the budget
        n = 2 * b
        if n >= MAX_SERIES_TERMS:
            return n
        num, den = 2 * b ** (n + 1), math.factorial(n + 1)
        while num * eps.denominator > eps.numerator * den and n < MAX_SERIES_TERMS:
            n, num, den = n + 1, num * b, den * (n + 2)
        return n

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
    eps_values = tuple(rat(e) for e in eps_values)
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


def epsilon_net(domain: RInterval, eps) -> list[Fraction]:
    """Evenly spaced rationals covering the closed domain within eps."""
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("net radius must be positive")
    k = math.ceil(domain.width / eps)
    return [domain.lo + domain.width * i / k for i in range(k + 1)]


def finite_subcover(
    domain: RInterval, cover: Sequence[RInterval]
) -> list[RInterval]:
    """Greedy left-to-right selection covering the closed domain.

    At each step the frontier point must lie strictly inside some member;
    the member reaching furthest right is chosen, the first in input order
    among equals.  If no member contains the frontier, that rational point
    is an uncovered-point certificate.

    The frontier only moves right, so one sweep over the members sorted
    by left endpoint suffices: a member starting left of the frontier
    contains it exactly when it ends right of it, and the furthest-reaching
    such member is a running maximum of (hi, -index).
    """
    order = sorted(range(len(cover)), key=lambda i: cover[i].lo)
    chosen: list[RInterval] = []
    best = None
    j = 0
    pos = domain.lo
    while pos <= domain.hi:
        while j < len(order) and cover[order[j]].lo < pos:
            reach = (cover[order[j]].hi, -order[j])
            best = reach if best is None else max(best, reach)
            j += 1
        if best is None or best[0] <= pos:
            raise UncoveredPointError(pos)
        chosen.append(cover[-best[1]])
        pos = best[0]
    return chosen


def limit_at_zero(
    f: Callable[[Fraction, Fraction], Real],
    limit_modulus: Callable[[Fraction], Fraction],
) -> Real:
    """The value a function on the punctured line approaches at zero.

    f(x, apart) evaluates at a nonzero rational x with apartness witness;
    limit_modulus(eps) must return delta > 0 with |f(x) - y| < eps
    whenever 0 < |x| < delta, y being the limit.  Each answer samples at
    half the modulus of m = _snap(eps/8) for a quarter of the precision,
    pads by m and rounds outward, as ``limit`` does.
    """

    def fn(eps: Fraction) -> RInterval:
        m = _snap(eps / 8)
        delta = rat(limit_modulus(m))
        if delta <= 0:
            raise ValueError("limit modulus must be positive")
        q = delta / 2
        inner = f(q, q / 2).approx(_snap(eps / 4))
        return _round_out(inner.lo - m, inner.hi + m, eps)

    return Real(fn, name="limit_at_zero")
