"""Laws of the real half: identities between different routes to one
number, each of whose answers must overlap (Chen, Cheung & Yiu, metamorphic
testing, HKUST-CS98-01, 1998).  The overlap and containment tests below are
written on Fractions here and share no code with the integer fast paths
they check: the series walk, the apartness probes, the rational fold."""

import random
from fractions import Fraction as F

from coverlab import realexpr, xreal

PRECISIONS = [F(1), F(1, 10**3), F(1, 10**12), F(1, 10**30), F(1, 10**60)]


def _interval(real: xreal.Real, eps: F) -> tuple[F, F]:
    got = real.approx(eps)
    assert got.hi - got.lo <= eps
    return got.lo, got.hi


def _text(real_text: str, eps: F) -> tuple[F, F]:
    lo, hi, den = realexpr.answer(real_text, eps)
    assert F(hi - lo, den) <= eps
    return F(lo, den), F(hi, den)


def _overlap(a: tuple[F, F], b: tuple[F, F]) -> bool:
    return max(a[0], b[0]) < min(a[1], b[1])


def _rationals(seed: int, count: int, bound: int, maxden: int) -> list[F]:
    rng = random.Random(seed)
    return [F(rng.randint(-bound * maxden, bound * maxden), rng.randint(1, maxden))
            for _ in range(count)]


def _literal(q: F) -> str:
    return f"({q.numerator}/{q.denominator})"


class TestRealLaws:
    def test_exp_of_a_sum_is_the_product_of_exps(self):
        # exp(a + b) folds a + b to one rational; exp(a) * exp(b) is a
        # product of two series; exp of a Real sum takes exp_real's route
        qs = _rationals(251, 40, 3, 12)
        for a, b in zip(qs[::2], qs[1::2]):
            folded = xreal.exp_rational(a + b)
            real_sum = xreal.exp_real(xreal.add(xreal.real_of_rat(a), xreal.real_of_rat(b)))
            for eps in PRECISIONS:
                product = _text(f"exp({_literal(a)}) * exp({_literal(b)})", eps)
                assert _overlap(_text(f"exp({_literal(a)} + {_literal(b)})", eps), product)
                assert _overlap(_interval(folded, eps), product), (a, b, eps)
                assert _overlap(_interval(real_sum, eps), product), (a, b, eps)

    def test_adding_and_subtracting_returns_the_value(self):
        qs = _rationals(252, 40, 50, 30)
        for x, y in zip(qs[::2], qs[1::2]):
            value = xreal.real_of_rat(x)
            for other in (xreal.real_of_rat(y), xreal.exp_rational(y / 25)):
                back = xreal.sub(xreal.add(value, other), other)
                for eps in PRECISIONS:
                    assert _overlap(_interval(back, eps), _interval(value, eps)), (x, y, eps)

    def test_inverting_twice_returns_the_value(self):
        # the radii come from the apartness search; the quotient text takes
        # the search inside realexpr
        for x in [q for q in _rationals(253, 30, 20, 9) if q != 0]:
            value = xreal.real_of_rat(x)
            once = xreal.inv(value, xreal.find_apartness(value, F(1, 2**60)))
            twice = xreal.inv(once, xreal.find_apartness(once, F(1, 2**60)))
            quotient = f"1/(1/(exp({_literal(x / 10)}) * {_literal(x)}))"
            target = xreal.mul(xreal.exp_rational(x / 10), value)
            for eps in PRECISIONS:
                assert _overlap(_interval(twice, eps), _interval(value, eps)), (x, eps)
                assert _overlap(_text(quotient, eps), _interval(target, eps)), (x, eps)

    def test_geometric_limit_holds_its_sum(self):
        ratios = [F(1, 2), F(-1, 2), F(9, 10), F(-9, 10), F(19, 20), F(0)]
        ratios += [q for q in _rationals(254, 30, 1, 13) if abs(q) < 1]
        for r in ratios:
            target = 1 / (1 - r)
            for eps in PRECISIONS:
                lo, hi = _text(f"limit(geometric; {r.numerator}/{r.denominator})", eps)
                assert lo < target < hi, (r, eps)
