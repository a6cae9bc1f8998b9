import contextvars
import itertools
import math
import random
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from coverlab import cli, xreal
from coverlab.realexpr import Parser, evaluate
from coverlab.xreal import (
    MAX_SERIES_TERMS,
    ApartnessError,
    ConvergentSeq,
    InvariantError,
    RInterval,
    Side,
    TailBoundError,
    UncoveredPointError,
    add,
    ball_cover,
    ball_subcover,
    check_cauchy_witness,
    cut_of_real,
    epsilon_net,
    exp_rational,
    exp_real,
    find_apartness,
    finite_subcover,
    inv,
    least_power,
    limit,
    limit_at_zero,
    mul,
    neg,
    partial_sum,
    rat,
    rational_cut,
    real_of_cut,
    real_of_rat,
    scale,
    sqrt_cut,
    sub,
    sum_series,
    trisection_steps,
    uniform_convergence_check,
    Refuted,
    SeriesBudgetError,
    Verified,
)
from helpers import (
    add_oracle,
    ball_cover_oracle,
    epsilon_net_oracle,
    exp_rational_oracle,
    exp_real_oracle,
    exp_series_oracle,
    exp_termwise_oracle,
    factorial_tail_index_oracle,
    find_apartness_oracle,
    finite_subcover_oracle,
    fixed_point_sum_oracle,
    fraction_real,
    geometric_index_oracle,
    geometric_oracle,
    inv_oracle,
    limit_at_zero_oracle,
    limit_oracle,
    mul_oracle,
    neg_oracle,
    partial_sum_oracle,
    rat_oracle,
    round_out_oracle,
    scale_oracle,
    snap_oracle,
    sum_series_oracle,
    trisection_steps_oracle,
    walk_oracle,
)

EPS_GRID = [F(1, 10), F(1, 1000), F(1, 10**6)]

small_rats = st.fractions(min_value=F(-50), max_value=F(50))
pos_eps = st.fractions(min_value=F(1, 10**6), max_value=F(2))


def interval(lo, hi):
    return RInterval(F(lo), F(hi))


class TestInterval:
    def test_requires_order(self):
        with pytest.raises(ValueError):
            interval(1, 1)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            rat(0.5)

    def test_hull_gap(self):
        a, b = interval(0, 1), interval(2, 3)
        assert a.hull(b) == interval(0, 3)
        assert a.gap(b) == F(1)
        assert a.gap(interval("1/2", 2)) < 0


class TestRealOfRat:
    def test_unit_query_of_zero(self):
        assert real_of_rat(0).approx(1) == interval("-1/3", "1/3")

    def test_contains_value(self):
        assert real_of_rat(F(1, 2)).approx(F(1, 10)).contains(F(1, 2))

    @given(small_rats, pos_eps)
    def test_width_bound(self, q, eps):
        assert real_of_rat(q).approx(eps).width <= eps

    @given(small_rats, pos_eps, pos_eps)
    def test_answers_overlap(self, q, e1, e2):
        x = real_of_rat(q)
        assert x.approx(e1).overlaps(x.approx(e2))

    def test_invariant_enforced(self):
        bad = real_of_rat(0)
        bad._fn = lambda eps: (0, 1, 1)
        with pytest.raises(InvariantError):
            bad.approx(F(1, 2))

    def test_touching_and_wide_answers_are_refused(self):
        # open answers that share only an end are disjoint, and an answer a
        # hair wider than asked is refused, whether fn answers an RInterval
        # or an integer triple (lo, hi, den)
        for first, touching, meeting in [
            ((0, 1, 1), [(2, 3, 2), (-1, 0, 2)], (1, 2, 2)),
            (interval(0, 1), [interval(1, "3/2"), interval("-1/2", 0)], interval("1/2", 1)),
        ]:
            for touch in touching:  # at the narrowest answer's upper, then lower end
                answers = iter([first, touch])
                x = fraction_real(lambda eps: next(answers))
                x.approx(1)
                with pytest.raises(InvariantError, match="disjoint"):
                    x.approx(F(1, 2))
            answers = iter([first, meeting])
            y = fraction_real(lambda eps: next(answers))
            assert y.approx(1) == interval(0, 1) and y.approx(2) == interval("1/2", 1)
        assert fraction_real(lambda eps: (0, 10**9, 10**9)).approx(1) == interval(0, 1)
        with pytest.raises(InvariantError, match="wider"):
            fraction_real(lambda eps: (0, 10**9 + 1, 10**9)).approx(1)


class TestTrisection:
    def test_steps_is_exact_ceiling(self):
        for w, eps in [(F(1), F(1, 8)), (F(2), F(1, 10**6)), (F(1), F(1)), (F(1, 2), F(2))]:
            k = trisection_steps(w, eps)
            assert w * F(2, 3) ** k <= eps
            assert k == 0 or w * F(2, 3) ** (k - 1) > eps

    def test_steps_match_the_stepping_oracle(self):
        # widths and precisions of many sizes, eps at or above the width
        # included, where no step is needed
        rng = random.Random(315)
        cases = [(F(1), F(1)), (F(1, 3), F(1, 2)), (F(7, 2), F(7, 2)), (F(2), F(3, 2))]
        for _ in range(400):
            w = F(rng.randint(1, 10 ** rng.randint(1, 40)),
                  rng.randint(1, 10 ** rng.randint(1, 40)))
            eps = F(rng.randint(1, 10 ** rng.randint(1, 6)), 10 ** rng.randint(0, 80))
            cases.append((w, eps))
            cases.append((w, w * rng.randint(1, 5)))
            cases.append((w, w * F(2, 3) ** rng.randint(0, 200)))  # exact powers
        for w, eps in cases:
            k = trisection_steps(w, eps)
            assert k == trisection_steps_oracle(w, eps), (w, eps)
            if eps >= w:
                assert k == 0
            # the same least power from pairs not in lowest terms
            m = rng.randint(2, 99)
            tn, td = eps.numerator * w.denominator * m, eps.denominator * w.numerator * m
            assert least_power(2 * m, 3 * m, tn, td) == k

    def test_cut_at_half(self):
        loc = rational_cut(F(1, 2))
        x = real_of_cut(loc, interval(0, 1))
        got = x.approx(F(1, 8))
        assert got.width <= F(1, 8)
        assert got.contains(F(1, 2))
        assert loc.calls == trisection_steps(F(1), F(1, 8)) == 6
        # shrink factor is exactly two thirds per query
        assert got.width == F(2, 3) ** 6

    def test_cut_at_zero_symmetric_seed(self):
        x = real_of_cut(rational_cut(0), interval(-1, 1))
        for eps in EPS_GRID:
            assert x.approx(eps).contains(F(0))

    def test_sqrt_two_against_digit_oracle(self):
        x = real_of_cut(sqrt_cut(2), interval(1, 2))
        got = x.approx(F(1, 10**6))
        # oracle: integer square root digit extraction
        lo_oracle = F(math.isqrt(2 * 10**24), 10**12)
        hi_oracle = F(math.isqrt(2 * 10**24) + 1, 10**12)
        assert got.lo < hi_oracle and got.hi > lo_oracle
        assert got.width <= F(1, 10**6)

    def test_locator_counts_accumulate_per_precision(self):
        loc = rational_cut(F(1, 3))
        x = real_of_cut(loc, interval(0, 1))
        x.approx(F(1, 10))
        assert loc.calls == trisection_steps(F(1), F(1, 10))
        x.approx(F(1, 100))
        assert loc.calls == trisection_steps(F(1), F(1, 100))


class TestCutOfReal:
    def test_interval_above_left_endpoint(self):
        loc = cut_of_real(real_of_rat(F(1, 2)))
        assert loc.loc(0, 1) is Side.LEFT

    def test_query_below_value(self):
        loc = cut_of_real(real_of_rat(10))
        assert loc.loc(0, 1) is Side.LEFT

    def test_query_above_value(self):
        loc = cut_of_real(real_of_rat(-10))
        assert loc.loc(0, 1) is Side.RIGHT

    def test_answers_legal_for_rational_values(self):
        rng = random.Random(41)
        for _ in range(100):
            q = F(rng.randint(-20, 20), rng.randint(1, 20))
            loc = cut_of_real(real_of_rat(q))
            a = q - F(rng.randint(0, 30), rng.randint(1, 7))
            b = a + F(rng.randint(1, 40), rng.randint(1, 7))
            side = loc.loc(a, b)
            if side is Side.LEFT:
                assert a < q
            else:
                assert b > q

    def test_round_trip_within_double_precision(self):
        rng = random.Random(43)
        for _ in range(30):
            q = F(rng.randint(-9, 9), rng.randint(1, 9))
            x = real_of_rat(q)
            rebuilt = real_of_cut(cut_of_real(x), RInterval(q - 1, q + 1))
            for eps in EPS_GRID:
                hull = x.approx(eps).hull(rebuilt.approx(eps))
                assert hull.width <= 2 * eps


class TestFieldOps:
    def test_exact_rational_sum(self):
        s = add(real_of_rat(F(1, 3)), real_of_rat(F(1, 6)))
        for eps in EPS_GRID:
            assert s.approx(eps).contains(F(1, 2))

    def test_additive_inverse(self):
        x = real_of_cut(sqrt_cut(2), interval(1, 2))
        z = add(x, neg(x))
        for eps in EPS_GRID:
            assert z.approx(eps).contains(F(0))

    def test_sqrt_two_squared(self):
        x = real_of_cut(sqrt_cut(2), interval(1, 2))
        got = mul(x, x).approx(F(1, 10**6))
        assert got.width <= F(1, 10**6)
        assert got.contains(F(2))

    def test_product_against_interval_oracle(self):
        # endpoints of the product answer must enclose the exact product
        # of any rationals drawn from the factor answers
        rng = random.Random(47)
        for _ in range(50):
            a = F(rng.randint(-12, 12), rng.randint(1, 9))
            b = F(rng.randint(-12, 12), rng.randint(1, 9))
            x, y = real_of_rat(a), real_of_rat(b)
            eps = F(1, 10 ** rng.randint(1, 6))
            got = mul(x, y).approx(eps)
            assert got.width <= eps
            assert got.lo < a * b < got.hi

    def test_product_of_full_width_factors(self):
        # factors that answer at exactly the width asked for leave the
        # product no slack: each factor's precision must be the halved one
        def full_width(c):
            return fraction_real(lambda e: RInterval(c - e / 2, c + e / 2))

        rng = random.Random(83)
        for _ in range(300):
            a = F(rng.randint(-400, 400), rng.randint(1, 9))
            b = F(rng.randint(-400, 400), rng.randint(1, 9))
            eps = F(rng.randint(1, 9), 10 ** rng.randint(0, 6))
            got = mul(full_width(a), full_width(b)).approx(eps)
            assert got.width <= eps
            assert got.lo < a * b < got.hi

    @given(small_rats, small_rats, small_rats, pos_eps)
    @settings(max_examples=60, deadline=None)
    def test_ring_laws_within_precision(self, a, b, c, eps):
        x, y, z = real_of_rat(a), real_of_rat(b), real_of_rat(c)
        assoc_l = add(add(x, y), z).approx(eps)
        assoc_r = add(x, add(y, z)).approx(eps)
        assert assoc_l.overlaps(assoc_r)
        comm_l = mul(x, y).approx(eps)
        comm_r = mul(y, x).approx(eps)
        assert comm_l.overlaps(comm_r)
        dist_l = mul(x, add(y, z)).approx(eps)
        dist_r = add(mul(x, y), mul(x, z)).approx(eps)
        assert dist_l.overlaps(dist_r)

    def test_scale(self):
        x = scale(real_of_rat(F(1, 3)), F(-3))
        assert x.approx(F(1, 100)).contains(F(-1))


class TestInverse:
    def test_rational_case(self):
        got = inv(real_of_rat(F(1, 3)), F(1, 4)).approx(F(1, 10**6))
        assert got.contains(F(3))

    def test_multiplying_back_gives_one(self):
        rng = random.Random(53)
        for _ in range(30):
            q = F(rng.randint(1, 40), rng.randint(1, 40)) * rng.choice([1, -1])
            x = real_of_rat(q)
            delta = find_apartness(x, F(1, 2**20))
            assert delta is not None
            got = mul(x, inv(x, delta)).approx(F(1, 10**6))
            assert got.contains(F(1))

    def test_apartness_precondition(self):
        with pytest.raises(ApartnessError) as e:
            inv(real_of_rat(0), F(1, 4))
        assert e.value.delta == F(1, 4)

    def test_modulus_formula_samples(self):
        # the inverse-distance estimate behind the precision choice
        rng = random.Random(59)
        for _ in range(2000):
            eps = F(rng.randint(1, 60), rng.randint(1, 60))
            delta = F(rng.randint(1, 60), rng.randint(1, 60))
            z = (delta + F(rng.randint(1, 50), rng.randint(1, 50))) * rng.choice([1, -1])
            bound = eps * delta**2 / (1 + eps * delta)
            x = z + bound * F(rng.randint(-999, 999), 1000)
            assert abs(z) > delta and abs(z - x) < bound
            assert abs(F(1) / z - F(1) / x) < eps

    def test_negative_branch(self):
        got = inv(real_of_rat(F(-1, 5)), F(1, 8)).approx(F(1, 1000))
        assert got.contains(F(-5))


class TestFindApartness:
    def test_examples(self):
        third = real_of_rat(F(1, 3))
        delta = find_apartness(third, F(1, 1000))
        assert delta is not None and delta <= F(1, 3)
        assert find_apartness(real_of_rat(0), F(1, 1000)) is None
        tiny = real_of_rat(F(1, 10**6))
        assert find_apartness(tiny, F(1, 10**3)) is None
        assert find_apartness(tiny, F(1, 10**8)) is not None


class TestFindApartnessOnIntegers:
    """The probes on integer triples against the Fraction probes they
    replaced (helpers.find_apartness_oracle): the same witness or None."""

    FLOORS = [F(1, 2**60), F(1, 2**59), F(1, 1000), F(3, 7), F(1), F(2), F(5, 2**61),
              F(1, 10**18), F(1, 3 * 2**58)]

    @staticmethod
    def _values():
        tiny = [F(s * m, 2**e) for s in (1, -1) for m, e in ((1, 61), (1, 60), (1, 59), (3, 61),
                                                            (3, 62), (2**10 - 1, 70), (5, 62))]
        values = [F(0), F(1, 3), F(-5, 7), F(1, 2**10), F(1, 10**6), F(1000), *tiny]
        reals = [lambda q=q: real_of_rat(q) for q in values]
        # zero, and values near it, computed by series rather than given as rationals
        half = lambda: exp_rational(F(1, 2))  # noqa: E731
        reals.append(lambda: sub(half(), half()))
        reals += [lambda q=q: add(real_of_rat(q), sub(half(), half())) for q in tiny]
        reals.append(lambda: exp_rational(F(-200)))
        return reals

    def test_matches_the_fraction_probes(self):
        for make in self._values():
            for floor in self.FLOORS:
                got = find_apartness(make(), floor)
                assert got == find_apartness_oracle(make(), floor), (make().name, floor)
                assert got is None or type(got) is F

    def test_a_witness_at_the_floor_is_found(self):
        # 3/2^61 clears (-2^-60, 2^-60) only at 2^-60 itself, the floor
        assert find_apartness(real_of_rat(F(3, 2**61)), F(1, 2**60)) == F(1, 2**60)
        assert find_apartness(real_of_rat(F(3, 2**61)), F(1, 2**60) + F(1, 2**90)) is None


def _in_evaluation(fn, *args):
    """fn(*args) inside an evaluation of its own, the work counter that an
    outermost query opens."""

    def run():
        xreal._SERIES_WORK.set([0])
        return fn(*args)

    return contextvars.copy_context().run(run)


def _walk_outcome(walk, terms, n, k, growth, spent=0):
    """A walk's triple, or its refusal's type and text, in an evaluation of
    its own that has already spent the given work."""

    def run():
        xreal._SERIES_WORK.set([spent])
        try:
            return walk(terms, n, k, growth)
        except (SeriesBudgetError, InvariantError) as e:
            return type(e).__name__, str(e)

    return contextvars.copy_context().run(run)


class TestSeriesWalk:
    """xreal._walk, the one walk of partial_sum and sum_series, against the
    walk it replaced (helpers.walk_oracle), which steps both ends with two
    products and two divisions.  The walk asks for the precision 2^-k, so
    k = p - c gives p bits, for c = 2 bits(n + 2) + growth + 1 and growth
    bounding every product of consecutive ratios."""

    @staticmethod
    def _growth(a: int, d: int, n: int) -> int:
        g = 0
        while d**n << g < abs(a) ** n:
            g += 1
        return g

    @staticmethod
    def _both(terms, n, p, growth):
        """The walk of the ratio as one pair and as a function of the index,
        each equal to the walk it replaced."""
        k = p - 2 * (n + 2).bit_length() - growth - 1
        want = _walk_outcome(walk_oracle, terms, n, k, growth)
        t0, ratio = terms
        step = ratio if callable(ratio) else (lambda i: ratio)
        assert _walk_outcome(xreal._walk, (t0, step), n, k, growth) == want, (terms, n, p)
        if not callable(ratio):
            assert _walk_outcome(xreal._walk, terms, n, k, growth) == want, (terms, n, p)

    def test_every_small_case_matches_the_loop_it_replaced(self):
        for a in range(-6, 7):
            for d in range(1, 8):
                for n in range(13):
                    growth = self._growth(a, d, n)
                    for p in range(21):
                        for t0 in (F(1), F(-7, 3)):
                            self._both((t0, (a, d)), n, p, growth)

    def test_seeded_cases_match_the_loop_it_replaced(self):
        rng = random.Random(242)
        third = (int("3" * 4000), 10**4000)  # 0.333...3, a 4000-digit ratio
        cases = [((F(1), third), 60, 0), ((F(-2, 3), (-third[0], third[1])), 60, 0),
                 ((F(1), (0, 7)), 40, 0), ((F(5, 3), (1, 1)), 30, 0), ((F(1), (-1, 1)), 31, 0)]
        for _ in range(150):
            t0 = F(rng.randint(-50, 50), rng.randint(1, 50))
            form = rng.choice(["pair", "d=1", "a=0", "exp"])
            if form == "exp":  # exp(q)'s ratios (q.num, q.den * k), growth as exp_rational's
                q = F(rng.randint(-40, 40), rng.randint(1, 12))
                b = abs(q.numerator) // q.denominator + 1
                ratio = (lambda k, q=q: (q.numerator, q.denominator * k))
                cases.append(((t0, ratio), rng.randint(0, 80), -(-14427 * b // 10000)))
                continue
            d = 1 if form == "d=1" else rng.randint(1, 10**rng.randint(1, 30))
            a = 0 if form == "a=0" else rng.randint(-d, d)
            n = rng.randint(0, 300)
            cases.append(((t0, (a, d)), n, self._growth(a, d, n)))
        for terms, n, growth in cases:
            for p in {0, 1, 64, rng.randint(2, 700)}:
                self._both(terms, n, p, growth)

    def test_seeded_ratios_of_both_signs_match_the_walk_it_replaced(self):
        # constant ratios a/d, among them 0 and |a| = d - 1, the exponential's
        # a/(d k) as a triple and as a function, and functions whose ratios
        # change sign and size with the index; growth 0-12, n to 3,000 and k
        # from -4 to 1,000, so that a growth too small is refused for width
        rng = random.Random(2701)
        for case in range(400):
            t0 = F(rng.randint(-99, 99), rng.randint(1, 99))
            n = 3000 if case % 40 == 0 else rng.choice([0, 1, 2, rng.randint(3, 60), rng.randint(3, 400)])
            growth, k = rng.randint(0, 12), rng.choice([-4, -1, 0, 1, rng.randint(2, 1000), 1000])
            a, d = rng.randint(-60, 60), rng.randint(1, 10 ** rng.randint(1, 12))
            if case % 4 == 0:  # a constant
                a = rng.choice([0, d - 1, 1 - d, a, rng.randint(1 - d, d - 1), rng.randint(-3 * d, 3 * d)])
                forms = [(a, d), lambda i, a=a, d=d: (a, d)]
            elif case % 4 == 1:  # the exponential's
                forms = [(a, d, 1), lambda i, a=a, d=d: (a, d * i)]
            else:  # at most 1 in size, or at most 2, the sign drawn per index
                top = case % 4 - 1
                forms = [lambda i, a=a, d=d, top=top: (
                    (i * i * 7919 + a) % (2 * top * d + 1) - top * d, d + i % 3)]
            want = _walk_outcome(walk_oracle, (t0, forms[-1]), n, k, growth)
            for ratio in forms:
                got = _walk_outcome(xreal._walk, (t0, ratio), n, k, growth)
                assert got == want, (t0, ratio, n, k, growth)

    def test_width_check_at_its_edge(self):
        # growth 0 understated for ratios up to 40: among these small walks
        # some sum to exactly the width 2^-k and some to one unit more
        def outcome(walk, *args):
            try:
                return walk(*args)
            except InvariantError as e:
                return str(e)

        def run():
            for n, a, d, t0, k in itertools.product(range(1, 5), range(-40, 41), range(1, 8),
                                                    (F(1, 3), F(-2, 7), F(5, 11)), range(-3, 4)):
                want = outcome(walk_oracle, (t0, (a, d)), n, k, 0)
                assert outcome(xreal._walk, (t0, (a, d)), n, k, 0) == want, (t0, a, d, n, k)

        _in_evaluation(run)

    def test_refusals_match_the_walk_it_replaced(self, monkeypatch):
        # the budget's text, with and without work spent before, at budgets
        # one unit either side of the walk's; and the width check's
        rng = random.Random(2702)
        for _ in range(200):
            n, k, growth = rng.randint(1, 200), rng.randint(-4, 400), rng.randint(0, 12)
            a, d = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
            spent = rng.choice([0, 0, rng.randint(1, 10**6)])
            p = max(0, k + 2 * (n + 2).bit_length() + growth + 1)
            per_index = lambda i, a=a, d=d: (a, d * i)  # noqa: E731
            # (the walk's ratio, the replaced walk's, the last ratio's bits)
            for ratio, old, q in [((a, d), (a, d), d), ((a, d, 1), per_index, d * n),
                                  (per_index, per_index, d * n)]:
                work = n * (p + growth) * (1 + (abs(a).bit_length() + q.bit_length()) // 256)
                for budget in (spent + work - 1, spent + work, spent + work + 1):
                    monkeypatch.setattr(xreal, "MAX_SERIES_WORK", budget)
                    want = _walk_outcome(walk_oracle, (F(1, 3), old), n, k, growth, spent)
                    got = _walk_outcome(xreal._walk, (F(1, 3), ratio), n, k, growth, spent)
                    assert got == want, (ratio, n, k, growth, spent, budget)
                    assert (budget < spent + work) == (got[0] == "SeriesBudgetError")
        monkeypatch.undo()
        for ratio, old in [((15, 2), (15, 2)), ((-15, 2), (-15, 2)),
                           ((150, 2, 1), lambda i: (150, 2 * i)), (lambda i: (-15, 2), (-15, 2))]:
            want = _walk_outcome(walk_oracle, (F(1, 3), old), 10, 0, 0)
            assert want[0] == "InvariantError"
            assert _walk_outcome(xreal._walk, (F(1, 3), ratio), 10, 0, 0) == want

    def test_exp_rational_matches_the_walk_it_replaced(self, monkeypatch):
        # exp(q) over a seeded grid of q at eps from 1 to 1e-300, against
        # the same series with the ratio as the function k -> (a, d k),
        # walked by the walk it replaced
        rng = random.Random(2703)
        qs = [F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(7), F(-7), F(99, 7), F(-99, 7)]
        qs += [F(rng.randint(-300, 300), rng.randint(1, 40)) for _ in range(40)]
        eps = [(1, 1), (1, 10**3), (1, 10**25), (7, 10**100), (1, 10**300), (1, 3**200)]
        for q in qs:
            b = abs(q.numerator) // q.denominator + 1
            a, d = q.numerator, q.denominator
            with monkeypatch.context() as m:
                m.setattr(xreal, "_walk", walk_oracle)
                old = sum_series((F(1), lambda k: (a, d * k)), xreal._factorial_tail(b),
                                 xreal._factorial_tail_index(b), -(-14427 * b // 10000))
                want = [old._get(e) for e in eps]
            new = exp_rational(q)
            assert [new._get(e) for e in eps] == want, q

    def test_width_is_checked_on_every_walk(self):
        # growth 0 understates the ratio 15/2: the walk's bounds spread
        # past 2^-k, and both the partial sum and the series refuse
        terms = (F(1, 3), (15, 2))
        with pytest.raises(InvariantError, match="wider than requested"):
            _in_evaluation(xreal._walk, terms, 10, 0, 0)
        with pytest.raises(InvariantError, match="wider than requested"):
            partial_sum(terms, 10).approx(1)
        with pytest.raises(InvariantError, match="wider than requested"):
            sum_series(terms, lambda n, e: True, lambda eps: 10).approx(1)


def harmonic_seq():
    return ConvergentSeq(
        terms=lambda n: real_of_rat(F(1, n + 1)),
        modulus=lambda eps: math.ceil(2 / eps),
    )


class TestLimits:
    def test_harmonic_limit_is_zero(self):
        lim = limit(harmonic_seq())
        for eps in EPS_GRID:
            got = lim.approx(eps)
            assert got.contains(F(0)) and got.width <= eps

    def test_constant_sequence(self):
        seq = ConvergentSeq(lambda n: real_of_rat(F(7, 3)), lambda eps: 0)
        assert limit(seq).approx(F(1, 10**6)).contains(F(7, 3))

    def test_geometric_partial_sums(self):
        def partial(n):
            return real_of_rat(sum(F(1, 2**k) for k in range(n + 1)))

        def modulus(eps):
            n = 0
            while F(1, 2**n) > eps / 2:  # tail of the halves after n is 2^-n
                n += 1
            return n

        lim = limit(ConvergentSeq(partial, modulus))
        for eps in EPS_GRID:
            assert lim.approx(eps).contains(F(2))

    def test_witness_check(self):
        seq = harmonic_seq()
        for eps in EPS_GRID:
            for n in (0, 5, 40, 333):
                assert check_cauchy_witness(seq, eps, n)

    def test_modulus_slack_independence(self):
        loose = ConvergentSeq(
            terms=lambda n: real_of_rat(F(1, n + 1)),
            modulus=lambda eps: 10 * math.ceil(2 / eps),
        )
        a, b = limit(harmonic_seq()), limit(loose)
        for eps in EPS_GRID:
            assert a.approx(eps).overlaps(b.approx(eps))


class TestSeries:
    def test_exponential_against_partial_sum_oracle(self):
        e1 = exp_rational(1)
        got = e1.approx(F(1, 10**9))
        assert got.width <= F(1, 10**9)
        s15 = sum(F(1, math.factorial(n)) for n in range(16))
        tail = F(2, math.factorial(16))
        assert got.lo <= s15 + tail and got.hi >= s15

    def test_zero_series(self):
        z = sum_series(
            lambda n: real_of_rat(0), lambda n, e: True, lambda eps: 0
        )
        assert z.approx(F(1, 1000)).contains(F(0))

    def test_alternating_geometric(self):
        x = sum_series(
            lambda n: real_of_rat(F(-1, 2) ** n),
            lambda n, e: F(1, 2**n) <= e,
            lambda eps: next(k for k in range(200) if F(1, 2**k) <= eps),
        )
        for eps in EPS_GRID:
            assert x.approx(eps).contains(F(2, 3))

    def test_bad_tail_index_raises(self):
        x = sum_series(
            lambda n: real_of_rat(F(1, n + 1)),
            lambda n, e: 1 <= e,  # never shrinks
            lambda eps: 5,
        )
        with pytest.raises(TailBoundError):
            x.approx(F(1, 100))

    def test_bad_index_fails_the_factorial_tail_check(self):
        # e's terms 1/k! with the bound 2 * 2^(n+1)/(n+1)! for b = 2: at
        # n = 4 it is 8/15, past a quarter of 1/100, at n = 12 under it
        for n, fails in ((4, True), (12, False)):
            x = sum_series((F(1), lambda k: (1, k)), xreal._factorial_tail(2), lambda eps: n)
            if fails:
                with pytest.raises(TailBoundError, match="exceeds"):
                    x.approx(F(1, 100))
            else:
                got = x.approx(F(1, 100))  # holds e, 2.7182818 < e < 2.7182819
                assert got.lo < F(27182819, 10**7) and got.hi > F(27182818, 10**7)

    def test_exp_of_real_argument(self):
        x = real_of_cut(sqrt_cut(2), interval(1, 2))
        got = exp_real(x).approx(F(1, 1000))
        # oracle window from the digit oracle of sqrt(2): e^1.414 < e^sqrt2 < e^1.415
        assert got.lo < F("4.12") and got.hi > F("4.11")

    def test_term_budget_refuses_before_any_term(self):
        def term(k):
            raise AssertionError("a term was built past the budget")

        x = sum_series(term, lambda n, e: True, lambda eps: MAX_SERIES_TERMS)
        with pytest.raises(SeriesBudgetError, match=str(MAX_SERIES_TERMS)):
            x.approx(F(1, 100))
        within = sum_series((F(0), lambda k: (0, 1)), lambda n, e: True, lambda eps: 99)
        assert within.approx(F(1, 100)).contains(F(0))

    def test_work_budget_refuses_before_the_walk(self, monkeypatch):
        # 100 terms at 2^-1000: p = 1000 + 2 bits(102) + 1 = 1015 bits, and
        # the last ratio has q = 301 + 309 bits, so the walk is
        # 100 * 1015 * (1 + q // 256) = 304,500 units; past a budget one
        # unit smaller it refuses, asking only for the last ratio
        asked = []

        def ratio(k):
            asked.append(k)
            return 2**300, 3 * 2**300 * k

        eps = F(1, 2**1000)
        monkeypatch.setattr(xreal, "MAX_SERIES_WORK", 304_499)
        with pytest.raises(SeriesBudgetError, match="304500 units"):
            partial_sum((F(1), ratio), 100).approx(eps)
        assert asked == [100]
        monkeypatch.setattr(xreal, "MAX_SERIES_WORK", 304_500)
        got = partial_sum((F(1), ratio), 100).approx(eps)
        assert got.contains(sum(F(1, 3**k * math.factorial(k)) for k in range(101)))

    def test_large_exponent_refuses_at_once(self):
        # e^q needs about e*q terms; the index search starts at 2q and stops
        # at the budget, so it refuses without stepping towards e*q
        for q, eps in [(9_998, F(1, 10**300)), (8_000, F(1))]:
            started = time.perf_counter()
            with pytest.raises(SeriesBudgetError, match=str(MAX_SERIES_TERMS)):
                exp_rational(q).approx(eps)
            assert time.perf_counter() - started < 2


class TestExactTerms:
    def test_walked_terms_match_direct_terms(self):
        # in the exact-walk oracle, a (t_0, step) pair walked inside each
        # query sums the same terms as the function of the index, at every
        # n and precision asked
        q = F(-5, 3)
        walked = (F(1), lambda t, k: t * q / k)
        for n, eps in [(40, F(1, 10**9)), (7, F(1, 3)), (40, F(1, 10**30)), (0, F(1))]:
            direct = partial_sum_oracle(lambda k: q**k / math.factorial(k), n).approx(eps)
            assert partial_sum_oracle(walked, n).approx(eps) == direct

    def test_exact_and_real_term_partial_sums_agree(self):
        # seeded differential: the fixed-point sum of (t_0, ratio) and the
        # Real-term path over the same terms both hold the exact partial sum
        rng = random.Random(11)
        for _ in range(80):
            n = rng.randint(0, 60)
            eps = F(1, rng.choice([1, 3, 10, 1000, 2**20, 10**9, 7 * 10**30]))
            if rng.random() < 0.5:
                c = F(rng.randint(-9, 9), rng.randint(1, 9))
                r = F(rng.randint(-39, 39), 40)
                ratio, growth = (lambda k, r=r: (r.numerator, r.denominator)), 0
            else:
                c, q = F(1), F(rng.randint(-30, 30), 10)
                # e^4 < 2^6 bounds q^m/m!
                ratio, growth = (lambda k, q=q: (q.numerator, q.denominator * k)), 6
            values = [c]
            for k in range(1, n + 1):
                values.append(values[-1] * F(*ratio(k)))
            exact = sum(values)
            grid = partial_sum((c, ratio), n, growth).approx(eps)
            real = partial_sum(lambda k: real_of_rat(values[k]), n).approx(eps)
            for got in (grid, real):
                assert got.lo < exact < got.hi and got.width <= eps
                assert all(d & (d - 1) == 0 for d in (got.lo.denominator, got.hi.denominator))

    def test_nested_exponential_through_the_cli(self, capsys):
        started = time.perf_counter()
        code = cli.main(["real", "eval", "exp(exp(exp(1/2)))", "--eps", "1e-6", "--bounds"])
        assert time.perf_counter() - started < 10
        assert code == 0
        lo, hi = (F(x) for x in capsys.readouterr().out.splitlines()[1].strip("[]").split(", "))
        want = (F(1, 2), F(1, 2))
        for _ in range(3):
            want = exp_bracket(*want)
        assert lo <= want[0] and want[1] <= hi and hi - lo <= F(1, 10**6)


class TestPrecisionPairs:
    """Real._get is keyed by the precision as a pair of integers in lowest
    terms, so that approx and the combinators find each other's answers."""

    def test_command_path_asks_pairs_in_lowest_terms(self, monkeypatch, capsys):
        asked = []
        get = xreal.Real._get

        def recording(self, eps):
            asked.append(eps)
            return get(self, eps)

        monkeypatch.setattr(xreal.Real, "_get", recording)
        for text in ("1/3", "exp(1/3) * (2/7)", "exp(exp(1/2))", "1 / (exp(1) - 2)",
                     "inv(exp(1); 1/4)", "limit(inv_n) + limit(geometric; -1/3)"):
            for eps in ("6/4", "0.50", "1e-20", "4", "30/7000"):
                assert cli.main(["real", "eval", text, "--eps", eps, "--bounds"]) == 0
        capsys.readouterr()
        assert len(asked) > 100
        for n, d in asked:
            assert type(n) is int and type(d) is int and n > 0 < d and math.gcd(n, d) == 1, (n, d)

    def test_approx_and_the_combinators_share_one_key(self):
        asked = []
        x = fraction_real(lambda eps: (asked.append(eps), RInterval(F(1, 3) - eps / 3, F(1, 3) + eps / 3))[1])
        add(x, x).approx(1)  # asks x once at 2^-2, the grid of 1
        for eps in (F(1, 4), F(2, 8), "0.25", "1/4"):
            x.approx(eps)
        assert asked == [F(1, 4)] and type(asked[0]) is F


class TestIntegerPaths:
    """The integer forms of the grid, the index searches and the walk's
    ratios against the Fraction forms they replaced."""

    def test_snap_matches_the_fraction_power(self):
        rng = random.Random(91)
        cases = []
        for k in range(-300, 301, 7):
            two = F(2) ** k
            cases += [two, two * F(2**64 - 1, 2**64), two * F(2**64 + 1, 2**64),
                      two - two / 3, two * 2 - two / 10**30]
        for _ in range(600):
            cases.append(F(rng.getrandbits(rng.randint(1, 400)) + 1,
                           rng.getrandbits(rng.randint(1, 400)) + 1))
        for e in cases:
            n, d = xreal._power_of_two(xreal._exponent(e.numerator, e.denominator))
            assert F(n, d) == snap_oracle(e) and math.gcd(n, d) == 1, e

    def test_log2_bounds_hold_the_logarithm(self):
        # 2^lo <= (num/den)^(2^bits) <= 2^(lo + 2), checked on exact powers
        rng = random.Random(92)
        for _ in range(300):
            den = rng.randint(1, 10 ** rng.randint(1, 5))
            num = den + rng.randint(1, 10 ** rng.randint(0, 6))
            bits = rng.randint(0, 8)
            lo, hi = xreal._log2_bounds(num, den, bits)
            assert hi == lo + 2
            big_n, big_d = num ** 2**bits, den ** 2**bits
            assert big_d << lo <= big_n <= big_d << hi, (num, den, bits)

    def test_least_power_matches_the_geometric_oracle(self):
        # ratios of both signs, also near one, and pairs not in lowest terms
        rng = random.Random(93)
        cases = [(F(0), F(1, 10**9)), (F(1, 2), F(1, 4)), (F(99, 100), F(1, 10**6))]
        for _ in range(300):
            d = rng.randint(1, 10 ** rng.randint(1, 2))
            cases.append((F(rng.randint(-d + 1, d - 1), d),
                          F(rng.randint(1, 10**6), 10 ** rng.randint(0, 30))))
        for r, eps in cases:
            a, d = abs(r.numerator), r.denominator
            t = eps * (1 - abs(r))
            m = rng.randint(1, 50)
            got = least_power(a * m, d * m, t.numerator, t.denominator)
            assert max(1, got) - 1 == geometric_index_oracle(r, eps), (r, eps)

    def test_least_power_corrects_a_short_estimate(self, monkeypatch):
        # a lower bound of log t and an upper bound of log c spread by a
        # factor put the estimate far below k; the exact tests still step
        # up to the least power
        bounds = xreal._log2_bounds
        for spread in (2, 7, 10**6):
            def weak(num, den, bits, spread=spread):
                lo, hi = bounds(num, den, bits)
                return lo // spread, hi * spread

            monkeypatch.setattr(xreal, "_log2_bounds", weak)  # both bounds, cached or not
            for r, e in ((F(1, 2), 12), (F(9, 10), 25), (F(99, 100), 3), (F(-7, 9), 40)):
                eps = F(1, 10**e)
                t = eps * (1 - abs(r))
                got = least_power(abs(r.numerator), r.denominator, t.numerator, t.denominator)
                assert got - 1 == geometric_index_oracle(r, eps), (spread, r, e)

    def test_near_one_ratios_match_the_geometric_oracle(self, monkeypatch):
        # least_power and _geometric_index at decimal precisions and at the
        # powers of two a series asks, each settled by one or two exact
        # tests, as least_power's docstring states; at 1e-300 the stepping
        # oracle would take minutes, so there n is checked on both sides by
        # the exact powers
        from coverlab.realexpr import _geometric_index

        tests = []
        exact = xreal._power_at_most
        monkeypatch.setattr(xreal, "_power_at_most",
                            lambda *args: tests.append(args) or exact(*args))
        near = F(999999, 10**6)
        cases = [(r, eps) for r in (F(99, 100), F(-99, 100))
                 for eps in (F(1, 10**3), F(1, 2**40), F(7, 10**30), F(1, 10**30))]
        cases += [(near, eps) for eps in (F(10**6), F(999999), F(998001), F(997000),
                                          F(2**20), F(10**6 * 4095, 4096), F(999999999, 1000))]
        for r, eps in cases:
            tests.clear()
            assert _geometric_index(r, eps) == geometric_index_oracle(r, eps), (r, eps)
            assert len(tests) <= 2, (r, eps)
        for r in (F(99, 100), F(-99, 100)):
            for eps in (F(1, 10**100), F(1, 10**300), F(1, 2**1000)):
                tests.clear()
                n = _geometric_index(r, eps)
                assert len(tests) <= 2, (r, eps)
                a, t = abs(r), eps * (1 - abs(r))
                assert a ** (n + 1) <= t < a**n, (r, eps)
        # least_power itself, its pair not in lowest terms
        for r, eps in cases:
            t = eps * (1 - abs(r))
            got = least_power(3 * abs(r.numerator), 3 * r.denominator, t.numerator, t.denominator)
            assert max(1, got) - 1 == geometric_index_oracle(r, eps), (r, eps)

    def test_factorial_tail_index_matches_the_stepping_oracle(self):
        # small and large exponents, and searches that stop at the budget
        rng = random.Random(94)
        cases = [(b, F(1, 10**e)) for b in (1, 2, 3, 7) for e in (0, 3, 50, 300)]
        cases += [(7001, F(1, 4)), (9_000, F(1)), (9_999, F(1, 10**9)), (10_000, F(1))]
        for _ in range(60):
            cases.append((rng.randint(1, 200),
                          F(rng.randint(1, 10**6), rng.randint(1, 10 ** rng.randint(0, 200)))))
        for b, eps in cases:
            got = xreal._factorial_tail_index(b)(eps)
            assert got == factorial_tail_index_oracle(b)(eps), (b, eps)

    def test_pair_ratios_match_the_fraction_walk(self):
        # the same terms, the ratio as a Fraction or as an integer pair that
        # may not be in lowest terms and may carry the sign in a negative
        # numerator: the walks give the same answers
        rng = random.Random(95)
        for _ in range(200):
            n = rng.randint(0, 60)
            eps = F(1, rng.choice([1, 3, 10, 1000, 2**20, 10**9, 7 * 10**30]))
            c = F(rng.randint(-9, 9), rng.randint(1, 9))
            m = rng.randint(1, 12)
            if rng.random() < 0.5:
                r = F(rng.randint(-39, 39), 40)
                fraction, growth = (lambda k, r=r: r), 0
                pair = (lambda k, r=r, m=m: (r.numerator * m, r.denominator * m))
            else:
                q = F(rng.randint(-30, 30), 10)
                fraction, growth = (lambda k, q=q: q / k), 6
                pair = (lambda k, q=q, m=m: (q.numerator * m, q.denominator * k * m))
            got = partial_sum((c, pair), n, growth).approx(eps)
            assert got == fixed_point_sum_oracle((c, fraction), n, growth).approx(eps)

    def test_constant_pair_walks_as_its_function(self, monkeypatch):
        # one pair for every step, or a function giving it: the same
        # answers as the Fraction walk in both of its forms, and the same
        # work counted, which a budget of 0 prints when it refuses
        rng = random.Random(96)
        for _ in range(200):
            n = rng.randint(0, 60)
            eps = F(1, rng.choice([1, 3, 10, 1000, 2**20, 10**9, 7 * 10**30]))
            c, m = F(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(1, 12)
            r = F(rng.randint(-39, 39), 40)
            pair = (r.numerator * m, r.denominator * m)
            got = partial_sum((c, pair), n).approx(eps)
            assert got == partial_sum((c, lambda k: pair), n).approx(eps)
            assert got == fixed_point_sum_oracle((c, r), n).approx(eps)
            assert got == fixed_point_sum_oracle((c, lambda k: r), n).approx(eps)
        monkeypatch.setattr(xreal, "MAX_SERIES_WORK", 0)
        for n, pair in [(1, (9, 10)), (600, (-9, 10)), (40, (3**200, 2**400))]:
            refusals = []
            for ratio in (pair, lambda k: pair):
                with pytest.raises(SeriesBudgetError) as refused:
                    partial_sum((F(1), ratio), n).approx(F(1, 10**25))
                refusals.append(str(refused.value))
            assert refusals[0] == refusals[1]


class TestFixedPointSeries:
    """exp_rational and limit(geometric; r), summed from integer term bounds
    on a fixed-point grid, against the exact-term walk of helpers."""

    PRECISIONS = [F(1), F(1, 10**3), F(1, 10**30), F(1, 10**100), F(1, 10**300)]

    def _matches_oracle(self, got_real, oracle_real, finest):
        # every answer is narrow, short and meets the oracle's answer; the
        # Real checks each against the narrowest answer before it
        for eps in self.PRECISIONS:
            if eps < finest:
                break
            got = got_real.approx(eps)
            assert got.width <= eps
            assert_short_dyadic(got, eps)
            assert got.overlaps(oracle_real.approx(eps)), (got_real, eps)

    def test_exp_rational_matches_exact_walk(self):
        # |q| <= 50 of both signs, dyadic and odd denominators of up to 4000
        # bits; the exact walk's terms grow to the endpoint bits times the
        # index, so the finest precision shrinks as the endpoints grow
        rng = random.Random(12)
        tiers = [(4000, F(1)), (1000, F(1, 10**3)), (256, F(1, 10**30)),
                 (64, F(1, 10**100)), (8, F(1, 10**300))]
        for bits, finest in tiers:
            for den in (1 << bits, rng.getrandbits(bits) | 1 << (bits - 1) | 1):
                for sign in (1, -1):
                    q = sign * F(rng.randint(1, 50 * den), den)
                    self._matches_oracle(exp_rational(q), exp_rational_oracle(q), finest)

    def test_small_integer_exponents_match_exact_walk(self):
        for q in (0, 1, -1, 2, -7, 20, -20, 50, -50):
            self._matches_oracle(exp_rational(q), exp_rational_oracle(F(q)), F(1, 10**300))

    def test_partial_sums_hold_the_exact_sum(self):
        # seeded ratios of both signs up to 50 in magnitude: a negative
        # ratio swaps the integer bounds, and the exact partial sum stays
        # strictly inside an answer of width at most eps
        rng = random.Random(14)
        for _ in range(300):
            n = rng.randint(0, 80)
            eps = F(1, rng.choice([1, 3, 10, 1000, 2**20]))
            q = F(rng.randint(-500, 500), 10)
            b = abs(q).numerator // abs(q).denominator + 1
            values = [F(1)]
            for k in range(1, n + 1):
                values.append(values[-1] * q / k)
            got = partial_sum((F(1), lambda k: (q.numerator, q.denominator * k)), n,
                              -(-14427 * b // 10000)).approx(eps)
            assert got.lo < sum(values) < got.hi and got.width <= eps, (q, n, eps)

    def test_geometric_matches_exact_walk(self):
        rng = random.Random(13)
        cases = [(F(0), F(1, 10**300)), (F(1, 2), F(1, 10**300)), (F(-1, 2), F(1, 10**300))]
        for bound, finest in ((F(3, 4), F(1, 10**300)), (F(19, 20), F(1, 10**30))):
            for _ in range(4):
                den = rng.randint(2, 1000)
                r = F(rng.randint(-den, den), den)
                if abs(r) <= bound:
                    cases.append((r, finest))
        for r, finest in cases:
            got = evaluate(Parser(f"limit(geometric; {r})").parse())
            self._matches_oracle(got, geometric_oracle(r), finest)
            assert got.approx(finest).contains(1 / (1 - r))


class TestDedekindAxiomsOperationalized:
    def _constructors(self):
        yield real_of_rat(F(3, 7))
        yield real_of_cut(rational_cut(F(-2, 5)), interval(-1, 0))
        yield real_of_cut(sqrt_cut(2), interval(1, 2))
        yield add(real_of_rat(F(1, 3)), real_of_rat(F(1, 7)))
        yield mul(real_of_rat(F(2, 3)), real_of_rat(F(-5, 4)))

    def test_width_gives_arbitrarily_small_members(self):
        for x in self._constructors():
            for eps in EPS_GRID:
                assert x.approx(eps).width <= eps

    def test_members_contain_members_with_strict_nesting(self):
        # refining a member by a third of its width shrinks strictly on
        # at least one side
        for x in self._constructors():
            outer = x.approx(F(1, 5))
            inner = x.approx(outer.width / 3)
            assert inner.overlaps(outer)
            b, c = max(outer.lo, inner.lo), min(outer.hi, inner.hi)
            assert outer.lo < b or c < outer.hi

    def test_widened_members_nest_strictly_both_sides(self):
        for x in self._constructors():
            base = x.approx(F(1, 7))
            padded = RInterval(base.lo - F(1, 21), base.hi + F(1, 21))
            assert padded.lo < base.lo and base.hi < padded.hi

    def test_all_constructor_answers_overlap_pairwise(self):
        grid = [F(2), F(1, 2), F(1, 9), F(1, 64), F(1, 1000)]
        for x in self._constructors():
            answers = [x.approx(e) for e in grid]
            for a in answers:
                for b in answers:
                    assert a.overlaps(b)
            for e, a in zip(grid, answers):
                assert a.width <= e


class TestUniformConvergence:
    def test_shrinking_family_verified(self):
        verdict = uniform_convergence_check(
            family=lambda n, x: real_of_rat(x / (n + 1)),
            domain=interval(0, 1),
            candidate_modulus=lambda eps: math.ceil(2 / eps),
            grid_eps=F(1, 16),
            probe_indices=[1, 3, 10, 40, 200],
            eps_values=[F(1, 4), F(1, 16)],
        )
        assert isinstance(verdict, Verified)

    def test_powers_refuted_with_certificate(self):
        verdict = uniform_convergence_check(
            family=lambda n, x: real_of_rat(x ** (n + 1)),
            domain=interval(0, 1),
            candidate_modulus=lambda eps: math.ceil(2 / eps),
            grid_eps=F(1, 16),
            probe_indices=[8, 64, 256],
            eps_values=[F(1, 4)],
        )
        assert isinstance(verdict, Refuted)
        assert verdict.eps == F(1, 4)
        assert verdict.separation >= F(1, 4)
        # the certificate survives exact re-evaluation
        v_base = verdict.x ** (verdict.base_index + 1)
        v_probe = verdict.x ** (verdict.n + 1)
        assert abs(v_base - v_probe) >= F(1, 4)

    def test_constant_family_verified(self):
        verdict = uniform_convergence_check(
            family=lambda n, x: real_of_rat(F(5, 9)),
            domain=interval(0, 1),
            candidate_modulus=lambda eps: 0,
            grid_eps=F(1, 4),
            probe_indices=[0, 7, 99],
            eps_values=[F(1, 8)],
        )
        assert isinstance(verdict, Verified)


class TestNetsAndSubcover:
    def test_net_of_unit_interval(self):
        net = epsilon_net(interval(0, 1), F(3, 10))
        assert net == [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        assert len(net) <= math.ceil(F(10, 3)) + 1

    def test_wide_net(self):
        assert epsilon_net(interval(0, 1), F(2)) == [F(0), F(1)]

    def test_net_covers(self):
        rng = random.Random(61)
        for _ in range(50):
            eps = F(rng.randint(1, 30), rng.randint(1, 30))
            net = epsilon_net(interval(0, 1), eps)
            q = F(rng.randint(0, 1000), 1000)
            assert any(abs(q - p) <= eps for p in net)

    def test_three_interval_chain(self):
        cover = [
            interval("-1/10", "4/10"),
            interval("3/10", "8/10"),
            interval("7/10", "11/10"),
        ]
        assert finite_subcover(interval(0, 1), cover) == cover

    def test_single_interval(self):
        assert finite_subcover(interval(0, 1), [interval(-1, 2)]) == [interval(-1, 2)]

    def test_gap_certificate(self):
        cover = [interval(-1, "1/2"), interval("3/5", 2)]
        with pytest.raises(UncoveredPointError) as e:
            finite_subcover(interval(0, 1), cover)
        assert F(1, 2) <= e.value.point <= F(3, 5)
        assert not any(iv.contains(e.value.point) for iv in cover)

    def test_ball_cover_size_bound(self):
        for eps in (F(3, 10), F(1, 10), F(1, 100)):
            net = epsilon_net(interval(0, 1), eps)
            balls = [RInterval(q - eps, q + eps) for q in net]
            chosen = finite_subcover(interval(0, 1), balls)
            bound = math.ceil(1 / eps) + 1
            assert len(chosen) <= bound

    @staticmethod
    def _same_picks(domain, cover):
        """The sweep and the full scan pick the same members (by identity)
        or report the same uncovered point."""
        try:
            want = [id(iv) for iv in finite_subcover_oracle(domain, cover)]
        except UncoveredPointError as e:
            want = e.point
        try:
            got = [id(iv) for iv in finite_subcover(domain, cover)]
        except UncoveredPointError as e:
            got = e.point
        assert got == want

    def test_sweep_matches_scan_on_seeded_covers(self):
        # endpoints on a quarter grid make ties, touching ends and gaps common
        rng = random.Random(71)
        for _ in range(400):
            lo = F(rng.randint(-8, 8), 4)
            domain = RInterval(lo, lo + F(rng.randint(1, 16), 4))
            cover = []
            for _ in range(rng.randint(1, 12)):
                a = F(rng.randint(-12, 40), 4)
                cover.append(RInterval(a, a + F(rng.randint(1, 12), 4)))
            for _ in range(rng.randint(0, 3)):
                iv = rng.choice(cover)
                # an equal copy, or the same right end from another start
                start = iv.lo if rng.random() < 0.5 else iv.hi - F(rng.randint(1, 8), 4)
                cover.append(RInterval(start, iv.hi))
            rng.shuffle(cover)
            self._same_picks(domain, cover)

    def test_sweep_matches_scan_on_equal_reaches_and_left_ends(self):
        # many members share a right end, a left end or both, in shuffled
        # order: the first in input order among equal reaches is picked
        rng = random.Random(72)
        ends = [F(i, 3) for i in range(-3, 8)]
        for _ in range(300):
            cover = []
            for _ in range(rng.randint(1, 14)):
                a, b = sorted(rng.sample(ends, 2))
                cover.append(RInterval(a, b))
            for _ in range(rng.randint(1, 6)):
                iv = rng.choice(cover)
                cover.append(RInterval(iv.lo, iv.hi))  # an equal copy
            rng.shuffle(cover)
            self._same_picks(interval(0, 1), cover)

    def test_net_and_balls_match_fraction_arithmetic(self):
        # seeded domains of both signs and radii, wide and narrow
        rng = random.Random(73)
        cases = [(interval(0, 1), F(1, 1000)), (interval(0, 1), F(2)), (interval(-1, 1), F(3, 7))]
        for _ in range(200):
            lo = F(rng.randint(-50, 50), rng.randint(1, 30))
            domain = RInterval(lo, lo + F(rng.randint(1, 60), rng.randint(1, 30)))
            cases.append((domain, F(rng.randint(1, 40), rng.randint(1, 400))))
        for domain, eps in cases:
            assert epsilon_net(domain, eps) == epsilon_net_oracle(domain, eps)
            assert ball_cover(domain, eps) == ball_cover_oracle(domain, eps)

    def test_integer_sweep_matches_the_fraction_sweep(self):
        # ball_subcover against finite_subcover(ball_cover(...)): radii 1/n
        # on [0, 1] for every n up to 400 and a stride on to 2000 (every n
        # to 2000 takes 30 s), then seeded domains of both signs
        unit = interval(0, 1)
        cases = [(unit, F(1, n)) for n in [*range(1, 401), *range(401, 2000, 53), 2000]]
        rng = random.Random(74)
        for _ in range(300):
            lo = F(rng.randint(-50, 50), rng.randint(1, 30))
            domain = RInterval(lo, lo + F(rng.randint(1, 60), rng.randint(1, 30)))
            cases.append((domain, F(rng.randint(1, 40), rng.randint(1, 400))))
        for domain, eps in cases:
            want = [(iv.lo, iv.hi) for iv in finite_subcover(domain, ball_cover(domain, eps))]
            ends, d = ball_subcover(domain, eps)
            assert [(F(lo, d), F(hi, d)) for lo, hi in ends] == want, (domain, eps)

    def test_sweep_matches_scan_on_ball_covers(self):
        for eps in (F(1, 10), F(1, 100), F(1, 1000)):
            net = epsilon_net(interval(0, 1), eps)
            self._same_picks(interval(0, 1), [RInterval(q - eps, q + eps) for q in net])


def sqrt_bracket(k: int) -> tuple[F, F]:
    """A < sqrt(k) < B to 40 digits, k not a square."""
    s = math.isqrt(k * 10**80)
    return F(s, 10**40), F(s + 1, 10**40)


def exp_bracket(lo: F, hi: F) -> tuple[F, F]:
    """A <= e^lo and e^hi <= B for |lo|, |hi| <= 8: sixty Taylor terms with
    the remainder bound 2|q|^61/61!, the endpoints first rounded outward to
    2^-100 so the powers stay small."""

    def bounds(q):
        s = sum(q**k / math.factorial(k) for k in range(61))
        tail = 2 * abs(q) ** 61 / math.factorial(61)
        return s - tail, s + tail

    scale_ = 2**100
    return (bounds(F(math.floor(lo * scale_), scale_))[0],
            bounds(F(math.ceil(hi * scale_), scale_))[1])


def geometric_tail_index(r: F, bound: F):
    def index(eps):
        n = 0
        while bound * abs(r) ** (n + 1) / (1 - abs(r)) > eps:
            n += 1
        return n
    return index


@st.composite
def bracketed_reals(draw, depth=2):
    """(real, (A, B), rounded): a real built from rationals and square
    roots by the combinators, a rational bracket of its value computed
    here by exact interval arithmetic (A == B when the value is exactly A,
    else A < value < B), and whether a combinator gave the answer."""
    if depth == 0 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["rat", "sqrt", "geometric", "exp"]))
        if leaf == "rat":
            q = draw(st.fractions(min_value=F(-4), max_value=F(4), max_denominator=60))
            return real_of_rat(q), (q, q), False
        if leaf == "geometric":
            # exact terms c * r^n, summed to c / (1 - r)
            c = draw(st.fractions(min_value=F(-3), max_value=F(3), max_denominator=20))
            r = draw(st.sampled_from([F(1, 2), F(-1, 2), F(-1, 3), F(3, 4), F(-9, 10)]))
            series = sum_series(
                (c, lambda k: (r.numerator, r.denominator)),
                lambda n, e: abs(c) * abs(r) ** (n + 1) / (1 - abs(r)) <= e,
                geometric_tail_index(r, abs(c)),
            )
            return series, (c / (1 - r), c / (1 - r)), True
        if leaf == "exp":
            q = draw(st.fractions(min_value=F(-3), max_value=F(3), max_denominator=20))
            return exp_rational(q), exp_bracket(q, q), True
        k = draw(st.sampled_from([2, 3, 5, 7]))
        return real_of_cut(sqrt_cut(k), interval(1, k)), sqrt_bracket(k), False
    x, (a, b), _ = draw(bracketed_reals(depth - 1))
    op = draw(st.sampled_from(
        ["add", "sub", "mul", "scale", "inv", "exp", "series", "chain"]))
    if op in ("add", "sub", "mul"):
        y, (c, d), _ = draw(bracketed_reals(depth - 1))
        if op == "add":
            return add(x, y), (a + c, b + d), True
        if op == "sub":
            return sub(x, y), (a - d, b - c), True
        products = [a * c, a * d, b * c, b * d]
        return mul(x, y), (min(products), max(products)), True
    if op == "inv" and (a >= F(1, 4) or b <= -F(1, 4)):
        delta = a / 2 if a > 0 else -b / 2
        return inv(x, delta), (1 / b, 1 / a), True
    if op == "chain" and (a >= F(1, 4) or b <= -F(1, 4)):
        # a deep chain of products and reciprocals, x -> 1 / (x * c)
        factors = draw(st.lists(st.sampled_from([F(1, 2), F(2, 3), F(3, 2), F(2)]),
                                min_size=4, max_size=12))
        y, lo, hi = x, a, b
        for c in factors:
            lo, hi = lo * c, hi * c
            y = inv(mul(y, real_of_rat(c)), min(abs(lo), abs(hi)) / 2)
            lo, hi = 1 / hi, 1 / lo
        return y, (lo, hi), True
    if op == "exp" and -3 <= a and b <= 3:
        return exp_real(x), exp_bracket(a, b), True
    if op == "series":
        # sum of x * r^n over n >= 0, which is x / (1 - r)
        r = draw(st.sampled_from([F(1, 2), F(-1, 3), F(3, 4), F(-9, 10)]))
        bound = max(abs(a), abs(b)) + 1
        series = sum_series(
            lambda n: scale(x, r**n),
            lambda n, e: bound * abs(r) ** (n + 1) / (1 - abs(r)) <= e,
            geometric_tail_index(r, bound),
        )
        return series, tuple(sorted((a / (1 - r), b / (1 - r)))), True
    c = draw(st.fractions(min_value=F(-3), max_value=F(3), max_denominator=20))
    if c == 0:
        return scale(x, c), (F(0), F(0)), False  # the constant zero, unrounded
    return scale(x, c), tuple(sorted((a * c, b * c))), True


def assert_short_dyadic(iv: RInterval, eps: F) -> None:
    """Both endpoints on the grid 2^-k, k least with 2^-k <= eps/4, or a
    coarser one: power-of-two denominators no larger than 8/eps."""
    for end in (iv.lo, iv.hi):
        den = end.denominator
        assert den & (den - 1) == 0 and den * eps <= 8, (end, eps)


class TestOutwardRounding:
    @given(bracketed_reals(), st.lists(st.sampled_from(
        [F(1, 3), F(1, 10), F(2, 7), F(1, 1000), F(1, 2**20), F(1, 10**6), F(7, 10**9)]),
        min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_answers_are_sound_narrow_and_short(self, case, precisions):
        x, (a, b), rounded = case
        seen = []
        for eps in precisions:
            got = x.approx(eps)
            assert got.width <= eps
            if a == b:
                assert got.lo < a < got.hi
            else:
                assert got.lo <= a and b <= got.hi
            assert all(got.overlaps(prev) for prev in seen)
            seen.append(got)
            if rounded:
                assert_short_dyadic(got, eps)

    def test_nested_exponential_keeps_short_endpoints(self):
        eps = F(1, 10**4)
        got = exp_real(exp_rational(F(1, 2))).approx(eps)
        assert_short_dyadic(got, eps)
        inner = exp_bracket(F(1, 2), F(1, 2))
        lo, hi = exp_bracket(*inner)
        assert got.lo <= lo and hi <= got.hi and got.width <= eps


class TestExpRealDifferential:
    """exp_real, the image of one answer for x under two rational
    exponentials, against the term-wise power series of the same x."""

    PRECISIONS = [F(1), F(1, 10), F(1, 10**3), F(1, 10**12), F(1, 10**50)]

    def _arguments(self, rng):
        # seeded reals with |x| <= 8, where exp_bracket holds
        for k in (2, 3, 5, 7):
            c = F(rng.choice([-9, -7, -4, -2, 1, 3, 5, 8, 9]), 3)
            yield scale(real_of_cut(sqrt_cut(k), interval(1, k)), c)
        for _ in range(2):
            yield exp_rational(F(rng.randint(-30, 20), 10))
            p, q = (F(rng.randint(-40, 40), rng.randint(1, 10)) for _ in range(2))
            yield add(real_of_rat(p / 10), real_of_rat(q / 10))
            p, q = (F(rng.randint(-28, 28), 10) for _ in range(2))
            yield mul(real_of_rat(p), real_of_rat(q))
        yield exp_real(scale(real_of_cut(sqrt_cut(2), interval(1, 2)), F(1, 2)))

    def test_matches_term_wise_oracle(self):
        for x in self._arguments(random.Random(10)):
            narrow = x.approx(F(1, 10**60))
            want_lo, want_hi = exp_bracket(narrow.lo, narrow.hi)
            got_real, oracle = exp_real(x), exp_termwise_oracle(x)
            for eps in self.PRECISIONS:
                got = got_real.approx(eps)
                assert got.width <= eps
                assert_short_dyadic(got, eps)
                assert got.overlaps(oracle.approx(eps)), (x, eps)
                assert max(got.lo, want_lo) < min(got.hi, want_hi), (x, eps)


class TestConcurrency:
    def test_parallel_queries_are_consistent(self):
        # memoization must stay invisible under concurrent mixed-precision
        # queries
        import threading

        x = real_of_cut(sqrt_cut(2), interval(1, 2))
        y = mul(x, x)
        precisions = [F(1, 10**k) for k in (1, 3, 5, 2, 4)] * 4
        results = {}
        errors = []

        def worker(tag, eps):
            try:
                results[(tag, eps)] = y.approx(eps)
            except Exception as e:  # pragma: no cover - failure path
                errors.append(e)

        threads = [
            threading.Thread(target=worker, args=(i, eps))
            for i, eps in enumerate(precisions)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        answers = list(results.values())
        for a in answers:
            assert a.contains(F(2))
            for b in answers:
                assert a.overlaps(b)
        # repeated queries at one precision hit the cache and agree
        assert y.approx(F(1, 10**3)) == y.approx(F(1, 10**3))

    def test_parallel_exact_series_queries(self):
        # exp_rational and limit(geometric; r) walk their exact terms under
        # concurrent mixed-precision queries: every threaded answer equals
        # the answer of a fresh real queried alone
        import threading

        def build():
            return {
                "exp": exp_rational(F(3, 2)),
                "geometric": evaluate(Parser("limit(geometric; -7/8)").parse()),
            }

        shared, fresh = build(), build()
        brackets = {"exp": exp_bracket(F(3, 2), F(3, 2)), "geometric": (F(8, 15), F(8, 15))}
        precisions = [F(1, 10**k) for k in (30, 3, 12, 1, 50, 6, 20)] * 3
        start = threading.Barrier(len(precisions))
        results = []
        errors = []

        def worker(eps):
            try:
                start.wait()
                for name, x in shared.items():
                    results.append((name, eps, x.approx(eps)))
            except Exception as e:  # pragma: no cover - failure path
                errors.append(e)

        threads = [threading.Thread(target=worker, args=(eps,)) for eps in precisions]
        interval_before = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the term walks
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval_before)
        assert not any(t.is_alive() for t in threads)
        assert not errors and len(results) == 2 * len(precisions)
        for name, eps, got in results:
            a, b = brackets[name]
            assert got.lo <= a and b <= got.hi and got.width <= eps
            assert got == fresh[name].approx(eps)


class TestIntegerCombinators:
    """The combinators on integer triples against the Fraction combinators
    they replaced, the oracles of helpers: every answer is the same
    RInterval.  Precisions run from 1e-200 to 1000, so grids 2^k with k of
    both signs round endpoints of both signs."""

    PRECISIONS = [F(1, 10**200), F(1, 10**50), F(7, 10**9), F(1, 3), F(1), F(4), F(9), F(1000)]

    def test_round_out_matches_fraction_floor_and_ceiling(self):
        rng = random.Random(101)
        for _ in range(3000):
            den = rng.choice([1, 3, 2 ** rng.randint(0, 80), rng.randint(1, 10**6)])
            lo = rng.randint(-10**9, 10**9) * rng.choice([1, den, 2 ** rng.randint(0, 60)])
            hi = lo + rng.randint(1, 10 ** rng.randint(1, 20))
            eps = F(rng.randint(1, 10**6), rng.randint(1, 10**6)) * F(2) ** rng.randint(-200, 60)
            got = xreal._round_out(lo, hi, den, xreal._grid((eps.numerator, eps.denominator)))
            want = round_out_oracle(F(lo, den), F(hi, den), eps)
            assert xreal._interval(*got) == want, (lo, hi, den, eps)

    @staticmethod
    def _leaf(rng):
        kind = rng.choice(["rat", "rat", "exp", "geometric", "inv_n"])
        if kind == "rat":
            q = F(rng.randint(-60, 60), rng.randint(1, 20))
            return real_of_rat(q), rat_oracle(q)
        if kind == "exp":
            q = F(rng.randint(-30, 30), rng.randint(1, 10))
            return exp_rational(q), exp_series_oracle(q)
        if kind == "geometric":
            d = rng.choice([3, 10, 16])
            r = F(rng.randint(1 - d, d - 1), d)
            got = evaluate(Parser(f"limit(geometric; {r})").parse())
            want = sum_series_oracle(
                (F(1), lambda k: (r.numerator, r.denominator)),
                lambda n, e: abs(r) ** (n + 1) / (1 - abs(r)) <= e,
                lambda eps: geometric_index_oracle(r, eps))
            return got, want
        want = limit_oracle(ConvergentSeq(lambda n: rat_oracle(F(1, n + 1)),
                                          lambda eps: math.ceil(2 / eps)))
        return evaluate(Parser("limit(inv_n)").parse()), want

    def _tree(self, rng, depth):
        """A random expression as (library real, oracle real)."""
        if depth == 0 or rng.random() < 0.25:
            return self._leaf(rng)
        x, xo = self._tree(rng, depth - 1)
        op = rng.choice(["add", "sub", "neg", "mul", "scale", "inv", "inv", "exp"])
        if op in ("add", "sub", "mul"):
            y, yo = self._tree(rng, depth - 1)
            if op == "add":
                return add(x, y), add_oracle(xo, yo)
            if op == "sub":
                return sub(x, y), add_oracle(xo, neg_oracle(yo))
            return mul(x, y), mul_oracle(xo, yo)
        if op == "scale":
            c = F(rng.randint(-20, 20), rng.randint(1, 9))
            return scale(x, c), scale_oracle(xo, c)
        if op == "inv":
            delta = find_apartness(x, F(1, 2**30))
            if delta is not None:
                return inv(x, delta), inv_oracle(xo, delta)
        if op == "exp" and max(-x.approx(1).lo, x.approx(1).hi) < 4:
            return exp_real(x), exp_real_oracle(xo)
        return neg(x), neg_oracle(xo)

    def test_random_trees_match_the_fraction_combinators(self):
        rng = random.Random(102)
        for _ in range(150):
            got, want = self._tree(rng, rng.randint(1, 3))
            for eps in rng.sample(self.PRECISIONS, len(self.PRECISIONS)):
                assert got.approx(eps) == want.approx(eps), (got, eps)

    def test_real_term_series_and_limit_at_zero(self):
        rng = random.Random(103)
        for _ in range(20):
            q, r = F(rng.randint(-40, 40), rng.randint(1, 9)), F(rng.choice([1, -1, 3]), 4)
            bound = abs(q) + 1
            tail = (lambda n, e, r=r, bound=bound: bound * abs(r) ** (n + 1) / (1 - abs(r)) <= e,
                    lambda eps, r=r, bound=bound: next(
                        n for n in range(10**4) if bound * abs(r) ** (n + 1) / (1 - abs(r)) <= eps))
            got = sum_series(lambda n, q=q, r=r: scale(real_of_rat(q), r**n), *tail)
            want = sum_series_oracle(lambda n, q=q, r=r: scale_oracle(rat_oracle(q), r**n), *tail)
            at_zero = limit_at_zero(lambda x, apart, q=q: mul(real_of_rat(x + q), exp_rational(x)),
                                    lambda eps: min(F(1), eps / 64))
            at_zero_oracle = limit_at_zero_oracle(
                lambda x, apart, q=q: mul_oracle(rat_oracle(x + q), exp_series_oracle(x)),
                lambda eps: min(F(1), eps / 64))
            for eps in self.PRECISIONS[1:]:
                assert got.approx(eps) == want.approx(eps), (q, r, eps)
                assert at_zero.approx(eps) == at_zero_oracle.approx(eps), (q, eps)


class TestEvaluationWorkBudget:
    """MAX_SERIES_WORK bounds the walks of one outermost query together."""

    @staticmethod
    def _walk():
        # at 2^-1002, 100 terms at p = 1002 + 2 bits(102) + 1 = 1017 bits with
        # a last ratio of 301 + 309 bits: 100 * 1017 * 3 = 305,100 units
        return partial_sum((F(1), lambda k: (2**300, 3 * 2**300 * k)), 100)

    def test_walks_of_one_query_share_the_budget(self, monkeypatch):
        eps = F(1, 2**1000)
        monkeypatch.setattr(xreal, "MAX_SERIES_WORK", 2 * 305_100 - 1)
        with pytest.raises(SeriesBudgetError, match="305100 units of work after 305100 in"):
            add(self._walk(), self._walk()).approx(eps)
        monkeypatch.setattr(xreal, "MAX_SERIES_WORK", 2 * 305_100)
        both = add(self._walk(), self._walk())
        assert both.approx(eps).contains(2 * sum(F(1, 3**k * math.factorial(k))
                                                 for k in range(101)))

    def test_each_outermost_query_has_its_own_budget(self, monkeypatch):
        # two queries within the budget alone both answer, but a query made
        # while another is answered is part of its evaluation
        monkeypatch.setattr(xreal, "MAX_SERIES_WORK", 305_100)
        eps = F(1, 2**1002)
        for x in (self._walk(), self._walk()):
            x.approx(eps)
        x, y = self._walk(), self._walk()
        nested = fraction_real(lambda e: (x.approx(e), y.approx(e))[1])
        with pytest.raises(SeriesBudgetError, match="after 305100 in this evaluation"):
            nested.approx(eps)


class TestLimitAtZero:
    def test_product_with_inverse_is_one(self):
        def f(x, apart):
            r = real_of_rat(x)
            return mul(r, inv(r, apart))

        lim = limit_at_zero(f, lambda eps: F(1))
        for eps in EPS_GRID:
            assert lim.approx(eps).contains(F(1))

    def test_polynomial(self):
        lim = limit_at_zero(
            lambda x, apart: real_of_rat(x * x + 3),
            lambda eps: min(F(1), eps),
        )
        for eps in EPS_GRID:
            assert lim.approx(eps).contains(F(3))

    def test_cancelling_quotient(self):
        lim = limit_at_zero(
            lambda x, apart: real_of_rat(x * x / x),
            lambda eps: eps,
        )
        for eps in EPS_GRID:
            assert lim.approx(eps).contains(F(0))

    def test_answers_are_short_dyadic(self):
        cases = [
            (lambda x, apart: mul(real_of_rat(x), inv(real_of_rat(x), apart)),
             lambda eps: F(1), F(1)),
            (lambda x, apart: real_of_rat(x * x + F(1, 3)), lambda eps: min(F(1), eps),
             F(1, 3)),
            (lambda x, apart: exp_rational(x), lambda eps: eps / 4, F(1)),
        ]
        for f, modulus, value in cases:
            lim = limit_at_zero(f, modulus)
            for eps in [*EPS_GRID, F(2, 7), F(1, 3 * 10**20)]:
                got = lim.approx(eps)
                assert got.contains(value) and got.width <= eps
                assert_short_dyadic(got, eps)
