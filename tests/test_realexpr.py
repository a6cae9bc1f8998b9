import itertools
import random
import time
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from coverlab import cli, xreal
from coverlab.realexpr import (
    MAX_DEPTH,
    ExprError,
    Parser,
    _geometric_index,
    _limit_form,
    answer,
    evaluate,
    format_interval,
    format_ratio,
    literal,
    tokenize,
)
from coverlab.xreal import RInterval
from helpers import (
    ParserOracle,
    answer_of,
    eval_expression,
    fold_oracle,
    format_fraction_oracle,
    format_interval_oracle,
    geometric_index_oracle,
)
from test_fuzz_cli import expressions


class TestParsing:
    def test_literals_and_precedence(self):
        # a rational evaluates to an integer pair (n, d), d > 0
        assert F(*evaluate(Parser("1 + 2 * 3").parse())) == F(7)
        assert F(*evaluate(Parser("(1 + 2) * 3").parse())) == F(9)
        assert F(*evaluate(Parser("-4/8").parse())) == F(-1, 2)
        assert F(*evaluate(Parser("0.25").parse())) == F(1, 4)

    def test_rational_literals_fold_exactly(self):
        assert F(*evaluate(Parser("1/3 + 1/6").parse())) == F(1, 2)

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ExprError):
            Parser("1 +").parse()
        with pytest.raises(ExprError):
            Parser("2 ** 3").parse()
        with pytest.raises(ExprError):
            Parser("frob(1)").parse()

    def test_division_by_exact_zero(self):
        with pytest.raises(ExprError):
            evaluate(Parser("1 / (2 - 2)").parse())


class TestRationalFolding:
    """Rational operands fold as integer pairs and enter xreal as one
    Fraction: against the Fraction folding they replaced, on seeded trees of
    rationals only (integers, decimals with zeros, long literals, negation,
    exact zero divisors)."""

    LEAVES = ["0", "1", "7", "12", "0.5", "2.25", "0.000", "3.10", "06", "1" * 30,
              "0." + "3" * 40, "4/8", "6/3"]

    def test_trees_of_rationals_match_fraction_folding(self):
        rng = random.Random(241)

        def tree(depth):
            if depth == 0 or rng.random() < 0.25:
                return rng.choice(self.LEAVES)
            if rng.random() < 0.15:
                return "-" + tree(depth - 1)
            return f"({tree(depth - 1)} {rng.choice('+-*/')} {tree(depth - 1)})"

        folded = 0
        for _ in range(2000):
            text = tree(rng.randint(0, 7))
            try:
                want = fold_oracle(ParserOracle(text).parse())
            except ExprError as e:
                with pytest.raises(ExprError, match=str(e)):
                    evaluate(Parser(text).parse())
                continue
            n, d = evaluate(Parser(text).parse())
            assert d > 0 and F(n, d) == want, text
            # one Fraction in lowest terms enters xreal: the answer is that
            # of the reduced rational, triple for triple
            eps = rng.choice([F(1), F(1, 1000), F(3, 7), F(1, 2**70)])
            assert answer(text, eps) == xreal.real_of_rat(want)._get(
                (eps.numerator, eps.denominator)), text
            # and as the exponent of exp, whose name shows the Fraction it took
            assert evaluate(Parser(f"exp({text})").parse()).name == f"exp({want})", text
            folded += 1
        assert folded > 1500


def _read(parser, text: str):
    """The tree a parser class reads from text, each literal read as a
    Fraction, or its ExprError's message."""
    try:
        return _fractions(parser(text).parse())
    except ExprError as e:
        return str(e)


def _fractions(node):
    """The tree with each literal's integer pair (n, d) as the Fraction n/d."""
    if not isinstance(node, tuple):
        return node
    if node[:1] == ("lit",) and isinstance(node[1], tuple):
        return ("lit", F(*node[1]))
    return tuple(_fractions(x) for x in node)


class TestReaderDifferential:
    """The reader against the form it replaced, ``helpers.ParserOracle``:
    the same tree, or the same error message with the same position."""

    # two digits, a decimal point, a letter, every operator, three kinds of
    # space and a character that starts no token
    ALPHABET = "10.e+-*/(); \t\xa0$"

    def test_every_string_up_to_four_characters(self):
        for k in range(5):
            for chars in itertools.product(self.ALPHABET, repeat=k):
                text = "".join(chars)
                assert _read(Parser, text) == _read(ParserOracle, text), repr(text)

    @pytest.mark.parametrize("text", [
        "inv(2; -1/3)", "inv(2 ; 1/0)", "inv(exp(1))", "inv(1; 1; 2)", "exp(1; 2)",
        "exp(1", "limit(geometric; -9/10)", "limit(inv_n; 1/2; 3)", "limit(2)", "frob(1)",
        "1" * 4300, "1" * 4301, " 0." + "1" * 4300, "2 *\xa0" + "3" * 4301,
        "(" * 101 + "1" + ")" * 101, "-" * 101 + "1", "exp(" * 101 + "1" + ")" * 101,
        # one tree level each below, at and past MAX_DEPTH
        *(form.format("1" + "+1" * n) for n in (98, 99, 100)
          for form in ("exp({})", "inv({}; 2)", "-({})", "({})", "({})*2", "2-({})")),
    ])
    def test_calls_literals_and_depth(self, text):
        assert _read(Parser, text) == _read(ParserOracle, text)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(text=expressions())
    def test_fuzzed_expressions(self, text):
        assert _read(Parser, text) == _read(ParserOracle, text)


class TestHandlersReturnOutput:
    def test_real_and_demo_print_nothing(self, capsys):
        args = SimpleNamespace(expression="1/3", eps="1/1000", bounds=True)
        assert cli.cmd_real(args) == "0.333 ± 1/1000\n[333/1000, 1001/3000]"
        doc = cli.cmd_demo_heine_borel(SimpleNamespace(eps="1/2"))
        assert doc["selected"] == [["-1/2", "1/2"], ["0", "1"], ["1/2", "3/2"]]
        assert doc["gap_witness"] == "1/2"
        assert [r["verdict"] for r in doc["reports"]] == ["pass"] * 3
        assert capsys.readouterr() == ("", "")


class TestEvaluation:
    def test_rational_sum(self):
        iv = eval_expression("1/3 + 1/6", F(1, 10**12))
        assert iv.contains(F(1, 2)) and iv.width <= F(1, 10**12)

    def test_exp_one(self):
        iv = eval_expression("exp(1)", F(1, 10**9))
        e_lower = F(2718281828, 10**9)
        e_upper = F(2718281829, 10**9)
        assert iv.lo < e_upper and iv.hi > e_lower

    def test_inv_literal(self):
        iv = eval_expression("inv(1/3; 1/4)", F(1, 10**6))
        assert iv.contains(F(3))

    def test_division_by_inexact_value(self):
        iv = eval_expression("1 / (exp(1) - 2)", F(1, 1000))
        # 1/(e-2) = 1.39221119...
        assert iv.contains(F(139221, 100000) + F(1, 10**6) * F(119, 100))

    def test_limit_forms(self):
        assert eval_expression("limit(inv_n)", F(1, 1000)).contains(F(0))
        assert eval_expression("limit(geometric; 1/2)", F(1, 1000)).contains(F(2))
        assert eval_expression("limit(geometric; -1/2)", F(1, 1000)).contains(F(2, 3))
        with pytest.raises(ExprError):
            eval_expression("limit(geometric; 3/2)", F(1, 10))

    def test_nested(self):
        iv = eval_expression("exp(1) * inv(exp(1); 1)", F(1, 10**6))
        assert iv.contains(F(1))


class TestFormatting:
    def test_half(self):
        iv = RInterval(F(499999, 10**6), F(500001, 10**6))
        text = format_interval(answer_of(iv), F(1, 1000), "1/1000")
        assert text == "0.500 ± 1/1000"

    def test_negative(self):
        iv = RInterval(F(-251, 1000), F(-249, 1000))
        assert format_interval(answer_of(iv), F(1, 100), "1/100").startswith("-0.25")

    def test_integer_precision(self):
        iv = RInterval(F(2, 3), F(4, 3))
        assert format_interval(answer_of(iv), F(2), "2") == "1 ± 2"

    def test_enclosure(self):
        # printed value plus-minus eps encloses the interval
        iv = RInterval(F(1, 3), F(1, 3) + F(1, 10**4))
        text = format_interval(answer_of(iv), F(1, 10**4), "1e-4")
        printed = F(text.split(" ")[0])
        assert printed - F(1, 10**4) <= iv.lo and iv.hi <= printed + F(1, 10**4)


class TestIntegerCommandPath:
    """The literal reader, the ratio text and the decimal line on integers
    against the Fraction forms they replaced."""

    # zeros of decimal digit runs: ASCII, Arabic-Indic, Extended
    # Arabic-Indic, Devanagari, Bengali, fullwidth and mathematical bold
    ZEROS = (0x30, 0x660, 0x6F0, 0x966, 0x9E6, 0xFF10, 0x1D7CE)

    def test_literal_matches_fraction_of_the_token(self):
        # every token of at most five characters over 0, 1, 9 and ".", and
        # seeded tokens with leading and trailing zeros in every digit run
        tokens = ["".join(t) for k in range(1, 6) for t in itertools.product("019.", repeat=k)]
        rng = random.Random(131)
        for _ in range(2000):
            zero = rng.choice(self.ZEROS)
            digits = [rng.choice("0000123456789") for _ in range(rng.randint(1, 40))]
            cut = rng.randint(0, len(digits) - 1)
            text = "".join(digits[:cut]) + "." + "".join(digits[cut:]) if cut else "".join(digits)
            tokens.append("".join(chr(zero + int(c)) if c != "." else c for c in text))
        tokens += ["٣", "١٢.٥٠", "０１.２", "0." + "3" * 4299, "1" * 4300,
                   "9" * 2150 + "." + "0" * 2150, "0" * 4299 + "7", "0." + "0" * 4298 + "1"]
        read = 0
        for text in tokens:
            try:
                if [kind for kind, *_ in tokenize(text)] != ["num"]:
                    continue
            except ExprError:  # a stray "."
                continue
            read += 1
            n, d = literal(text)
            assert F(n, d) == F(text) and d == 10 ** len(text.partition(".")[2]), text
        assert read > 2000

    def test_ratio_text_matches_str_of_the_fraction(self):
        rng = random.Random(132)
        cases = [(0, 1), (0, 7), (5, 1), (-5, 1), (6, 3), (-6, 3), (2, 4), (-2, 4), (1, 3)]
        for _ in range(3000):
            g = rng.choice([1, 2, 3, 10, 2 ** rng.randint(1, 60), rng.randint(1, 10**6)])
            n = rng.randint(-(10 ** rng.randint(0, 40)), 10 ** rng.randint(0, 40))
            d = rng.randint(1, 10 ** rng.randint(0, 30))
            cases += [(n * g, d * g), (n * d * g, d * g)]  # the second integral
        for n, d in cases:
            assert format_ratio(n, d) == str(F(n, d)), (n, d)
        # past the interpreter's 4300-digit int-to-str limit
        for digits in (4299, 4300, 4301, 9000):
            big = 10**digits // 7
            for n, d in ((big, 1), (-big, 7), (6 * big, 4), (7, 2 * big), (0, big), (-big, big)):
                assert format_ratio(n, d) == format_fraction_oracle(F(n, d)), (digits, n % 1000, d)

    PRECISIONS = [F(1, 10**k) for k in (0, 1, 3, 12, 60)] + [
        F(2), F(7, 3), F(1000), F(3, 7000), F(5, 10**30 + 1)]

    @staticmethod
    def _digits(eps):
        d = 0
        while 10**d * eps < 1:
            d += 1
        return d

    def test_decimal_line_matches_the_fraction_form(self):
        rng = random.Random(133)
        cases = []
        for _ in range(3000):
            eps = rng.choice(self.PRECISIONS)
            den = rng.choice([1, 3, 2 ** rng.randint(0, 120), rng.randint(1, 10**9)])
            lo = rng.randint(-(10**30), 10**30) * rng.choice([1, den, rng.randint(1, 10**6)]) // 7
            cases.append(((lo, lo + rng.randint(1, 10 ** rng.randint(0, 40)), den), eps))
        # midpoints exactly half-way between two printed values, of both
        # signs: (2m + 1) / (2 * 10^d) over den = 2 * 10^d * k
        for eps in self.PRECISIONS:
            d = self._digits(eps)
            for m in range(-30, 30):
                k, t = rng.randint(1, 10**6), rng.randint(1, 10**6)
                c = k * (2 * m + 1)
                cases.append(((c - t, c + t, 2 * 10**d * k), eps))
        for (lo, hi, den), eps in cases:
            iv = RInterval(F(lo, den), F(hi, den))
            want = format_interval_oracle(iv, eps, "EPS")
            assert format_interval((lo, hi, den), eps, "EPS") == want, (lo, hi, den, eps)


class TestNestingDepth:
    @pytest.mark.parametrize("text", [
        "(" * 3000 + "1" + ")" * 3000,
        "+".join(["1"] * 3000),
        "exp(" * 3000 + "1" + ")" * 3000,
        "0" + "-" * 3000 + "1",
    ])
    def test_deep_input_exits_2_with_position(self, text, capsys):
        assert cli.main(["real", "eval", text, "--eps", "1/10"]) == 2
        err = capsys.readouterr().err
        assert f"nesting deeper than {MAX_DEPTH} at position" in err
        assert "Traceback" not in err

    def test_depth_at_the_bound_evaluates(self, capsys):
        parens = "(" * (MAX_DEPTH - 1) + "1" + ")" * (MAX_DEPTH - 1)
        chain = "+".join(["1"] * MAX_DEPTH)
        negs = "0" + "-" * (MAX_DEPTH - 1) + "1"
        for text, value in ((parens, "1"), (chain, str(MAX_DEPTH)), (negs, "-1")):
            assert cli.main(["real", "eval", text, "--eps", "1/10"]) == 0
            assert capsys.readouterr().out.startswith(value + ".0 ± 1/10")
        assert cli.main(["real", "eval", "+".join(["exp(1)"] * (MAX_DEPTH - 1)),
                         "--eps", "1/10"]) == 0


class TestGeometricIndex:
    def test_matches_the_linear_search(self):
        rng = random.Random(83)
        ratios = [F(1, 2), F(9, 10), F(99, 100)]
        ratios += [F(rng.randint(1, 19), 20) for _ in range(8)]
        for r in ratios + [-r for r in ratios]:
            for e in (3, 10, 25, 50, 100, 200):
                eps = F(1, 10**e)
                n = _geometric_index(r, eps)
                # exactly the smallest n with |r|^(n+1) / (1 - |r|) <= eps
                a, t = abs(r), eps * (1 - abs(r))
                assert a ** (n + 1) <= t and (n == 0 or a**n > t), (r, e)
                if e <= 50:
                    assert n == geometric_index_oracle(r, eps), (r, e)

    def test_boundary_cases(self):
        # a^(n+1) equal to eps * (1 - a) counts as reached
        for r, eps in ((F(1, 2), F(1, 4)), (F(1, 3), F(1, 18)), (F(0), F(1, 10**9))):
            assert _geometric_index(r, eps) == geometric_index_oracle(r, eps)

    def test_near_ties_need_more_bits(self):
        # eps * (1 - r) within 2^-200 of r^N on either side: the 64-bit
        # bounds cannot tell, and the answer flips between N - 1 and N
        for r in (F(99, 100), F(7, 9), F(-1, 3)):
            for big_n in (100, 200, 333):
                for nudge in (1 + F(1, 2**200), 1 - F(1, 2**200)):
                    eps = abs(r) ** big_n * nudge / (1 - abs(r))
                    want = big_n - 1 if nudge > 1 else big_n
                    assert _geometric_index(r, eps) == want == geometric_index_oracle(r, eps)

    def test_tail_test_matches_the_full_powers(self, monkeypatch):
        # the series' exact tail test against |r|^(n+1) / (1 - |r|) <= e
        # with both powers built, around the index and at near ties, for
        # short ratios and a 300-digit one
        got = {}
        monkeypatch.setattr(xreal, "sum_series", lambda **kw: got.update(kw))
        for r, k in ((F(1, 2), 200), (F(-9, 10), 200), (F(99, 100), 200),
                     (F(int("3" * 300), 10**300), 40)):
            _limit_form("geometric", (r,))
            a, d = abs(r.numerator), r.denominator
            for e in (F(1, 10**3), F(7, 10**k)):
                n = _geometric_index(r, e)
                ties = [abs(r) ** n * (1 + F(s, 2**200)) / (1 - abs(r)) for s in (-1, 0, 1)]
                cases = [(m, e) for m in (n - 1, n, n + 1) if m >= 0]
                for m, t in cases + [(n - 1, t) for t in ties]:
                    want = a ** (m + 1) * t.denominator <= t.numerator * d**m * (d - a)
                    assert got["tail_within"](m, t) == want, (r, e, m)

    def test_ratio_near_one_is_quick(self):
        started = time.perf_counter()
        n = _geometric_index(F(999999, 10**6), F(1, 1000))
        assert time.perf_counter() - started < 1
        # ln(eps * (1 - r)) / ln(r) = 20723255.475...
        assert n == 20723255


class TestLongEndpoints:
    def test_geometric_ratio_near_one_at_fine_precision(self, capsys):
        # the terms' exact names ran past the interpreter's digit limit
        assert cli.main(["real", "eval", "limit(geometric; 99/100)", "--eps", "1e-10"]) == 0
        assert capsys.readouterr().out.startswith("100.0000000000 ± 1e-10")

    def test_bounds_of_a_nested_exponential_print(self, capsys):
        assert cli.main(["real", "eval", "exp(exp(1/4))", "--eps", "1/100", "--bounds"]) == 0
        bounds = capsys.readouterr().out.splitlines()[1]
        lo, hi = (F(x) for x in bounds.strip("[]").split(", "))
        # e^(e^(1/4)) = 3.61114...
        assert lo < F(361114, 10**5) < F(361115, 10**5) < hi and hi - lo <= F(1, 100)
        assert max(lo.denominator, hi.denominator) <= 800
