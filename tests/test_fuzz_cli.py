"""Seeded fuzz test of the command line (property-based: Claessen & Hughes,
QuickCheck, ICFP 2000).

Hypothesis generates space files and real expressions with hostile shapes:
deep nesting, carriers up to and past ``spacefile.MAX_CARRIER``, covers that
miss points, bool, float, string and huge-int values, long literals, nesting
near ``realexpr.MAX_DEPTH``, divisors near zero, and series whose ratio or
exponent has up to 4,000 digits, at precisions down to 1e-20000.  Every case
runs through ``cli.main`` in-process and must end in under 2 s with exit code
0, 1 or 2 and no traceback, and with exit code 2 exactly when the parser
refuses the input.  ``derandomize`` fixes the cases, so a run is repeatable.
"""

import contextlib
import io
import json
import time

from hypothesis import given, settings, strategies as st

from coverlab import cli, realexpr, spacefile

_FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)


class Raw(str):
    """JSON text placed into a document as it is, such as an integer
    literal too long for ``json.dumps`` to write."""


def _text(v) -> str:
    if isinstance(v, Raw):
        return v
    if isinstance(v, list):
        return "[" + ", ".join(map(_text, v)) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_text(x)}" for k, x in v.items()) + "}"
    return json.dumps(v)


_HUGE_INTS = st.sampled_from([20, 4300, 4301, 5000]).map(lambda d: Raw("9" * d))
_LONG_STRINGS = st.sampled_from([100, 100_000]).map(lambda k: "x" * k)
_ODD_VALUES = st.one_of(st.booleans(), st.floats(), st.text(max_size=8), st.none(),
                        _HUGE_INTS, _LONG_STRINGS)


def _nested(value, depth: int):
    for _ in range(depth):
        value = [value]
    return value


def _shape(n: int, kind: str):
    """A cover of n points that a desk-scale file could hold."""
    return {
        "discrete": [[x] for x in range(n)],
        "chain": [[x, x + 1] for x in range(n - 1)] or [[0]],
        "star": [[x, n - 1] for x in range(n - 1)] or [[0]],
        "one-point": [[0]],
        "blocks": [list(range(n // 2)), list(range(n // 2, n))],
    }[kind]


@st.composite
def space_files(draw) -> str:
    n = draw(st.one_of(st.integers(1, 12), st.integers(1, 12),
                       st.sampled_from([200, 2000, spacefile.MAX_CARRIER,
                                        spacefile.MAX_CARRIER + 1, 10**9])))
    if n <= 12:
        subsets = st.lists(st.integers(0, n - 1), max_size=6)
        covers = draw(st.lists(st.lists(subsets, max_size=6), max_size=3))
    else:
        kinds = st.sampled_from(["discrete", "chain", "star", "one-point", "blocks"])
        covers = [_shape(min(n, spacefile.MAX_CARRIER), k)
                  for k in draw(st.lists(kinds, min_size=1, max_size=2))]
    doc = {"format": 1, "carrier": n, "covers": covers}
    spoil = draw(st.sampled_from(["none"] * 6 + ["format", "carrier", "covers", "index",
                                                 "nest"]))
    if spoil == "nest":
        depth = draw(st.sampled_from([1, 100, 5000]))
        return "[" * depth + _text(doc) + "]" * depth
    if spoil == "index":
        bad = st.one_of(st.integers(-3, -1), st.integers(n, n + 3), _ODD_VALUES,
                        _ODD_VALUES.map(lambda v: _nested(v, 3)))
        covers.insert(0, [[0, draw(bad)]])
        return _text(doc)
    if spoil != "none":
        doc[spoil] = draw(st.one_of(_ODD_VALUES, st.integers(-2, 2)))
    return _text(doc)


_FILE_COMMANDS = st.sampled_from([["axioms"], ["complete"], ["reflect"], ["locale", "build"],
                                  ["locale", "points"], ["locale", "roundtrip"]])


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    elapsed = time.perf_counter() - started
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert elapsed < 2.0, f"{elapsed:.2f} s"
    return code


@_FUZZ
@given(text=space_files(), command=_FILE_COMMANDS)
def test_space_files(tmp_path_factory, text, command):
    path = tmp_path_factory.mktemp("fuzz") / "space.json"
    path.write_text(text, encoding="utf-8")
    try:
        spacefile.parse_spacefile(text)
        refused = False
    except spacefile.SpaceFileError:
        refused = True
    # any other exception escapes and fails the test: a refusal must be
    # a SpaceFileError, so that the CLI maps it to exit 2
    assert (_run([*command, str(path)]) == 2) == refused


_LITERALS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(0, 99), st.integers(0, 10**6)).map(lambda p: f"{p[0]}.{p[1]}"),
    st.sampled_from([1, 40, 4300, 4301, 5000]).map(lambda d: "1" * d),
)
_ATOMS = st.one_of(
    _LITERALS,
    st.just("limit(inv_n)"),
    st.sampled_from(["1/2", "-9/10", "99/100", "1", "9999/10000"]).map(
        lambda r: f"limit(geometric; {r})"),
)


def _combine(inner):
    pair = st.tuples(inner, inner)
    return st.one_of(
        pair.map(lambda p: f"({p[0]} + {p[1]})"),
        pair.map(lambda p: f"({p[0]} - {p[1]})"),
        pair.map(lambda p: f"({p[0]} * {p[1]})"),
        pair.map(lambda p: f"({p[0]}) / ({p[1]})"),
        inner.map(lambda e: f"-{e}"),
        inner.map(lambda e: f"exp({e})"),
        st.tuples(inner, st.sampled_from(["1/10", "1/1000", "0", "-1"])).map(
            lambda p: f"inv({p[0]}; {p[1]})"),
        # a divisor within 10^-k of zero, or exactly zero
        st.tuples(inner, inner, st.sampled_from([1, 12, 40, 100])).map(
            lambda p: f"({p[0]}) / (({p[1]}) - ({p[1]}) + 1/{10 ** p[2]})"),
        pair.map(lambda p: f"({p[0]}) / (({p[1]}) - ({p[1]}))"),
    )


@st.composite
def expressions(draw) -> str:
    e = draw(st.recursive(_ATOMS, _combine, max_leaves=6))
    depth = draw(st.sampled_from([0, 0, 0, 50, 98, 99, 100, 101, 300]))
    wrap = draw(st.sampled_from(["({})", "-{}", "exp({})", "({} + 0)"]))
    for _ in range(depth):
        e = wrap.format(e)
    return e


def _parser_refuses(text: str, eps: str) -> bool:
    try:
        realexpr.parse_eps(eps, cli.MAX_EPS_EXPONENT)
        realexpr.Parser(text).parse()
    except realexpr.ExprError:
        return True
    return False


@settings(_FUZZ, max_examples=150)
@given(text=expressions(), eps=st.sampled_from(["1", "1/1000", "1e-12", "1e-50", "0", "1e-x"]),
       bounds=st.booleans())
def test_expressions(text, eps, bounds):
    # after "--", so that argparse reads an expression starting with "-" as
    # the expression rather than as an option
    code = _run(["real", "eval", "--eps", eps, *(["--bounds"] if bounds else []), "--", text])
    if _parser_refuses(text, eps):
        assert code == 2
    elif code == 2:
        # past the parser, only evaluation's own refusals exit 2: a divisor
        # equal to zero or with no apartness witness, a bad limit argument
        try:
            realexpr.evaluate(realexpr.Parser(text).parse())
        except realexpr.ExprError:
            pass
        else:
            raise AssertionError("exit 2 on an expression the parser and evaluation accept")


@settings(_FUZZ, max_examples=25)
@given(form=st.sampled_from(["limit(geometric; {})", "exp({})", "exp(-{})",
                             "limit(geometric; -{})"]),
       digits=st.sampled_from([4000, 300, 40, 2]),
       eps=st.sampled_from(["1e-20000", "1e-3000", "1e-1000", "1e-300", "1e-50"]))
def test_series_of_long_decimals(form, digits, eps):
    # the ratio or exponent 0.333...3; its bits multiply the work of every
    # term, so the walk's budget must count them, not only the terms
    assert _run(["real", "eval", form.format("0." + "3" * (digits - 1)), "--eps", eps]) in (0, 1)
