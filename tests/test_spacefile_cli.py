import collections
import json
import random
import re
import sys
import time
import types
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from coverlab import cauchy, cli, realexpr, spacefile
from coverlab.finkernel import Subset, points_of
from helpers import parse_spacefile_oracle


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


DISCRETE2 = {"format": 1, "carrier": 2, "covers": [[[0], [1]]]}
INDISCRETE2 = {"format": 1, "carrier": 2, "covers": [[[0, 1]]]}
PRECOVER = {"format": 1, "carrier": 3, "covers": [[[0, 1], [1, 2]]]}
BLOCKS = {"format": 1, "carrier": 3, "covers": [[[0], [1, 2]]]}


class TestSpaceFile:
    def test_parse_emit_round_trip_is_identity(self):
        for doc in (DISCRETE2, INDISCRETE2, PRECOVER, BLOCKS):
            sf = spacefile.parse_spacefile(json.dumps(doc))
            emitted = spacefile.emit_spacefile(sf)
            assert spacefile.parse_spacefile(emitted) == sf
            assert spacefile.parse_spacefile(spacefile.emit_spacefile(
                spacefile.parse_spacefile(emitted)
            )) == sf

    def test_parse_errors_carry_paths(self):
        with pytest.raises(spacefile.SpaceFileError, match="format"):
            spacefile.parse_spacefile('{"carrier": 2, "covers": []}')
        with pytest.raises(spacefile.SpaceFileError, match=r"covers\[0\]\[0\]\[1\]"):
            spacefile.parse_spacefile(
                '{"format": 1, "carrier": 2, "covers": [[[0, 5]]]}'
            )
        with pytest.raises(spacefile.SpaceFileError, match="JSON"):
            spacefile.parse_spacefile("{nope")

    def test_covers_valid_witness(self):
        sf = spacefile.parse_spacefile(
            '{"format": 1, "carrier": 3, "covers": [[[0], [1]]]}'
        )
        ok, witness = spacefile.covers_valid(sf)
        assert not ok and witness == {"cover": 0, "missing_points": [2]}

    def test_to_space(self):
        sf = spacefile.parse_spacefile(json.dumps(BLOCKS))
        s = spacefile.to_space(sf)
        assert {m.mask for m in s.generator.members} == {0b001, 0b110}


# every malformed shape the tests here use, and a few more; each is refused
# with the same message by the parser and by parse_spacefile_oracle
MALFORMED = [
    '{"carrier": 2, "covers": []}',
    '{"format": 1, "carrier": 2, "covers": [[[0, 5]]]}',
    "{nope",
    "[" * 5000 + "]" * 5000,
    '{"format": 1, "carrier": true, "covers": [[[0]]]}',
    '{"format": true, "carrier": 1, "covers": [[[0]]]}',
    '{"format": 1, "carrier": 3, "covers": [[[0], [1]], [[0, 9]]]}',
    "[]",
    '"space"',
    '{"format": 2, "carrier": 1, "covers": [[[0]]]}',
    '{"format": "1", "carrier": 1, "covers": [[[0]]]}',
    '{"format": 1, "carrier": 0, "covers": [[[0]]]}',
    '{"format": 1, "carrier": -3, "covers": [[[0]]]}',
    '{"format": 1, "carrier": 2.0, "covers": [[[0]]]}',
    '{"format": 1, "carrier": null, "covers": [[[0]]]}',
    '{"format": 1, "carrier": 1}',
    '{"format": 1, "carrier": 1, "covers": {}}',
    '{"format": 1, "carrier": 1, "covers": [[]]}',
    '{"format": 1, "carrier": 1, "covers": [3]}',
    '{"format": 1, "carrier": 1, "covers": [[[0]], [[0], 7]]}',
    '{"format": 1, "carrier": 2, "covers": [[[1, true]]]}',
    '{"format": 1, "carrier": 2, "covers": [[[0, 1.0]]]}',
    '{"format": 1, "carrier": 2, "covers": [[[-1]]]}',
    '{"format": 1, "carrier": 2, "covers": [[["0"]]]}',
    '{"format": 1, "carrier": 2, "covers": [[[null]]]}',
    '{"format": 1, "carrier": 2, "covers": [[[[0]]]]}',
    '{"format": 1, "carrier": 2, "covers": [[[1000000000000000000000000000000]]]}',
]


def _listing(rng, members):
    """One cover as a file may list it: members in any order, the first
    of them twice, each with its indices reversed and its first repeated."""
    out = [m[::-1] + m[:1] for m in members] + [members[0]]
    rng.shuffle(out)
    return out


class TestParseDifferential:
    """parse_spacefile and covers_valid against the parser that kept each
    subset as a sorted tuple of points."""

    def _check(self, text, round_trip=True):
        n, want = parse_spacefile_oracle(text)
        sf = spacefile.parse_spacefile(text)
        assert sf.carrier == n
        assert [tuple(sorted(tuple(points_of(m)) for m in c)) for c in sf.covers] == list(want)
        for cover, members in zip(sf.covers, want):
            assert list(cover) == sorted(set(cover))  # distinct masks, ascending
            missing = sorted(set(range(n)).difference(*members))
            got = spacefile.covers_valid(spacefile.SpaceFile(n, (cover,)))
            assert got == ((False, {"cover": 0, "missing_points": missing}) if missing
                           else (True, {}))
        if round_trip:
            assert spacefile.parse_spacefile(spacefile.emit_spacefile(sf)) == sf

    def test_every_cover_up_to_four_points(self):
        # each nonempty family of subsets (the empty one too) as one cover
        rng = random.Random(141)
        for n in range(1, 5):
            subsets = [points_of(m) for m in range(1 << n)]
            covers = [_listing(rng, [subsets[i] for i in points_of(family)])
                      for family in range(1, 1 << (1 << n))]
            self._check(json.dumps({"format": 1, "carrier": n, "covers": covers}),
                        round_trip=n < 4)

    def test_seeded_files_five_to_two_hundred_points(self):
        rng = random.Random(142)
        for _ in range(200):
            n = rng.choice([5, 6, 7, 8, 10, 12, 30, 64, 200])
            covers = []
            for _ in range(rng.randint(1, 3)):
                members = [rng.sample(range(n), rng.randint(0, n))
                           for _ in range(rng.randint(1, 12))]
                covers.append(_listing(rng, members))
            self._check(json.dumps({"format": 1, "carrier": n, "covers": covers}))

    @pytest.mark.parametrize("text", MALFORMED, ids=range(len(MALFORMED)))
    def test_same_message_on_malformed_files(self, text):
        with pytest.raises(spacefile.SpaceFileError) as want:
            parse_spacefile_oracle(text)
        with pytest.raises(spacefile.SpaceFileError) as got:
            spacefile.parse_spacefile(text)
        assert str(got.value) == str(want.value)

    def test_carrier_budget_refuses_before_reading_covers(self):
        # the budget comes before the covers, so a bad index past it is not
        # reached; at the budget the same file parses
        limit = spacefile.MAX_CARRIER
        for n in (limit + 1, 10**9, 10**100):
            text = json.dumps({"format": 1, "carrier": n, "covers": [[[0], [-1]]]})
            with pytest.raises(spacefile.SpaceFileError,
                               match=f"carrier {n} is more than {limit} points"):
                spacefile.parse_spacefile(text)
        text = json.dumps({"format": 1, "carrier": limit, "covers": [[[0], [limit - 1]]]})
        assert spacefile.parse_spacefile(text).covers == ((1, 1 << (limit - 1)),)


def _json_containers(inner):
    return (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
            | st.dictionaries(st.text(max_size=5), inner, max_size=4))


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10**60, 10**60)
                 | st.floats() | st.text())
# nested lists, tuples and dicts of scalars, non-ASCII and control
# characters, large ints, and floats with nan and the infinities among them
_JSON_DOCUMENTS = _json_containers(st.recursive(_JSON_SCALARS, _json_containers,
                                                max_leaves=30))


class TestJsonText:
    """spacefile.json_text writes what json.dumps(doc, indent=2) writes."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_JSON_DOCUMENTS)
    def test_matches_json_dumps(self, doc):
        assert spacefile.json_text(doc) == json.dumps(doc, indent=2)

    def test_edge_cases(self):
        docs = [
            {}, [], (), [[]], [{}], {"a": {}, "b": [], "c": [[], {}]},
            [True, 1, False, 0, None, 1.0, 0.0, -0.0],
            ["é", "\u2028", "\x00\x1f\x7f", '"\\/', "\ud83d\ude00", "\U0001f600"],
            {"": 1, "é\n": "x", "\t": [True]},
            [10**4000, -(10**4000), 2**63, 1e308, -1e-308, 5e-324, 1.5, 1e16, 123456789.125],
            [float("nan"), float("inf"), float("-inf")],
            ((1, (2, [3])), {"k": (4,)}),
        ]
        for doc in docs:
            assert spacefile.json_text(doc) == json.dumps(doc, indent=2), doc

    def test_subclass_containers_print_as_json_does(self):
        class Dict(dict):
            pass

        class List(list):
            pass

        Point = collections.namedtuple("Point", "x y")
        docs = [
            collections.OrderedDict([("b", 1), ("a", [2, collections.OrderedDict()])]),
            Dict(a=List([1, Dict(b=Point(1, 2))]), c=Dict()),
            List([Point(1, [Dict(k=List())]), List(), Point((), None)]),
            {"p": Point(x={"k": "v"}, y=[Point(0.5, True)])},
        ]
        for doc in docs:
            assert spacefile.json_text(doc) == json.dumps(doc, indent=2), doc

    def test_key_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(spacefile, "_KEY_TEXT", {})
        # a key met before answers only for itself
        for doc in ({"check": "x", "verdict": "y", "k\u00e9\n": 1, "ms": 0.5},
                    {"Check": 1, "CHECK": [{"check ": 2, "chec": 3}], "k\u00c9\n": 4}):
            assert spacefile.json_text(doc) == json.dumps(doc, indent=2)
        doc = {f"key {i}": [i, {f"inner {i}": i}] for i in range(10_000)}
        assert spacefile.json_text(doc) == json.dumps(doc, indent=2)
        table = spacefile._KEY_TEXT
        assert len(table) == spacefile.MAX_KEY_TEXTS
        assert all(text == json.dumps(key) + ": " for key, text in table.items())

    def test_refuses_what_json_refuses(self):
        for doc in ({1, 2}, {"a": object()}, [b"bytes"], [F(1, 2)]):
            with pytest.raises(TypeError):
                json.dumps(doc, indent=2)
            with pytest.raises(TypeError):
                spacefile.json_text(doc)
        # past the interpreter's int-to-str digit limit both raise ValueError
        for doc in ([10**5000], {"n": -(10**5000)}):
            with pytest.raises(ValueError):
                json.dumps(doc, indent=2)
            with pytest.raises(ValueError):
                spacefile.json_text(doc)


class TestCliAxioms:
    def test_discrete_all_pass(self, tmp_path, capsys):
        code = cli.main(["axioms", write(tmp_path, "d2.json", DISCRETE2)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert all(r["verdict"] == "pass" for r in doc["reports"])
        assert {r["check"] for r in doc["reports"]} == {
            "covers_valid",
            "regularity_cr",
            "strong_regularity",
            "separated",
            "complete",
            "proper",
        }

    def test_indiscrete_separation_witness_rechecks(self, tmp_path, capsys):
        code = cli.main(["axioms", write(tmp_path, "i2.json", INDISCRETE2)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        fail = next(r for r in doc["reports"] if r["check"] == "separated")
        x, y = fail["witness"]["points"]
        s = spacefile.to_space(spacefile.parse_spacefile(json.dumps(INDISCRETE2)))
        assert cauchy.point_equiv(s, x, y) and x != y

    def test_cr_witness_rechecks(self, tmp_path, capsys):
        code = cli.main(["axioms", write(tmp_path, "p.json", PRECOVER)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        fail = next(r for r in doc["reports"] if r["check"] == "regularity_cr")
        s = spacefile.to_space(spacefile.parse_spacefile(json.dumps(PRECOVER)))
        w = Subset.of(s.carrier, fail["witness"]["generator_member"])
        from coverlab.coverspace import rather_below

        assert w in s.generator.members
        assert not any(rather_below(s, w, u) for u in s.generator.members)

    @pytest.mark.parametrize("doc, code, witnesses", [
        ({"format": 1, "carrier": 3, "covers": [[[0], [1], [2]]]}, 0, {}),
        (PRECOVER, 1, {
            "regularity_cr": {"generator_member": [0, 1]},
            "strong_regularity": {"generator_member": [0, 1]},
            "separated": {"points": [0, 1]},
            "complete": {"reason": "not separated", "points": [0, 1]},
        }),
    ])
    def test_report_bytes_are_pinned(self, tmp_path, capsys, monkeypatch, doc, code, witnesses):
        # the exact text printed before witnesses became lazy, with the clock fixed
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
        assert cli.main(["axioms", write(tmp_path, "s.json", doc)]) == code
        reports = []
        for check in ("covers_valid", "regularity_cr", "strong_regularity",
                      "separated", "complete", "proper"):
            r = {"check": check, "verdict": "fail" if check in witnesses else "pass"}
            if check in witnesses:
                r["witness"] = witnesses[check]
            reports.append({**r, "ms": 0.0})
        want = {"carrier": doc["carrier"], "reports": reports}
        assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"

    def test_witnesses_only_searched_on_failure(self, tmp_path, capsys, monkeypatch):
        def refuse(s):
            raise AssertionError("witness searched for a passing check")

        monkeypatch.setattr(cli, "_cr_witness", refuse)
        monkeypatch.setattr(cli, "_separation_witness", refuse)
        doc = {"format": 1, "carrier": 12, "covers": [[[i] for i in range(12)]]}
        assert cli.main(["axioms", write(tmp_path, "d12.json", doc)]) == 0

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"format": 1, "carrier": 2, "covers": [[[0, 9]]]}')
        assert cli.main(["axioms", str(p)]) == 2
        assert "covers[0][0][1]" in capsys.readouterr().err

    def test_noncovering_cover_reports_fail(self, tmp_path, capsys):
        doc = {"format": 1, "carrier": 3, "covers": [[[0], [1]]]}
        code = cli.main(["axioms", write(tmp_path, "nc.json", doc)])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["reports"][0]["check"] == "covers_valid"
        assert out["reports"][0]["witness"]["missing_points"] == [2]


class TestHostileFiles:
    """Malformed files are parse errors, exit 2 with a message and no
    traceback."""

    def _axioms(self, tmp_path, capsys, data: bytes):
        p = tmp_path / "hostile.json"
        p.write_bytes(data)
        code = cli.main(["axioms", str(p)])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    def test_deep_nesting(self, tmp_path, capsys):
        code, err = self._axioms(tmp_path, capsys, b"[" * 5000 + b"]" * 5000)
        assert code == 2 and "nested too deeply" in err

    @pytest.mark.parametrize("shape, at_the_bound", [
        ("[%s]", "top level must be an object"),
        ('{"format": 1, "carrier": 1, "covers": %s}', "covers[0][0][0]: index [[[[["),
        ('{"format": 1, "carrier": 1, "covers": [[[0]]], "x": %s}', None),
    ], ids=["top", "covers", "unread-key"])
    def test_nesting_bound(self, shape, at_the_bound):
        # one level past MAX_NESTING is refused with one message, whether or
        # not this interpreter's json.loads reads it; at the bound the file
        # parses or gets its own message
        def text(depth):
            return shape % ("[" * (depth - 1) + "]" * (depth - 1))

        limit = spacefile.MAX_NESTING
        with pytest.raises(spacefile.SpaceFileError, match="^JSON nested too deeply$"):
            spacefile.parse_spacefile(text(limit + 1))
        if at_the_bound is None:
            assert spacefile.parse_spacefile(text(limit)).carrier == 1
        else:
            with pytest.raises(spacefile.SpaceFileError) as got:
                spacefile.parse_spacefile(text(limit))
            assert str(got.value).startswith(at_the_bound)

    @pytest.mark.parametrize("text, line", [
        ('{"format": 1,\r"carrier": 1,\r"covers": [[[0]]],\r}\r', 4),
        ('{"format": 1,\r\n"carrier": 1,\r\n"covers": [[[0]]],\r\n}\r\n', 4),
        ('{"format": 1,\r"carrier": 1,\r\n"covers": [[[0]]]\n,\r}', 5),
    ], ids=["cr", "crlf", "mixed"])
    def test_line_ends_count_as_text_mode_reads_them(self, tmp_path, capsys, text, line):
        # \r and \r\n each end one line, so a JSON error keeps its line number
        code, err = self._axioms(tmp_path, capsys, text.encode())
        assert code == 2 and err == f"error: not valid JSON at line {line} column 1\n"

    def test_not_utf8(self, tmp_path, capsys):
        code, err = self._axioms(tmp_path, capsys, b"\xff\xfe")
        assert code == 2 and "UTF-8" in err

    def test_boolean_carrier(self, tmp_path, capsys):
        doc = {"format": 1, "carrier": True, "covers": [[[0]]]}
        code, err = self._axioms(tmp_path, capsys, json.dumps(doc).encode())
        assert code == 2 and "carrier must be a positive integer" in err

    def test_boolean_format(self, tmp_path, capsys):
        doc = {"format": True, "carrier": 1, "covers": [[[0]]]}
        code, err = self._axioms(tmp_path, capsys, json.dumps(doc).encode())
        assert code == 2 and "format must be 1" in err

    @pytest.mark.parametrize("where", ["index", "carrier"])
    def test_integer_past_the_digit_limit(self, tmp_path, capsys, where):
        # json.loads raises a plain ValueError there, not a JSONDecodeError
        big = "9" * 5000
        text = ('{"format": 1, "carrier": 1, "covers": [[[%s]]]}' % big if where == "index"
                else '{"format": 1, "carrier": %s, "covers": [[[0]]]}' % big)
        code, err = self._axioms(tmp_path, capsys, text.encode())
        assert code == 2
        assert err == f"error: integer literal of more than {sys.get_int_max_str_digits()} digits\n"

    @pytest.mark.parametrize("doc", [
        {"format": 1, "carrier": 2, "covers": [[["x" * 100_000]]]},
        {"format": 1, "carrier": "x" * 100_000, "covers": [[[0]]]},
        {"format": ["x"] * 100_000, "carrier": 1, "covers": [[[0]]]},
        {"format": 1, "carrier": 2, "covers": [[[{"k": list(range(50_000))}]]]},
    ], ids=["index", "carrier", "format", "nested-index"])
    def test_quoted_values_are_cut(self, tmp_path, capsys, doc):
        # the message shows the start of a long value and its length
        code, err = self._axioms(tmp_path, capsys, json.dumps(doc).encode())
        assert code == 2 and len(err) < 200 and "characters)" in err

    def test_short_values_quoted_whole(self):
        doc = {"format": 1, "carrier": 2, "covers": [[["x" * 78]]]}
        with pytest.raises(spacefile.SpaceFileError) as got:
            spacefile.parse_spacefile(json.dumps(doc))
        assert str(got.value) == f"covers[0][0][0]: index {'x' * 78!r} outside 0..1"


@pytest.mark.parametrize("argv", [
    ["complete"], ["reflect"],
    ["locale", "build"], ["locale", "points"], ["locale", "roundtrip"],
], ids="-".join)
def test_noncovering_cover_reports_fail_on_every_subcommand(
    tmp_path, capsys, monkeypatch, argv
):
    # the same covers_valid report as axioms gives, in place of a failure
    # inside the Cover constructor
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    path = write(tmp_path, "nc.json", {"format": 1, "carrier": 3, "covers": [[[0], [1]]]})
    assert cli.main([*argv, path]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"reports": [{
        "check": "covers_valid",
        "verdict": "fail",
        "witness": {"cover": 0, "missing_points": [2]},
        "ms": 0.0,
    }]}
    assert cli.main(["axioms", path]) == 1
    assert capsys.readouterr().out == captured.out


class TestCliComplete:
    def test_indiscrete_collapses(self, tmp_path, capsys):
        doc = {"format": 1, "carrier": 3, "covers": [[[0, 1, 2]]]}
        code = cli.main(["complete", write(tmp_path, "i3.json", doc)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["space"]["carrier"] == 1
        assert out["unit"] == [0, 0, 0]

    def test_discrete_isomorphic(self, tmp_path, capsys):
        doc = {"format": 1, "carrier": 3, "covers": [[[0], [1], [2]]]}
        cli.main(["complete", write(tmp_path, "d3.json", doc)])
        out = json.loads(capsys.readouterr().out)
        assert out["space"]["carrier"] == 3
        assert sorted(out["unit"]) == [0, 1, 2]

    def test_precover_reflects_first(self, tmp_path, capsys):
        code = cli.main(["complete", write(tmp_path, "p.json", PRECOVER)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["reflected"] is True
        assert out["space"]["carrier"] == 1
        assert out["points"] == [[0, 1, 2]]

    def test_output_file_round_trips(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        cli.main(
            ["complete", write(tmp_path, "b.json", BLOCKS), "--out", str(target)]
        )
        capsys.readouterr()
        sf = spacefile.parse_spacefile(target.read_text())
        assert sf.carrier == 2  # two blocks


class TestFilePaths:
    """What the CLI prints when the input or --out path is not a file it
    can read or write: open()'s message, which names the path, and exit 2."""

    def _run(self, capsys, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    def test_missing_input(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        assert self._run(capsys, ["axioms", path]) == (
            2, f"error: [Errno 2] No such file or directory: {path!r}\n")

    def test_directory_as_input(self, tmp_path, capsys):
        assert self._run(capsys, ["axioms", str(tmp_path)]) == (
            2, f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n")

    def test_out_into_a_missing_directory(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "out.json")
        assert self._run(capsys, ["complete", write(tmp_path, "d.json", DISCRETE2),
                                  "--out", out]) == (
            2, f"error: [Errno 2] No such file or directory: {out!r}\n")

    def test_out_naming_a_directory(self, tmp_path, capsys):
        out = tmp_path / "dir"
        out.mkdir()
        assert self._run(capsys, ["reflect", write(tmp_path, "d.json", DISCRETE2),
                                  "--out", str(out)]) == (
            2, f"error: [Errno 21] Is a directory: {str(out)!r}\n")

    @pytest.mark.parametrize("command", ["complete", "reflect"])
    def test_longer_out_file_is_truncated(self, tmp_path, capsys, command):
        target = tmp_path / "out.json"
        target.write_bytes(b"x" * 5000)
        code = cli.main([command, write(tmp_path, "b.json", BLOCKS), "--out", str(target)])
        printed = json.loads(capsys.readouterr().out)
        assert code == 0
        assert target.read_bytes() == (json.dumps(printed["space"], indent=2) + "\n").encode()

    def test_input_read_in_several_chunks(self, tmp_path, capsys):
        # the document follows 200 KiB of blanks and is read whole; a wide
        # discrete file is longer than one chunk too
        path = tmp_path / "padded.json"
        path.write_bytes(b" " * 200 * 1024 + json.dumps(DISCRETE2).encode())
        assert cli.main(["axioms", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["carrier"] == 2
        doc = {"format": 1, "carrier": 9000, "covers": [[[x] for x in range(9000)]]}
        path = write(tmp_path, "wide.json", doc)
        assert (tmp_path / "wide.json").stat().st_size > 64 * 1024
        assert cli.main(["complete", path]) == 0
        assert json.loads(capsys.readouterr().out)["space"]["carrier"] == 9000


class TestCliSizeGuards:
    def test_guard_blocks_large_carrier(self, tmp_path, capsys):
        doc = {
            "format": 1,
            "carrier": 13,
            "covers": [[[x] for x in range(13)]],
        }
        path = write(tmp_path, "big.json", doc)
        # no guard applies: the completion enumerates nothing
        assert cli.main(["complete", path]) == 0
        assert json.loads(capsys.readouterr().out)["space"]["carrier"] == 13

    def test_override_allows_it_with_warning(self, tmp_path, capsys):
        doc = {
            "format": 1,
            "carrier": 13,
            "covers": [[[x] for x in range(13)]],
        }
        path = write(tmp_path, "big.json", doc)
        # no guard is left to override, and the option went with it
        code = cli.main(["--max-carrier", "13", "complete", path])
        captured = capsys.readouterr()
        assert code == 2
        assert "warning" not in captured.err
        assert captured.out == ""


class TestCliReflect:
    def test_reflects_precover(self, tmp_path, capsys):
        code = cli.main(["reflect", write(tmp_path, "p.json", PRECOVER)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["space"] == {"format": 1, "carrier": 3, "covers": [[[0, 1, 2]]]}


class TestCliLocale:
    def test_build(self, tmp_path, capsys):
        code = cli.main(["locale", "build", write(tmp_path, "d2.json", DISCRETE2)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["elements"] == 4

    def test_build_counts_past_sys_maxsize(self, tmp_path, capsys):
        doc = {"format": 1, "carrier": 70, "covers": [[[x] for x in range(70)]]}
        code = cli.main(["locale", "build", write(tmp_path, "d70.json", doc)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["elements"] == 2 ** 70

    def test_points(self, tmp_path, capsys):
        code = cli.main(["locale", "points", write(tmp_path, "d2.json", DISCRETE2)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["count"] == 2

    def test_points_listed_by_atom_mask(self, tmp_path, capsys):
        # each point prints the carrier minus one point of every other atom
        doc = {"format": 1, "carrier": 4, "covers": [[[0, 3], [1], [2]]]}
        code = cli.main(["locale", "points", write(tmp_path, "p.json", doc)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["count"] == 3
        assert out["points"] == [[[0, 1], [1, 3]], [[0, 2], [2, 3]], [[0, 3]]]

    def test_points_output_bound(self, tmp_path, capsys):
        pairs = {"format": 1, "carrier": 20, "covers": [[[2 * i, 2 * i + 1] for i in range(10)]]}
        assert cli.main(["locale", "points", write(tmp_path, "p10.json", pairs)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert sum(len(p) for p in out["points"]) == 10 * 2**9
        pairs = {"format": 1, "carrier": 200, "covers": [[[2 * i, 2 * i + 1] for i in range(100)]]}
        started = time.perf_counter()
        assert cli.main(["locale", "points", write(tmp_path, "p100.json", pairs)]) == 1
        assert time.perf_counter() - started < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and str(100 * 2**99) in captured.err

    def test_printed_points_bound(self, tmp_path, capsys):
        # 2,000 subsets, under MAX_POINT_SUBSETS, of 1,999 points each
        blocks = {"format": 1, "carrier": 2000,
                  "covers": [[list(range(1000)), list(range(1000, 2000))]]}
        started = time.perf_counter()
        assert cli.main(["locale", "points", write(tmp_path, "b.json", blocks)]) == 1
        assert time.perf_counter() - started < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: locale points would print 3998000 points in its "
                                f"maximal subsets, more than {cli.MAX_POINTS_PRINTED}\n")
        # at the budget: two blocks of 500 print 1,000 subsets of 999 points
        blocks = {"format": 1, "carrier": 1000,
                  "covers": [[list(range(500)), list(range(500, 1000))]]}
        assert 1000 * 999 <= cli.MAX_POINTS_PRINTED
        assert cli.main(["locale", "points", write(tmp_path, "b.json", blocks)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert sum(len(u) for p in out["points"] for u in p) == 1000 * 999

    def test_roundtrip_discrete(self, tmp_path, capsys):
        code = cli.main(["locale", "roundtrip", write(tmp_path, "d2.json", DISCRETE2)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["isomorphism"] is True

    def test_roundtrip_discrete_five_points(self, tmp_path, capsys):
        doc = {"format": 1, "carrier": 5, "covers": [[[x] for x in range(5)]]}
        code = cli.main(["locale", "roundtrip", write(tmp_path, "d5.json", doc)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["isomorphism"] is True
        assert out["point_count"] == 5

    def test_seven_points_exceed_ideal_guard(self, tmp_path, capsys):
        # frames are no longer guarded: discrete 7 gives the 2^7 Boolean frame
        doc = {"format": 1, "carrier": 7, "covers": [[[x] for x in range(7)]]}
        code = cli.main(["locale", "build", write(tmp_path, "d7.json", doc)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["elements"] == 128

    def test_roundtrip_honours_max_carrier(self, tmp_path, capsys):
        # --max-carrier is gone, so passing it is a usage error
        doc = {"format": 1, "carrier": 5, "covers": [[[x] for x in range(5)]]}
        path = write(tmp_path, "d5.json", doc)
        code = cli.main(["--max-carrier", "4", "locale", "roundtrip", path])
        assert code == 2
        assert "usage:" in capsys.readouterr().err

    def test_roundtrip_precondition_failure(self, tmp_path, capsys):
        code = cli.main(["locale", "roundtrip", write(tmp_path, "p.json", PRECOVER)])
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and out["isomorphism"] is False
        failed = {r["check"] for r in out["reports"] if r["verdict"] == "fail"}
        assert "space_strongly_complete" in failed


class TestCliReal:
    def test_eval_prints_decimal(self, capsys):
        code = cli.main(["real", "eval", "1/3 + 1/6", "--eps", "1/1000000"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "0.500000 ± 1/1000000"

    def test_eval_exp(self, capsys):
        code = cli.main(["real", "eval", "exp(1)", "--eps", "1e-9"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out.startswith("2.718281828")

    def test_parse_error_exit_2(self, capsys):
        assert cli.main(["real", "eval", "1 +", "--eps", "1/10"]) == 2

    def test_bad_precision_exit_2(self, capsys):
        assert cli.main(["real", "eval", "1", "--eps", "zero"]) == 2
        assert cli.main(["real", "eval", "1", "--eps=-1/10"]) == 2

    @pytest.mark.parametrize("eps", ["1e999999999", "1e-999999999"])
    def test_huge_precision_exponent_exit_2(self, capsys, eps):
        started = time.perf_counter()
        assert cli.main(["real", "eval", "1", "--eps", eps]) == 2
        assert time.perf_counter() - started < 1.0
        assert "exponent" in capsys.readouterr().err

    def test_precision_exponent_bound(self):
        limit = cli.MAX_EPS_EXPONENT
        assert realexpr.parse_eps("1e-100000", limit) == F(1, 10**100000)
        assert realexpr.parse_eps("1E+0_5", limit) == F(10**5)
        with pytest.raises(realexpr.ExprError, match="exponent"):
            realexpr.parse_eps("1e-100001", limit)

    def test_apartness_failure_exit_1(self, capsys):
        assert cli.main(["real", "eval", "inv(0; 1/4)", "--eps", "1/10"]) == 1

    def test_long_literal_exit_2(self, capsys):
        limit = realexpr.MAX_LITERAL_DIGITS
        for text in ("1" * (limit + 1) + "/3", "1." + "1" * limit, "inv(2; 1" + "0" * limit + ")"):
            assert cli.main(["real", "eval", text, "--eps", "1"]) == 2
            err = capsys.readouterr().err
            assert f"more than {limit} digits" in err and "Traceback" not in err

    def test_literal_at_the_digit_limit_answers(self, capsys):
        limit = realexpr.MAX_LITERAL_DIGITS
        for text in ("9" * limit + "/" + "9" * limit, "0." + "9" * (limit - 1)):
            assert cli.main(["real", "eval", text, "--eps", "1/10"]) == 0
            assert capsys.readouterr().out.strip() == "1.0 ± 1/10"


class TestCliDemo:
    def test_heine_borel(self, capsys):
        code = cli.main(["demo", "heine-borel", "--eps", "3/10"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(out["selected"]) <= out["size_bound"] == 5
        assert out["gap_witness"] is not None

    def test_net_budget_refuses_before_building(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the net was built past the budget")

        monkeypatch.setattr(cli.xreal, "epsilon_net", refuse)
        monkeypatch.setattr(cli.xreal, "ball_cover", refuse)
        assert cli.MAX_NET_POINTS == 100_000
        for eps in ("1/100000", "1e-9", "2/199999"):
            assert cli.main(["demo", "heine-borel", "--eps", eps]) == 1
            err = capsys.readouterr().err
            assert f"more than {cli.MAX_NET_POINTS}" in err and "Traceback" not in err


_MS_FIELD = re.compile(r'"ms": [0-9.e+-]+')


class TestCliParserOnce:
    def _session(self, tmp_path, capsys):
        space = write(tmp_path, "p.json", PRECOVER)
        out = str(tmp_path / "out.json")
        calls = [
            ["axioms", space],
            ["complete", space, "--out", out],
            ["reflect", space],
            ["locale", "build", space],
            ["locale", "points", space],
            ["locale", "roundtrip", space],
            ["real", "eval", "exp(1/3) * 2", "--eps", "1e-12", "--bounds"],
            ["locale", "spin", space],  # usage error
            ["demo", "heine-borel", "--eps", "1/7"],
            [],  # usage error: no subcommand
            ["real", "eval", "1 +", "--eps", "1"],  # parse error
            ["axioms", space],
        ]
        got = []
        for argv in calls:
            code = cli.main(argv)
            captured = capsys.readouterr()
            got.append((code, _MS_FIELD.sub("", captured.out), captured.err))
        return got

    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reused_parser_answers_as_fresh_ones(self, tmp_path, capsys, monkeypatch):
        reused = self._session(tmp_path, capsys)
        assert [code for code, _, _ in reused] == [1, 0, 0, 0, 0, 1, 0, 2, 0, 2, 2, 1]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert cli.build_parser() is not cli.build_parser()
        assert self._session(tmp_path, capsys) == reused
