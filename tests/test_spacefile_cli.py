import json
import re
import time
import types
from fractions import Fraction as F

import pytest

from coverlab import cauchy, cli, realexpr, spacefile
from coverlab.finkernel import Subset


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
        assert cli._parse_eps("1e-100000") == F(1, 10**100000)
        assert cli._parse_eps("1E+0_5") == F(10**5)
        with pytest.raises(realexpr.ExprError, match="exponent"):
            cli._parse_eps("1e-100001")

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
