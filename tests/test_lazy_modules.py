"""What a call executes, and the package surface that lazy loading keeps.

Each case runs in its own interpreter, since a module once executed stays
so.  A module has executed when its class is ``types.ModuleType``; before
that it is ``importlib.util.LazyLoader``'s placeholder."""

import json
import os
import subprocess
import sys

import pytest

import coverlab
from bounded_time import BOUNDED_TIME
from coverlab import cauchy, coverspace, finkernel, locales, xreal

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
ENV = {**os.environ, "PYTHONPATH": SRC}
FINITE = {"finkernel", "coverspace", "cauchy", "locales", "spacefile"}
REAL = {"realexpr", "xreal"}

PROBE = """
import contextlib, io, json, sys, types
from coverlab import cli
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
ran = [name[len("coverlab."):] for name, m in sys.modules.items()
       if name.startswith("coverlab.") and type(m) is types.ModuleType]
print(json.dumps({"code": code, "ran": sorted(ran), "fractions": "fractions" in sys.modules}))
"""


def probe(argv) -> dict:
    run = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)], capture_output=True,
                         text=True, env=ENV, timeout=60)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def space(tmp_path, data: bytes) -> str:
    path = tmp_path / "space.json"
    path.write_bytes(data)
    return str(path)


def row_argv(tmp_path, row: str) -> tuple[list[str], int]:
    argv, data, code = BOUNDED_TIME[row]
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    return (argv if data is None else [*argv, space(tmp_path, data)]), code


DISCRETE_3 = b'{"format": 1, "carrier": 3, "covers": [[[0], [1], [2]]]}'


class TestWhatACallExecutes:
    def test_importing_cli_executes_no_other_module(self):
        assert probe(None)["ran"] == ["cli"]

    def test_real_eval_executes_only_the_real_half(self):
        got = probe(["real", "eval", "exp(1)*2", "--eps", "1e-6", "--bounds"])
        assert got["code"] == 0 and got["ran"] == ["cli", "realexpr", "xreal"]

    def test_heine_borel_executes_no_finite_layer(self):
        got = probe(["demo", "heine-borel", "--eps", "1/10"])
        assert got["code"] == 0 and not set(got["ran"]) & (FINITE - {"spacefile"})

    @pytest.mark.parametrize("argv", [["axioms"], ["complete", "--out", "OUT"],
                                      ["reflect", "--out", "OUT"]])
    def test_finite_decisions_leave_reals_locales_and_fractions_out(self, tmp_path, argv):
        argv = [a.replace("OUT", str(tmp_path / "out.json")) for a in argv]
        got = probe([*argv, space(tmp_path, DISCRETE_3)])
        assert got["code"] == 0 and {"finkernel", "spacefile"} <= set(got["ran"])
        assert not set(got["ran"]) & (REAL | {"locales"}) and not got["fractions"]

    @pytest.mark.parametrize("action", ["build", "points", "roundtrip"])
    def test_locale_actions_leave_the_real_half_out(self, tmp_path, action):
        got = probe(["locale", action, space(tmp_path, DISCRETE_3)])
        assert got["code"] == 0 and "locales" in got["ran"] and not set(got["ran"]) & REAL

    @pytest.mark.parametrize("row", ["input-missing", "not-utf8", "carrier-true", "deep-nesting",
                                     "meets-30-points-four-covers-of-31"])
    def test_finite_error_rows_leave_reals_locales_and_fractions_out(self, tmp_path, row):
        argv, code = row_argv(tmp_path, row)
        got = probe(argv)
        assert got["code"] == code
        assert not set(got["ran"]) & (REAL | {"locales"}) and not got["fractions"]

    @pytest.mark.parametrize("row", ["eps-1e999999999", "apartness-at-the-floor"])
    def test_real_error_rows_execute_no_finite_module(self, tmp_path, row):
        argv, code = row_argv(tmp_path, row)
        got = probe(argv)
        assert got["code"] == code and not set(got["ran"]) & FINITE


# the names the package re-exported when its __init__ imported every module
EXPORTED = {
    finkernel: "Carrier CarrierMismatchError Cover FiniteCoverSpace Subset canonicalize discrete "
               "indiscrete meet product refines space_from_cover space_from_masks transfer",
    coverspace: "FiniteTopology RegularityError SubbasePresentation close_subbase from_topology "
                "is_cauchy is_cover_map is_embedding is_proper is_strongly_regular "
                "rather_below regular_reflection satisfies_cr strongly_rather_below to_topology",
    cauchy: "CompletionSpace PrincipalFilter completion dense_lift filters_equivalent "
            "finite_subcover is_cauchy_filter is_complete is_separated point_equiv "
            "regular_representative strong_completion",
    locales: "FiniteLocale LocalePoint basic_open locale_of_space locale_points point_space "
             "verify_equivalence",
    xreal: "ConvergentSeq CutLocator Real RInterval add cut_of_real epsilon_net find_apartness "
           "inv limit limit_at_zero mul neg real_of_cut real_of_rat sub sum_series "
           "uniform_convergence_check",
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names.split()]


class TestPackageSurface:
    @pytest.mark.parametrize("module,name", NAMES, ids=[name for _, name in NAMES])
    def test_each_name_is_its_modules_object(self, module, name):
        scope = {}
        exec(f"from coverlab import {name} as got", scope)
        assert getattr(coverlab, name) is scope["got"] is getattr(module, name)

    def test_dir_lists_every_name(self):
        names = {name for _, name in NAMES}
        assert len(names) == len(NAMES) == 66 and names <= set(dir(coverlab))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            coverlab.no_such_name  # noqa: B018
        assert not hasattr(coverlab, "cli_main")

    def test_a_module_imported_first_stays_the_only_copy(self):
        program = "\n".join([
            "import sys",
            "import coverlab.finkernel as first",
            "from coverlab import cli",
            "assert cli.finkernel is first is sys.modules['coverlab.finkernel']",
            # the package imported again keeps the modules already there
            "carrier = first.Carrier",
            "del sys.modules['coverlab']",
            "import coverlab",
            "assert coverlab.finkernel is first and coverlab.Carrier is carrier",
            "print('one')",
        ])
        run = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                             env=ENV, timeout=60)
        assert run.stdout == "one\n", run.stderr

    def test_run_as_main_warns_nothing(self):
        run = subprocess.run([sys.executable, "-W", "default", "-m", "coverlab.cli", "real", "eval",
                              "1", "--eps", "1"], capture_output=True, text=True, env=ENV,
                             timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (0, "1 ± 1\n", "")
