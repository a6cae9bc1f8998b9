"""Command-line entry point.

Subcommands: ``axioms``, ``complete``, ``reflect``, ``locale
build|points|roundtrip``, ``real eval --eps``, ``demo heine-borel --eps``.
Reports are printed as JSON; exit code 0 when every check passes, 1 when
any fails, 2 on usage or parse errors.  Each handler returns its output,
which ``_emit`` alone prints.  ``main`` reads the space file of
``axioms``, ``complete``, ``reflect`` and ``locale`` once, then emits the
``covers_valid`` report alone when a cover misses points, or else the
document that the subcommand makes of the space.  Three bounds keep every
answer finite: ``locale points`` refuses (exit 1) a frame whose points
would print more than ``MAX_POINT_SUBSETS`` maximal subsets or
``MAX_POINTS_PRINTED`` points in them, ``demo heine-borel`` refuses
(exit 1) a net of more than ``MAX_NET_POINTS`` points, and a precision
whose decimal exponent exceeds ``MAX_EPS_EXPONENT`` in magnitude is a
parse error.  argparse is imported, and its parser built from the table
``GRAMMAR`` that ``_read`` reads, only for an argv ``_read`` refuses.  The
library modules are the package's lazy ones, read at call time, so a call
executes only the modules of its subcommand: ``real eval`` runs ``realexpr``
and ``xreal`` alone, and the finite subcommands never run the real half.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from types import SimpleNamespace

from . import cauchy, coverspace, finkernel, locales, realexpr, spacefile, xreal

# The most maximal subsets `locale points` prints over all points: each
# point's count is the product of the sizes of the other atoms, which on a
# partition into pairs doubles with every pair.
MAX_POINT_SUBSETS = 10_000
# The most points those subsets hold in all.  Two blocks of 500 points print
# 999,000 in 0.9 s; two of 1,000 would print 3,998,000 (54 MB) in 4 s.
MAX_POINTS_PRINTED = 1_000_000
# Fraction builds 10**exponent exactly, in time growing with the exponent;
# 1e-100000 is still admitted.
MAX_EPS_EXPONENT = 100_000
# The most points `demo heine-borel` puts in its net over [0, 1], ceil(1/eps)
# + 1 of them, each a Fraction and a ball: --eps 1/10000 still answers.
MAX_NET_POINTS = 100_000


def _report(check: str, ok: bool, witness=None, started: float | None = None) -> dict:
    out = {"check": check, "verdict": "pass" if ok else "fail"}
    if not ok:
        out["witness"] = witness if witness is not None else {}
    if started is not None:
        out["ms"] = round((time.perf_counter() - started) * 1000, 3)
    return out


def _emit(out: str | dict) -> int:
    """Print a text with exit code 0, or a document with 1 if a report fails."""
    is_text = isinstance(out, str)
    print(out if is_text else spacefile.json_text(out))
    return 0 if is_text or all(r["verdict"] == "pass" for r in out["reports"]) else 1


def _load_space(path: str):
    """The space a file presents and its ``covers_valid`` report; the space
    is None when a listed cover misses points of the carrier."""
    sf = spacefile.parse_spacefile(spacefile.read_text(path))
    t0 = time.perf_counter()
    ok, witness = spacefile.covers_valid(sf)
    covers = _report("covers_valid", ok, witness, t0)
    return (spacefile.to_space(sf) if ok else None), covers


def cmd_axioms(s, covers: dict, args) -> dict:
    reports = [covers]
    # looked up here, not at import, so the names can be patched
    for check, decide, witness in (
        ("regularity_cr", coverspace.satisfies_cr, _cr_witness),
        ("strong_regularity", coverspace.is_strongly_regular, _cr_witness),
        ("separated", cauchy.is_separated, _separation_witness),
        ("complete", cauchy.is_complete, _completeness_witness),
        ("proper", coverspace.is_proper, lambda s: {}),
    ):
        t0 = time.perf_counter()
        ok = decide(s)
        reports.append(_report(check, ok, None if ok else witness(s), t0))
    return {"carrier": s.size, "reports": reports}


def _cr_witness(s):
    # regular means the generator is a partition (coverspace.satisfies_cr),
    # so the witness is the first member sharing a point with another
    shared = finkernel.shared_points(s.masks)
    for w in s.masks:
        if w & shared:
            return {"generator_member": finkernel.points_of(w)}
    return None


def _separation_witness(s):
    # x and y are equivalent exactly when y lies in x's smallest neighborhood
    for x, star in enumerate(s.star):
        above = star >> (x + 1)
        if above:
            return {"points": [x, x + (above & -above).bit_length()]}
    return None


def _completeness_witness(s):
    # on a finite carrier complete means separated (cauchy.is_complete)
    pair = _separation_witness(s)
    return None if pair is None else {"reason": "not separated", **pair}


def cmd_complete(s, covers: dict, args) -> dict:
    reflected = not coverspace.satisfies_cr(s)
    if reflected:
        s = coverspace.regular_reflection(s)
    t0 = time.perf_counter()
    comp = cauchy.completion(s)
    reports = [_report("completion_built", True, None, t0)]
    t0 = time.perf_counter()
    again = cauchy.completion(comp.structure)
    # both sides are discrete, so they are isomorphic exactly when equal
    reports.append(_report("completion_idempotent", again.structure == comp.structure, {}, t0))
    return {"reflected": reflected, "space": _space_doc(comp.structure, args.out),
            "points": [list(b.members()) for b in comp.points], "unit": list(comp.unit),
            "reports": reports}


def _space_doc(s, out):
    """The space file of s as a document, also written to ``out`` when given."""
    doc = spacefile.document(spacefile.of_space(s))
    if out:
        spacefile.write_text(out, spacefile.json_text(doc) + "\n")
    return doc


def cmd_reflect(s, covers: dict, args) -> dict:
    t0 = time.perf_counter()
    r = coverspace.regular_reflection(s)
    reports = [_report("reflection_regular", coverspace.satisfies_cr(r), {}, t0)]
    return {"space": _space_doc(r, args.out), "reports": reports}


def cmd_locale(s, covers: dict, args) -> dict:
    if args.action == "build":
        t0 = time.perf_counter()
        m = locales.locale_of_space(s)
        reports = [
            _report("locale_built", True, None, t0),
            _report("locale_regular", m.is_regular()),
            _report("locale_proper", locales.locale_is_proper(m)),
        ]
        return {"elements": m.top + 1, "reports": reports}
    if args.action == "points":
        m = locales.locale_of_space(s)
        sizes = [w.bit_count() for w in m.atoms]
        whole = math.prod(sizes)
        total = sum(whole // z for z in sizes)
        # each subset is the carrier less one point of every other atom
        printed = total * (s.size - len(sizes) + 1)
        for count, what, limit in ((total, "maximal subsets", MAX_POINT_SUBSETS),
                                   (printed, "points in its maximal subsets",
                                    MAX_POINTS_PRINTED)):
            if count > limit:
                raise ValueError(f"locale points would print {count} {what}, more than {limit}")
        pts = locales.locale_points(m)
        subsets = [[list(u.members()) for u in locales.maximal_subsets(m, p.prime)] for p in pts]
        return {"count": len(pts), "points": subsets,
                "reports": [_report("points_enumerated", True)]}
    report = locales.verify_equivalence(s)
    reports = [
        _report(name, ok, {"detail": detail} if detail else {})
        for name, ok, detail in report.checks
    ]
    return {"isomorphism": report.passed, "eta": list(report.eta) if report.eta else None,
            "point_count": report.point_count, "reports": reports}


def cmd_real(args) -> str:
    eps = realexpr.parse_eps(args.eps, MAX_EPS_EXPONENT)
    lo, hi, den = ans = realexpr.answer(args.expression, eps)
    text = realexpr.format_interval(ans, eps, args.eps)
    if args.bounds:
        text += f"\n[{realexpr.format_ratio(lo, den)}, {realexpr.format_ratio(hi, den)}]"
    return text


def cmd_demo_heine_borel(args) -> dict:
    eps = realexpr.parse_eps(args.eps, MAX_EPS_EXPONENT)
    bound = (eps.denominator + eps.numerator - 1) // eps.numerator + 1  # ceil(1/eps)+1
    if bound > MAX_NET_POINTS:
        raise ValueError(f"a net at eps {args.eps} has {bound} points, "
                         f"more than {MAX_NET_POINTS}")
    F = xreal.Fraction  # the type of RInterval's ends; cli leaves fractions unimported
    domain = xreal.RInterval(F(0), F(1))
    t0 = time.perf_counter()
    chosen, d = xreal.ball_subcover(domain, eps)
    reports = [
        _report("subcover_covers", True, None, t0),
        _report("subcover_size_bound", len(chosen) <= bound, {"size": len(chosen)}),
    ]
    gapped = [xreal.RInterval(F(-1), F(1, 2)), xreal.RInterval(F(3, 5), F(2))]
    witness = None
    try:
        xreal.finite_subcover(domain, gapped)
    except xreal.UncoveredPointError as e:
        witness = str(e.point)
    reports.append(_report("gap_certificate", witness is not None, {"reason": "no gap found"}))
    # every end lies within (1 + eps) d of 0, so str prints it when d is short
    digits = str if eps <= 1 and d.bit_length() <= 4000 else realexpr.decimal_digits
    return {
        "eps": args.eps,
        "selected": [[realexpr.format_ratio(lo, d, digits), realexpr.format_ratio(hi, d, digits)]
                     for lo, hi in chosen],
        "size_bound": bound,
        "gap_witness": witness,
        "reports": reports,
    }


# The command line: subcommand -> (help, handler, positionals, options).  A
# positional is (name, choices or None); an option is (flag, kind, help), its
# kind "value", "required" (a value that must be given) or "flag" (no value).
GRAMMAR = {
    "axioms": ("run axiom checks on a space file", cmd_axioms, [("file", None)], []),
    "complete": ("compute the completion of a space file", cmd_complete, [("file", None)],
                 [("--out", "value", "write the completed space file here")]),
    "reflect": ("compute the regular reflection", cmd_reflect, [("file", None)],
                [("--out", "value", None)]),
    "locale": ("frame construction, points (at most "
               f"{MAX_POINT_SUBSETS} maximal subsets in all) and round trips", cmd_locale,
               [("action", ["build", "points", "roundtrip"]), ("file", None)], []),
    "real": ("evaluate an exact real expression", cmd_real,
             [("action", ["eval"]), ("expression", None)],
             [("--eps", "required", "target width, e.g. 1/1000000 or 1e-6 "
               f"(decimal exponent at most {MAX_EPS_EXPONENT} in magnitude)"),
              ("--bounds", "flag", "also print exact endpoints")]),
    "demo": ("built-in demonstrations", cmd_demo_heine_borel, [("action", ["heine-borel"])],
             [("--eps", "required",
               f"ball radius; the net's ceil(1/eps) + 1 points are at most {MAX_NET_POINTS}")]),
}


def _read(argv) -> SimpleNamespace | None:
    """argparse's namespace for a well-formed argv, else None: for help, an
    abbreviation, ``--eps=...``, ``--``, an unknown, missing or extra token,
    or a value that begins with ``-``.  A token in ``real eval``'s expression
    place that begins with one ``-``, not ``-h...``, is the expression."""
    if not argv or argv[0] not in GRAMMAR:
        return None
    _, fn, positionals, options = GRAMMAR[argv[0]]
    kinds = {flag: kind for flag, kind, _ in options}
    ns = {"command": argv[0], "fn": fn}
    ns.update((flag[2:], False if kind == "flag" else None) for flag, kind, _ in options)
    filled, tokens = 0, iter(argv[1:])
    for tok in tokens:
        kind = kinds.get(tok)
        if kind == "flag":
            ns[tok[2:]] = True
        elif kind:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            ns[tok[2:]] = value
        elif filled < len(positionals):
            name, choices = positionals[filled]
            # argparse reads a token that begins with "-", but an expression
            if tok.startswith(("--", "-h") if name == "expression" else "-") or (
                    choices and tok not in choices):
                return None
            ns[name], filled = tok, filled + 1
        else:
            return None
    if filled < len(positionals) or any(
            kind == "required" and ns[flag[2:]] is None for flag, kind, _ in options):
        return None
    return SimpleNamespace(**ns)


@functools.cache
def build_parser():
    """argparse's parser of GRAMMAR, which prints usage errors and help."""
    import argparse

    class Parser(argparse.ArgumentParser):  # choices quoted, as 3.13.0 and before print them
        def _check_value(self, action, value):
            if action.choices is not None and value not in action.choices:
                raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from "
                                             f"{', '.join(map(repr, action.choices))})")

    p = Parser(
        prog="coverlab", description="Finite cover-space checks and exact real evaluation.")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (about, fn, positionals, options) in GRAMMAR.items():
        sp = sub.add_parser(command, help=about)
        for name, choices in positionals:
            sp.add_argument(name, choices=choices)
        for flag, kind, text in options:
            how = {"action": "store_true"} if kind == "flag" else {"required": kind == "required"}
            sp.add_argument(flag, help=text, **how)
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:  # argparse reports usage errors itself
            return int(e.code or 0)
    try:
        if "file" not in vars(args):  # real eval, demo heine-borel
            return _emit(args.fn(args))
        s, covers = _load_space(args.file)
        # a cover missing points leaves no space: its report is the answer
        return _emit(args.fn(s, covers, args) if s is not None else {"reports": [covers]})
    except (ValueError, ZeroDivisionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        # parse and file errors exit 2, computation-level failures (size
        # guards, apartness, preconditions) 1; an error class names its own
        # code, so reading it loads neither the file reader nor the real half
        return 2 if isinstance(e, OSError) else getattr(e, "exit_code", 1)


if __name__ == "__main__":
    sys.exit(main())
