"""Command-line entry point.

Subcommands: ``axioms``, ``complete``, ``reflect``, ``locale
build|points|roundtrip``, ``real eval --eps``, ``demo heine-borel --eps``.
Reports are printed as JSON; exit code 0 when every check passes, 1 when
any fails, 2 on usage or parse errors.  Three bounds keep every answer
finite: ``locale points`` refuses (exit 1) a frame whose points would
print more than ``MAX_POINT_SUBSETS`` maximal subsets, ``demo
heine-borel`` refuses (exit 1) a net of more than ``MAX_NET_POINTS``
points, and a precision whose decimal exponent exceeds
``MAX_EPS_EXPONENT`` in magnitude is a parse error.  The argument parser
is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from fractions import Fraction

from . import cauchy, coverspace, locales, realexpr, spacefile, xreal
from .finkernel import points_of, shared_points

# The most maximal subsets `locale points` prints over all points: each
# point's count is the product of the sizes of the other atoms, which on a
# partition into pairs doubles with every pair.
MAX_POINT_SUBSETS = 10_000
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


def _emit(doc: dict) -> int:
    print(json.dumps(doc, indent=2))
    reports = doc.get("reports", [])
    return 0 if all(r["verdict"] == "pass" for r in reports) else 1


def _load_space(path: str):
    """The space a file presents and its ``covers_valid`` report; the space
    is None when a listed cover misses points of the carrier."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise spacefile.SpaceFileError(
                f"not UTF-8 text: byte {e.start} cannot be decoded"
            ) from e
    sf = spacefile.parse_spacefile(text)
    t0 = time.perf_counter()
    ok, witness = spacefile.covers_valid(sf)
    covers = _report("covers_valid", ok, witness, t0)
    return (spacefile.to_space(sf) if ok else None), covers


def cmd_axioms(args) -> int:
    s, covers = _load_space(args.file)
    reports = [covers]
    if s is None:
        return _emit({"reports": reports})

    t0 = time.perf_counter()
    cr = coverspace.satisfies_cr(s)
    reports.append(_report("regularity_cr", cr, None if cr else _cr_witness(s), t0))

    t0 = time.perf_counter()
    sr = coverspace.is_strongly_regular(s)
    reports.append(_report("strong_regularity", sr, None if sr else _cr_witness(s), t0))

    t0 = time.perf_counter()
    sep = cauchy.is_separated(s)
    reports.append(_report("separated", sep, None if sep else _separation_witness(s), t0))

    t0 = time.perf_counter()
    comp = cauchy.is_complete(s)
    reports.append(
        _report("complete", comp, None if comp else _completeness_witness(s), t0)
    )

    t0 = time.perf_counter()
    reports.append(_report("proper", coverspace.is_proper(s), {}, t0))
    return _emit({"carrier": s.size, "reports": reports})


def _cr_witness(s):
    # regular means the generator is a partition (coverspace.satisfies_cr),
    # so the witness is the first member sharing a point with another
    shared = shared_points(s.masks)
    for w in s.masks:
        if w & shared:
            return {"generator_member": points_of(w)}
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


def cmd_complete(args) -> int:
    s, covers = _load_space(args.file)
    if s is None:
        return _emit({"reports": [covers]})
    reports = []
    reflected = False
    if not coverspace.satisfies_cr(s):
        s = coverspace.regular_reflection(s)
        reflected = True
    t0 = time.perf_counter()
    comp = cauchy.completion(s)
    reports.append(_report("completion_built", True, None, t0))

    t0 = time.perf_counter()
    again = cauchy.completion(comp.structure)
    # both sides are discrete, so they are isomorphic exactly when equal
    idem = again.structure == comp.structure
    reports.append(_report("completion_idempotent", idem, {}, t0))

    out_doc = {
        "reflected": reflected,
        "space": _space_doc(comp.structure, args.out),
        "points": [list(b.members()) for b in comp.points],
        "unit": list(comp.unit),
        "reports": reports,
    }
    return _emit(out_doc)


def _space_doc(s, out):
    """The space file of s as JSON, also written to ``out`` when given."""
    text = spacefile.emit_spacefile(spacefile.of_space(s))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return json.loads(text)


def cmd_reflect(args) -> int:
    s, covers = _load_space(args.file)
    if s is None:
        return _emit({"reports": [covers]})
    t0 = time.perf_counter()
    r = coverspace.regular_reflection(s)
    reports = [_report("reflection_regular", coverspace.satisfies_cr(r), {}, t0)]
    return _emit({"space": _space_doc(r, args.out), "reports": reports})


def cmd_locale(args) -> int:
    s, covers = _load_space(args.file)
    if s is None:
        return _emit({"reports": [covers]})
    if args.action == "build":
        t0 = time.perf_counter()
        m = locales.locale_of_space(s)
        reports = [
            _report("locale_built", True, None, t0),
            _report("locale_regular", m.is_regular()),
            _report("locale_proper", locales.locale_is_proper(m)),
        ]
        return _emit({"elements": 1 << len(m.atoms), "reports": reports})
    if args.action == "points":
        m = locales.locale_of_space(s)
        sizes = [w.bit_count() for w in m.atoms]
        whole = math.prod(sizes)
        total = sum(whole // z for z in sizes)
        if total > MAX_POINT_SUBSETS:
            raise ValueError(
                f"locale points would print {total} maximal subsets, "
                f"more than {MAX_POINT_SUBSETS}"
            )
        pts = locales.locale_points(m)
        doc = {
            "count": len(pts),
            "points": [
                [list(u.members()) for u in locales.maximal_subsets(m, p.prime)]
                for p in pts
            ],
            "reports": [_report("points_enumerated", True)],
        }
        return _emit(doc)
    report = locales.verify_equivalence(s)
    reports = [
        _report(name, ok, {"detail": detail} if detail else {})
        for name, ok, detail in report.checks
    ]
    doc = {
        "isomorphism": report.passed,
        "eta": list(report.eta) if report.eta else None,
        "point_count": report.point_count,
        "reports": reports,
    }
    return _emit(doc)


def _parse_eps(text: str) -> Fraction:
    exponent = re.search(r"[eE][-+]?([0-9_]*)\s*$", text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > 6 or int(digits or "0") > MAX_EPS_EXPONENT:
            raise realexpr.ExprError(
                f"precision exponent beyond +-{MAX_EPS_EXPONENT} in {text!r}"
            )
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise realexpr.ExprError(f"bad precision {text!r}") from e
    if eps <= 0:
        raise realexpr.ExprError("precision must be positive")
    return eps


def cmd_real(args) -> int:
    eps = _parse_eps(args.eps)
    iv = realexpr.eval_expression(args.expression, eps)
    print(realexpr.format_interval(iv, eps, args.eps))
    if args.bounds:
        print(f"[{realexpr.format_fraction(iv.lo)}, {realexpr.format_fraction(iv.hi)}]")
    return 0


def cmd_demo_heine_borel(args) -> int:
    eps = _parse_eps(args.eps)
    bound = (eps.denominator + eps.numerator - 1) // eps.numerator + 1  # ceil(1/eps)+1
    if bound > MAX_NET_POINTS:
        raise ValueError(f"a net at eps {args.eps} has {bound} points, "
                         f"more than {MAX_NET_POINTS}")
    domain = xreal.RInterval(Fraction(0), Fraction(1))
    net = xreal.epsilon_net(domain, eps)
    balls = [xreal.RInterval(q - eps, q + eps) for q in net]
    t0 = time.perf_counter()
    chosen = xreal.finite_subcover(domain, balls)
    reports = [
        _report("subcover_covers", True, None, t0),
        _report("subcover_size_bound", len(chosen) <= bound, {"size": len(chosen)}),
    ]
    gapped = [
        xreal.RInterval(Fraction(-1), Fraction(1, 2)),
        xreal.RInterval(Fraction(3, 5), Fraction(2)),
    ]
    try:
        xreal.finite_subcover(domain, gapped)
        reports.append(_report("gap_certificate", False, {"reason": "no gap found"}))
        witness = None
    except xreal.UncoveredPointError as e:
        witness = str(e.point)
        reports.append(_report("gap_certificate", True))
    doc = {
        "eps": args.eps,
        "selected": [[str(iv.lo), str(iv.hi)] for iv in chosen],
        "size_bound": bound,
        "gap_witness": witness,
        "reports": reports,
    }
    return _emit(doc)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coverlab",
        description="Finite cover-space checks and exact real evaluation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ax = sub.add_parser("axioms", help="run axiom checks on a space file")
    ax.add_argument("file")
    ax.set_defaults(fn=cmd_axioms)

    co = sub.add_parser("complete", help="compute the completion of a space file")
    co.add_argument("file")
    co.add_argument("--out", help="write the completed space file here")
    co.set_defaults(fn=cmd_complete)

    re_ = sub.add_parser("reflect", help="compute the regular reflection")
    re_.add_argument("file")
    re_.add_argument("--out")
    re_.set_defaults(fn=cmd_reflect)

    lo = sub.add_parser(
        "locale",
        help="frame construction, points (at most "
        f"{MAX_POINT_SUBSETS} maximal subsets in all) and round trips",
    )
    lo.add_argument("action", choices=["build", "points", "roundtrip"])
    lo.add_argument("file")
    lo.set_defaults(fn=cmd_locale)

    rl = sub.add_parser("real", help="evaluate an exact real expression")
    rl.add_argument("action", choices=["eval"])
    rl.add_argument("expression")
    rl.add_argument(
        "--eps",
        required=True,
        help="target width, e.g. 1/1000000 or 1e-6 "
        f"(decimal exponent at most {MAX_EPS_EXPONENT} in magnitude)",
    )
    rl.add_argument("--bounds", action="store_true", help="also print exact endpoints")
    rl.set_defaults(fn=cmd_real)

    de = sub.add_parser("demo", help="built-in demonstrations")
    de.add_argument("action", choices=["heine-borel"])
    de.add_argument(
        "--eps",
        required=True,
        help=f"ball radius; the net's ceil(1/eps) + 1 points are at most {MAX_NET_POINTS}",
    )
    de.set_defaults(fn=cmd_demo_heine_borel)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse reports usage errors itself
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (spacefile.SpaceFileError, realexpr.ExprError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as e:
        # computation-level failures (size guards, apartness, preconditions)
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
