"""Independent answers for every op of the benchmark.

Nothing here imports coverlab.  The finite checks use closed forms over
integer bitmasks:

- the structure of a space file is generated by the inclusion-maximal
  members of the meet of its covers;
- regular and strongly regular hold exactly when that generator is a
  partition; separated and complete hold exactly when it is discrete, so
  ``axioms`` exits 0 exactly on discrete inputs;
- the regular reflection is the partition into connected components of
  the generator's overlap graph;
- the completion of a k-block partition has k points (the blocks in
  ascending mask order), is discrete, and sends each point to the rank of
  its block;
- the frame of a k-block partition has 2^k elements and k points, and the
  point of block B is the ideal of subsets holding no other whole block;
  ``locale roundtrip`` passes exactly on discrete inputs.

Frames of non-partition structures have no closed form; their answers are
read from ``recorded_frames.json``, recorded with ``record_frames.py``.

Real answers are checked against a reference bracket computed with
Fraction and integer arithmetic only: the answer must be no wider than
eps and must meet the bracket.  Timing fields (``ms``) and JSON keys the
checks do not name are ignored.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

OK = "ok"
FAILED = "failed"  # refused, raised or printed a traceback: no answer given
WRONG = "wrong"  # gave an answer the oracle refutes


# ------------------------------------------------------------ finite forms

def generator(n: int, covers) -> tuple[int, ...]:
    """Inclusion-maximal members of the meet of the covers."""
    acc = {(1 << n) - 1}
    for c in covers:
        acc = {a & b for a in acc for b in c}
    return tuple(sorted(m for m in acc if not any(o != m and m & ~o == 0 for o in acc)))


def is_partition(gen) -> bool:
    return all(a & b == 0 for a, b in itertools.combinations(gen, 2))


def is_discrete(n: int, gen) -> bool:
    return sorted(gen) == [1 << x for x in range(n)]


def components(gen) -> tuple[int, ...]:
    """Unions of the connected components of the overlap graph.  The blocks
    stay pairwise disjoint, so a member merges with exactly the blocks it
    meets."""
    blocks: list[int] = []
    for m in gen:
        blocks = [b for b in blocks if not b & m] + [m | _union(b for b in blocks if b & m)]
    return tuple(sorted(blocks))


def _union(masks) -> int:
    u = 0
    for m in masks:
        u |= m
    return u


def rather_below(gen, v: int, u: int) -> bool:
    return all(w & v == 0 or w & ~u == 0 for w in gen)


def _mask(xs) -> int:
    m = 0
    for x in xs:
        m |= 1 << x
    return m


def _members(m: int) -> list[int]:
    return [x for x in range(m.bit_length()) if m >> x & 1]


def point_maximals(n: int, blocks, b: int) -> set[int]:
    """Maximal subsets of the point ideal of block b: the carrier minus one
    element of every other block."""
    others = [_members(o) for o in blocks if o != b]
    full = (1 << n) - 1
    return {full & ~_mask(pick) for pick in itertools.product(*others)}


# ------------------------------------------------------------------ checks

class Mismatch(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _verdicts(doc) -> dict:
    return {r.get("check"): r for r in doc.get("reports", [])}


def _expect_reports(doc, wanted: dict) -> dict:
    got = _verdicts(doc)
    for name, ok in wanted.items():
        expect(name in got, f"report {name} missing")
        expect(got[name].get("verdict") == ("pass" if ok else "fail"),
               f"{name} verdict {got[name].get('verdict')}")
    return got


def _doc_generator(doc) -> tuple[int, tuple[int, ...]]:
    n = doc["carrier"]
    return n, generator(n, [[_mask(s) for s in c] for c in doc["covers"]])


def check_axioms(op, doc) -> int:
    gen = generator(op.n, op.covers)
    part, disc = is_partition(gen), is_discrete(op.n, gen)
    expect(doc.get("carrier") == op.n, "carrier")
    got = _expect_reports(doc, {
        "covers_valid": True, "regularity_cr": part, "strong_regularity": part,
        "separated": disc, "complete": disc, "proper": True,
    })
    for name in ("regularity_cr", "strong_regularity"):
        w = got[name].get("witness")
        if not part and w and "generator_member" in w:
            m = _mask(w["generator_member"])
            expect(m in gen and not any(rather_below(gen, m, u) for u in gen),
                   f"{name} witness")
    for name in ("separated", "complete"):
        w = got[name].get("witness") or {}
        if not disc and "points" in w:
            x, y = w["points"]
            expect(x != y and any(g >> x & 1 and g >> y & 1 for g in gen), f"{name} witness")
    return 0 if disc else 1


def check_complete(op, doc, out_text) -> int:
    gen = generator(op.n, op.covers)
    blocks = gen if is_partition(gen) else components(gen)
    k = len(blocks)
    expect(doc.get("reflected") == (not is_partition(gen)), "reflected flag")
    expect(_doc_generator(doc["space"]) == (k, tuple(1 << i for i in range(k))),
           "completion is not discrete on the blocks")
    expect([_mask(p) for p in doc["points"]] == list(blocks), "points")
    expect(doc["unit"] == [next(i for i, b in enumerate(blocks) if b >> x & 1)
                           for x in range(op.n)], "unit")
    _expect_reports(doc, {"completion_built": True, "completion_idempotent": True})
    if "--out" in op.argv:
        expect(out_text is not None, "--out file missing")
        expect(_doc_generator(json.loads(out_text)) == _doc_generator(doc["space"]),
               "--out file differs from the printed space")
    return 0


def check_reflect(op, doc, out_text) -> int:
    blocks = components(generator(op.n, op.covers))
    expect(_doc_generator(doc["space"]) == (op.n, blocks), "reflection")
    _expect_reports(doc, {"reflection_regular": True})
    if "--out" in op.argv:
        expect(out_text is not None, "--out file missing")
        expect(_doc_generator(json.loads(out_text)) == (op.n, blocks), "--out file")
    return 0


_RECORDED: dict | None = None


def recorded_frame(n: int, gen) -> dict:
    global _RECORDED
    if _RECORDED is None:
        with open(os.path.join(HERE, "recorded_frames.json"), encoding="utf-8") as fh:
            _RECORDED = json.load(fh)
    return _RECORDED[frame_key(n, gen)]


def frame_key(n: int, gen) -> str:
    return f"{n}:" + ",".join(str(m) for m in sorted(gen))


def points_as_set(points) -> set[frozenset[int]]:
    return {frozenset(_mask(s) for s in p) for p in points}


def check_locale(op, doc) -> int:
    action = op.cmd.split()[1]
    gen = generator(op.n, op.covers)
    if action == "roundtrip":
        disc = is_discrete(op.n, gen)
        expect(doc.get("isomorphism") is disc, "isomorphism verdict")
        if disc:
            expect(doc.get("point_count") == op.n, "point count")
            expect(sorted(doc.get("eta") or []) == list(range(op.n)), "eta is not a bijection")
            expect(all(r.get("verdict") == "pass" for r in doc["reports"]), "a check failed")
        else:
            _expect_reports(doc, {"space_proper": True, "space_strongly_complete": False})
        return 0 if disc else 1
    if not is_partition(gen):
        rec = recorded_frame(op.n, gen)
        if action == "build":
            expect(doc.get("elements") == rec["elements"], "frame size")
            _expect_reports(doc, {"locale_built": True, "locale_regular": rec["regular"],
                                  "locale_proper": rec["proper"]})
            return 0 if rec["regular"] and rec["proper"] else 1
        expect(doc.get("count") == len(rec["points"]), "point count")
        expect(points_as_set(doc["points"]) == points_as_set(rec["points"]), "points")
        return 0
    if action == "build":
        expect(doc.get("elements") == 2 ** len(gen), "frame size")
        _expect_reports(doc, {"locale_built": True, "locale_regular": True,
                              "locale_proper": True})
        return 0
    expect(doc.get("count") == len(gen), "point count")
    want = {frozenset(point_maximals(op.n, gen, b)) for b in gen}
    expect(points_as_set(doc["points"]) == want, "points")
    _expect_reports(doc, {"points_enumerated": True})
    return 0


# ------------------------------------------------------------------ reals

def precision_bits(eps: Fraction) -> int:
    """ceil(log2(1/eps)), exactly."""
    k = max(0, eps.denominator.bit_length() - eps.numerator.bit_length() - 1)
    while Fraction(1, 2**k) > eps:
        k += 1
    return k


def _exp_bounds(x: Fraction, q: int) -> tuple[Fraction, Fraction]:
    """Fixed-point Taylor bounds on exp(x) with q fractional bits."""
    if x < 0:
        lo, hi = _exp_bounds(-x, q)
        return 1 / hi, 1 / lo
    num, den = x.numerator, x.denominator
    scale = 1 << q
    t_lo = t_hi = scale
    s_lo = s_hi = 0
    k = 0
    while True:
        s_lo += t_lo
        s_hi += t_hi
        k += 1
        t_lo = t_lo * num // (den * k)
        t_hi = -(-t_hi * num // (den * k))
        # remainder from term k on is at most 2 t_k once k + 1 >= 2x
        if t_hi <= 1 and k + 1 >= 2 * x:
            return Fraction(s_lo, scale), Fraction(s_hi + 2 * t_hi + 1, scale)


def reference(node, q: int) -> tuple[Fraction, Fraction]:
    """A closed interval holding the value of an expression tree."""
    kind = node[0]
    if kind == "rat":
        return node[1], node[1]
    if kind == "inv_n":
        return Fraction(0), Fraction(0)
    if kind == "geometric":
        v = 1 / (1 - node[1])
        return v, v
    if kind == "exp":
        lo, hi = reference(node[1], q)
        return _exp_bounds(lo, q)[0], _exp_bounds(hi, q)[1]
    if kind == "inv":
        lo, hi = reference(node[1], q)
        expect(lo > 0 or hi < 0, "reference divisor meets zero")
        return 1 / hi, 1 / lo
    a, b = reference(node[1], q), reference(node[2], q)
    if kind == "+":
        return a[0] + b[0], a[1] + b[1]
    if kind == "-":
        return a[0] - b[1], a[1] - b[0]
    if kind == "/":
        expect(b[0] > 0 or b[1] < 0, "reference divisor meets zero")
        b = (1 / b[1], 1 / b[0])
    products = [x * y for x in a for y in b]
    return min(products), max(products)


_REFS: dict = {}


def reference_for(op) -> tuple[Fraction, Fraction]:
    key = (op.argv[2], op.eps)
    if key not in _REFS:
        _REFS[key] = reference(op.expr, precision_bits(Fraction(op.eps)) + 64)
    return _REFS[key]


def _meets(lo, hi, rlo, rhi, closed=False) -> bool:
    return (lo <= rhi and rlo <= hi) if closed else (lo < rhi and rlo < hi)


def check_real(op, rc: int, out: str) -> None:
    """Checks every printed line; raises Mismatch on a refuted one."""
    eps = Fraction(op.eps)
    rlo, rhi = reference_for(op)
    lines = out.splitlines()
    if lines:
        value, sep, echoed = lines[0].partition(" ± ")
        expect(sep and echoed == op.eps, "decimal line format")
        d = Fraction(value)
        expect(_meets(d - eps, d + eps, rlo, rhi, closed=True), "decimal misses the reference")
    if len(lines) > 1:
        expect(lines[1].startswith("[") and lines[1].endswith("]"), "bounds line format")
        lo, hi = (Fraction(t) for t in lines[1][1:-1].split(", "))
        expect(lo < hi and hi - lo <= eps, "answer wider than eps")
        expect(_meets(lo, hi, rlo, rhi), "answer misses the reference")
        expect(d - eps <= lo and hi <= d + eps, "decimal does not enclose the answer")
    if rc == 0:
        expect(len(lines) == (2 if op.bounds else 1), "line count")


def check_heine_borel(op, doc) -> int:
    eps = Fraction(op.eps)
    k = math.ceil(1 / eps)
    expect(doc.get("eps") == op.eps, "eps echo")
    expect(doc.get("size_bound") == k + 1, "size bound")
    sel = [(Fraction(a), Fraction(b)) for a, b in doc["selected"]]
    expect(0 < len(sel) <= k + 1, "subcover size")
    for lo, hi in sel:
        c = (lo + eps) * k
        expect(hi - lo == 2 * eps and c.denominator == 1 and 0 <= c <= k, "not a net ball")
    expect(sel[0][0] < 0 < sel[0][1] and sel[-1][1] > 1, "ends not covered")
    for (_, prev_hi), (lo, hi) in zip(sel, sel[1:]):
        expect(lo < prev_hi < hi, "gap in the chain")
    g = Fraction(doc["gap_witness"])
    expect(Fraction(1, 2) <= g <= Fraction(3, 5), "gap witness is covered")
    _expect_reports(doc, {"subcover_covers": True, "subcover_size_bound": True,
                          "gap_certificate": True})
    return 0


# ----------------------------------------------------------------- verdict

def classify(op, rc, out: str, err: str, out_text: str | None, raised: str | None):
    """(verdict, reason) for one op."""
    if raised:
        return FAILED, f"raised {raised}"
    if "Traceback (most recent call last)" in err:
        return FAILED, "traceback"
    refusal = err.strip().splitlines()[-1][:160] if err.strip() else f"exit {rc}"
    try:
        if op.cmd == "real eval":
            check_real(op, rc, out)
            return (OK, "") if rc == 0 else (FAILED, refusal)
        try:
            doc = json.loads(out)
        except ValueError:
            return (FAILED, refusal) if rc != 0 else (WRONG, "no report")
        if op.cmd == "axioms":
            want = check_axioms(op, doc)
        elif op.cmd == "complete":
            want = check_complete(op, doc, out_text)
        elif op.cmd == "reflect":
            want = check_reflect(op, doc, out_text)
        elif op.cmd.startswith("locale"):
            want = check_locale(op, doc)
        else:
            want = check_heine_borel(op, doc)
        expect(rc == want, f"exit {rc}, expected {want}")
        return OK, ""
    except (Mismatch, KeyError, TypeError, ValueError) as e:
        return WRONG, f"{type(e).__name__}: {e}"[:200]
