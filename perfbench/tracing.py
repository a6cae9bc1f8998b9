"""Outside-in tracing of coverlab's layers.

``Tracer.install`` replaces the public functions and the working methods
of each layer module with wrappers, in every coverlab module that binds
them (``cauchy`` and ``coverspace`` hold their own ``all_subsets``, for
instance); ``uninstall`` puts the originals back.  No file of the program
changes.

A wrapper opens a frame only where control crosses from one layer into
another, or for the few named sub-steps in ``FORCED``; calls inside a layer
run unwrapped apart from their counters, so a layer's frame also holds the
time of its private helpers, its value-class methods and the closures it
runs.  Frames of public functions are recorded as spans (op id, span id,
parent id, name, start, end) and kept in memory until ``write_spans``.
Hot leaves (``LEAVES``) are timed and counted but not recorded one by one.
Self time is a frame's duration minus the frames opened inside it.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction
from statistics import median

LAYERS = ("cli", "spacefile", "finkernel", "coverspace", "cauchy", "locales",
          "xreal", "realexpr")

# classes whose methods do a layer's work; other classes are values whose
# methods run inside the caller's frame
WORKING_CLASSES = {
    "coverspace": ("FiniteTopology",),
    "locales": ("CoveragePresentation", "FiniteLocale"),
    "realexpr": ("Parser",),
    "xreal": ("CutLocator",),
}
# sub-steps that get a frame even when called from their own layer
FORCED = {
    "cli.main", "realexpr.Parser.__init__", "realexpr.Parser.parse", "realexpr.evaluate",
    "realexpr.format_interval", "locales.CoveragePresentation.__init__",
    "xreal.finite_subcover",
}
LEAVES = {"coverspace.rather_below", "cauchy.is_cauchy_filter", "xreal.Real.approx"}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open frames: [layer, name, start, child time, span id]
        self.spans: list[tuple] = []
        self.layer_self: dict[str, float] = defaultdict(float)
        self.name_total: dict[str, float] = defaultdict(float)
        self.name_self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._next_span = 0
        self._asked: dict[int, tuple] = {}  # id(real) -> (real, precisions asked), per op
        self.answer_ratios: list[float] = []
        self._patched: list[tuple] = []

    # ---------------------------------------------------------- wrappers

    def _framed(self, layer, name, fn, record):
        tr, perf, force = self, time.perf_counter, name in FORCED

        def framed(*args, **kwargs):
            stack = tr.stack
            if stack:
                top = stack[-1]
                if top[0] == layer and (not force or top[1] == name):
                    return fn(*args, **kwargs)
                parent = top[4]
            else:
                parent = -1
            sid = tr._next_span
            tr._next_span += 1
            frame = [layer, name, perf(), 0.0, sid]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[2]
                own = dur - frame[3]
                tr.layer_self[layer] += own
                tr.name_total[name] += dur
                tr.name_self[name] += own
                if stack:
                    stack[-1][3] += dur
                if record:
                    tr.spans.append((tr.op, sid, parent, name, frame[2], end))

        return framed

    def _counted(self, key, fn, after=None):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            if after is None:
                return fn(*args, **kwargs)
            result = fn(*args, **kwargs)
            after(result, args)
            return result

        return counted

    # --------------------------------------------------------- counters

    def _after(self, name):
        """Result hooks for the counters that need more than a call count."""
        c = self.counts
        if name in ("finkernel.all_subsets", "finkernel.all_canonical_covers"):
            key = ("finkernel.subsets_enumerated" if name.endswith("subsets")
                   else "finkernel.canonical_covers_enumerated")

            def sized(result, args):
                c[key] += len(result)
            return sized
        if name == "cauchy.is_cauchy_filter":
            def found(result, args):
                c["cauchy.filters_found"] += bool(result)
            return found
        if name == "locales.FiniteLocale.__init__":
            def elements(result, args):
                c["locales.frame_elements"] += len(args[0].elements)
            return elements
        if name == "spacefile.parse_spacefile":
            def read(result, args):
                c["spacefile.bytes_read"] += len(args[0].encode())
            return read
        if name == "spacefile.emit_spacefile":
            def written(result, args):
                c["spacefile.bytes_written"] += len(result.encode())
            return written
        if name == "xreal.finite_subcover":
            def picks(result, args):
                c["xreal.subcover_picks"] += len(result)
                c["xreal.subcover_tests"] += c["xreal.contains_open"]
                c["xreal.contains_open"] = 0
            return picks
        if name == "finkernel.meet":
            stack = self.stack

            def meet(result, args):
                if stack and stack[-1][1] == "coverspace.regular_reflection":
                    c["coverspace.reflection_meets"] += 1
            return meet
        if name == "realexpr.eval_expression":
            from oracle import precision_bits

            def ratio(result, args):
                eps = Fraction(args[1])
                bits = max(result.lo.denominator.bit_length(), result.hi.denominator.bit_length())
                self.answer_ratios.append(bits / precision_bits(eps))
            return ratio
        if name == "xreal.Real.approx":
            def bits(result, args):
                b = max(result.lo.numerator.bit_length(), result.lo.denominator.bit_length(),
                        result.hi.numerator.bit_length(), result.hi.denominator.bit_length())
                if b > c["xreal.endpoint_bits_max"]:
                    c["xreal.endpoint_bits_max"] = b
            return bits
        return None

    def _approx_repeat(self, fn):
        asked, counts = self._asked, self.counts

        def approx(real, eps):
            key = Fraction(eps) if not isinstance(eps, Fraction) else eps
            seen = asked.get(id(real))
            if seen is None:
                asked[id(real)] = (real, {key})
            elif key in seen[1]:
                counts["xreal.approx_repeats"] += 1
            else:
                seen[1].add(key)
            return fn(real, eps)

        return approx

    def _contains(self, fn):
        counts, stack = self.counts, self.stack

        def contains(iv, q):
            counts["xreal.contains_calls"] += 1
            if stack and stack[-1][1] == "xreal.finite_subcover":
                counts["xreal.contains_open"] += 1
            return fn(iv, q)

        return contains

    def start_op(self, op_id: int) -> None:
        self.op = op_id
        self._asked.clear()
        self.counts["xreal.contains_open"] = 0

    # ------------------------------------------------------ installation

    def _wrap(self, layer, name, fn):
        w = self._framed(layer, name, fn, record=name not in LEAVES)
        if name == "xreal.Real.approx":
            w = self._approx_repeat(w)
        count_key = {
            "coverspace.rather_below": "coverspace.rather_below_calls",
            "cauchy.is_cauchy_filter": "cauchy.filter_tests",
            "xreal.Real.approx": "xreal.approx_calls",
            "locales.CoveragePresentation.is_ideal": "locales.ideal_tests",
            "locales.ideal_closure": "locales.ideal_closure_calls",
            "locales.FiniteLocale.join": "locales.join_calls",
            "locales.FiniteLocale.join_primes": "locales.join_primes_calls",
        }.get(name, name)
        w = self._counted(count_key, w, self._after(name))
        try:
            w.__wrapped__ = fn
            w.__name__ = fn.__name__
        except AttributeError:
            pass
        return w

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {name: sys.modules[f"coverlab.{name}"] for name in LAYERS}
        users = [m for k, m in sys.modules.items() if k == "coverlab" or k.startswith("coverlab.")]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(layer, f"{layer}.{attr}", fn)
                for user in users:
                    for uattr, value in list(vars(user).items()):
                        if value is fn:
                            self._set(user, uattr, wrapper)
            for cls_name in WORKING_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, fn in list(vars(cls).items()):
                    if inspect.isfunction(fn) and (not attr.startswith("_") or attr == "__init__"):
                        self._set(cls, attr, self._wrap(layer, f"{layer}.{cls_name}.{attr}", fn))
        fk, xr = mods["finkernel"], mods["xreal"]
        self._set(xr.Real, "approx", self._wrap("xreal", "xreal.Real.approx", xr.Real.approx))
        self._set(xr.RInterval, "contains", self._contains(xr.RInterval.contains))
        self._set(fk.Subset, "__post_init__",
                  self._counted("finkernel.subset_objects", fk.Subset.__post_init__))
        self._set(fk.Carrier, "__eq__",
                  self._counted("finkernel.carrier_eq_calls", fk.Carrier.__eq__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ----------------------------------------------------------- results

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([op, sid, parent, name, start, end]) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics over one traced round of ``ops`` ops.  ``_s``
        metrics are round totals, ``_ms`` metrics are means per op, counts
        are round totals."""
        c, ls, total, own = self.counts, self.layer_self, self.name_total, self.name_self

        def per_op_ms(seconds):
            return seconds * 1000 / ops

        def share(a, b):
            return a / b if b else 0.0

        return {
            "cli.self_ms": per_op_ms(ls["cli"]),
            "spacefile.self_ms": per_op_ms(ls["spacefile"]),
            "spacefile.kb_read": c["spacefile.bytes_read"] / 1024,
            "spacefile.kb_written": c["spacefile.bytes_written"] / 1024,
            "finkernel.self_s": ls["finkernel"],
            "finkernel.subsets_enumerated": c["finkernel.subsets_enumerated"],
            "finkernel.canonical_covers_enumerated": c["finkernel.canonical_covers_enumerated"],
            "finkernel.subset_objects": c["finkernel.subset_objects"],
            "finkernel.carrier_eq_calls": c["finkernel.carrier_eq_calls"],
            "coverspace.self_s": ls["coverspace"],
            "coverspace.rather_below_calls": c["coverspace.rather_below_calls"],
            "coverspace.reflection_yield": share(c["coverspace.reflection_meets"],
                                                 c["finkernel.canonical_covers_enumerated"]),
            "cauchy.self_s": ls["cauchy"],
            "cauchy.filter_tests": c["cauchy.filter_tests"],
            "cauchy.filter_yield": share(c["cauchy.filters_found"], c["cauchy.filter_tests"]),
            "locales.self_s": ls["locales"],
            "locales.presentation_ms": per_op_ms(total["locales.CoveragePresentation.__init__"]),
            "locales.ideal_tests": c["locales.ideal_tests"],
            "locales.frame_elements": c["locales.frame_elements"],
            "locales.ideal_yield": share(c["locales.frame_elements"], c["locales.ideal_tests"]),
            "locales.ideal_closure_calls": c["locales.ideal_closure_calls"],
            "locales.join_calls": c["locales.join_calls"],
            "locales.join_primes_calls": c["locales.join_primes_calls"],
            "xreal.self_s": ls["xreal"],
            "xreal.approx_calls": c["xreal.approx_calls"],
            "xreal.approx_repeat_share": share(c["xreal.approx_repeats"], c["xreal.approx_calls"]),
            "xreal.endpoint_bits_max": c["xreal.endpoint_bits_max"],
            "xreal.answer_bits_ratio": median(self.answer_ratios) if self.answer_ratios else 0.0,
            "xreal.subcover_ms": per_op_ms(total["xreal.finite_subcover"]),
            "xreal.subcover_tests_per_pick": share(c["xreal.subcover_tests"],
                                                   c["xreal.subcover_picks"]),
            "realexpr.parse_ms": per_op_ms(total["realexpr.Parser.__init__"]
                                           + total["realexpr.Parser.parse"]),
            "realexpr.evaluate_self_ms": per_op_ms(own["realexpr.evaluate"]),
            "realexpr.format_ms": per_op_ms(total["realexpr.format_interval"]),
        }
