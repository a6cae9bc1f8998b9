"""What the benchmark measures: workloads, metrics, known failures.

``BENCHMARK.json`` at the repository root is written from this module by
``run.py --all`` and holds only the keys of its format (command, paths,
run_seconds, workloads, end_to_end, per_layer); the longer descriptions,
the per-layer to end-to-end mapping and the known failures are written
next to the baseline numbers in ``baseline.json``.
"""

from __future__ import annotations

import math

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30
SETUP_SPAWNS = 7  # processes set up per run; setup_s is their median

WORKLOADS = [
    ("decide", "axioms on partition, discrete, indiscrete and non-regular files over carriers "
               "2-12: many small read-only ops, fixed CLI cost at small n, 2^n filter scans at n=12"),
    ("build", "complete --out on carriers 5-12 and non-regular 3-4, reflect --out on 3-4: the "
              "finite layers used to construct and write rather than decide"),
    ("frames", "locale build|points|roundtrip on carriers 2-4: antichain walk, rule closure and "
               "join scans in locales, which no other workload reaches"),
    ("reals", "real eval over rationals, exp, products, quotients, limits and series at eps "
              "1e-3..1e-200, plus heine-borel: exact reals only, no finite layer"),
]

# name, unit, better, bound, description
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "process start to first timed op: interpreter start, import coverlab, generating and "
     "writing the inputs; median of the set-ups of one run"),
    ("ops_per_s", "1/s", "higher", 0.25,
     "successful ops of the deck / summed op time, each op timed at its fastest repetition"),
    ("latency_ms_p50", "ms", "lower", 0.25,
     "median over the deck's ops of each op's fastest repetition; failed ops rank last"),
    ("latency_ms_p90", "ms", "lower", 0.25,
     "90th percentile over the deck's ops (at least 100) of each op's fastest repetition; "
     "failed ops rank last"),
    ("peak_rss_mb", "MB", "lower", 0.1, "ru_maxrss of the workload's process"),
]

# name, unit, better, description, [(end-to-end metric, workload) it should move]
PER_LAYER = [
    ("cli.self_ms", "ms", "lower", "time in cli outside child-layer frames, per op",
     [("latency_ms_p50", "decide")]),
    ("cli.json_kb", "KB", "lower", "KB printed per op",
     [("heine_borel_ms_p50", "reals"), ("complete_ms_p50", "build")]),
    ("spacefile.self_ms", "ms", "lower", "time in spacefile per op",
     [("latency_ms_p50", "decide")]),
    ("spacefile.kb_read", "KB", "lower", "space-file text parsed per round",
     [("ops_per_s", "build")]),
    ("spacefile.kb_written", "KB", "lower", "space-file text emitted per round",
     [("ops_per_s", "build")]),
    ("finkernel.self_s", "s", "lower", "time in finkernel per round",
     [("ops_per_s", "decide"), ("ops_per_s", "build")]),
    ("finkernel.subsets_enumerated", "count", "lower", "summed length of all_subsets results",
     [("latency_ms_p90", "decide"), ("complete_ms_p50", "build")]),
    ("finkernel.canonical_covers_enumerated", "count", "lower",
     "summed length of all_canonical_covers results", [("reflect_ms_p50", "build")]),
    ("finkernel.subset_objects", "count", "lower", "Subset instances built",
     [("ops_per_s", "build")]),
    ("finkernel.carrier_eq_calls", "count", "lower", "Carrier.__eq__ calls",
     [("ops_per_s", "build"), ("ops_per_s", "decide")]),
    ("coverspace.self_s", "s", "lower", "time in coverspace per round",
     [("complete_ms_p50", "build"), ("latency_ms_p90", "decide")]),
    ("coverspace.rather_below_calls", "count", "lower", "rather_below calls",
     [("complete_ms_p50", "build"), ("latency_ms_p90", "decide")]),
    ("coverspace.reflection_yield", "ratio", "higher",
     "regular covers met / canonical covers enumerated in regular_reflection",
     [("reflect_ms_p50", "build")]),
    ("cauchy.self_s", "s", "lower", "time in cauchy per round",
     [("latency_ms_p90", "decide"), ("complete_ms_p50", "build")]),
    ("cauchy.filter_tests", "count", "lower", "is_cauchy_filter calls",
     [("latency_ms_p90", "decide"), ("complete_ms_p50", "build")]),
    ("cauchy.filter_yield", "ratio", "higher", "Cauchy filters found / subsets tested",
     [("complete_ms_p50", "build")]),
    ("locales.self_s", "s", "lower", "time in locales per round",
     [("locale_build_ms_p50", "frames"), ("locale_points_ms_p50", "frames"),
      ("locale_roundtrip_ms_p50", "frames")]),
    ("locales.presentation_ms", "ms", "lower", "CoveragePresentation construction per op",
     [("locale_build_ms_p50", "frames")]),
    ("locales.ideal_tests", "count", "lower", "CoveragePresentation.is_ideal calls",
     [("locale_build_ms_p50", "frames")]),
    ("locales.frame_elements", "count", "lower", "elements of the frames built",
     [("locale_build_ms_p50", "frames")]),
    ("locales.ideal_yield", "ratio", "higher", "frame elements / ideal tests",
     [("locale_build_ms_p50", "frames")]),
    ("locales.ideal_closure_calls", "count", "lower", "ideal_closure calls",
     [("locale_roundtrip_ms_p50", "frames")]),
    ("locales.join_calls", "count", "lower", "FiniteLocale.join calls",
     [("locale_points_ms_p50", "frames"), ("locale_roundtrip_ms_p50", "frames")]),
    ("locales.join_primes_calls", "count", "lower", "FiniteLocale.join_primes calls",
     [("locale_points_ms_p50", "frames"), ("locale_roundtrip_ms_p50", "frames")]),
    ("xreal.self_s", "s", "lower", "time in xreal per round", [("real_eval_ms_p50", "reals")]),
    ("xreal.approx_calls", "count", "lower", "Real.approx calls", [("real_eval_ms_p50", "reals")]),
    ("xreal.approx_repeat_share", "share", "lower",
     "approx calls whose (Real, eps) pair was already asked in the op",
     [("real_eval_ms_p50", "reals")]),
    ("xreal.endpoint_bits_max", "bits", "lower",
     "largest numerator or denominator bit length in any approx answer",
     [("latency_ms_p90", "reals")]),
    ("xreal.answer_bits_ratio", "ratio", "lower",
     "median over real eval ops of answer denominator bits / ceil(log2(1/eps))",
     [("latency_ms_p90", "reals")]),
    ("xreal.subcover_ms", "ms", "lower", "time in finite_subcover per op",
     [("heine_borel_ms_p50", "reals")]),
    ("xreal.subcover_tests_per_pick", "ratio", "lower",
     "RInterval.contains calls under finite_subcover / intervals chosen",
     [("heine_borel_ms_p50", "reals")]),
    ("realexpr.parse_ms", "ms", "lower", "tokenizing and parsing per op",
     [("real_eval_ms_p50", "reals")]),
    ("realexpr.evaluate_self_ms", "ms", "lower", "evaluate outside xreal frames per op",
     [("real_eval_ms_p50", "reals")]),
    ("realexpr.format_ms", "ms", "lower", "format_interval per op",
     [("real_eval_ms_p50", "reals")]),
    ("trace.overhead_s", "s", "lower", "traced minus untraced op time of one round", []),
    ("trace.overhead_share", "share", "lower", "trace.overhead_s / untraced op time", []),
]
# per-subcommand medians over the untraced round of a traced run; 0 on
# workloads that do not run the subcommand
SUBCOMMAND_P50 = [
    ("complete_ms_p50", "complete"), ("reflect_ms_p50", "reflect"),
    ("locale_build_ms_p50", "locale build"), ("locale_points_ms_p50", "locale points"),
    ("locale_roundtrip_ms_p50", "locale roundtrip"), ("real_eval_ms_p50", "real eval"),
    ("heine_borel_ms_p50", "heine-borel"),
]
PER_LAYER += [(name, "ms", "lower", f"median latency of {cmd} ops, failed ops ranked last", [])
              for name, cmd in SUBCOMMAND_P50]

# Ordinary inputs that fail at the seed.  The timed workloads leave them out,
# since every op of a workload must succeed; ``run.py --known`` runs them
# (``decks.deck_known``) and reports which still fail.
KNOWN_FAILURES = {
    "size_guard_axioms_13": (
        "decide", "axioms on a discrete 13-point file",
        "is_complete enumerates 2^n subsets and the subset guard refuses n > 12"),
    "size_guard_complete_nonregular": (
        "build", "complete on non-regular files over carriers 5 and 6",
        "the reflection enumerates canonical covers and the cover guard refuses n > 4"),
    "size_guard_locale_5": (
        "frames", "locale build|points on 5-point partitions, roundtrip on discrete(5)",
        "the ideal guard refuses frames over n > 4"),
    "digit_limit_geometric_name": (
        "reals", "limit(geometric; 99/100) at eps 1e-10",
        "real_of_rat names itself from str(r**n), over 4300 digits (xreal.py:146); exit 1 "
        "after about 1.7 s"),
    "digit_limit_bounds": (
        "reals", "exp(exp(1/4)) at eps 1/100 with --bounds",
        "printing endpoints of about 21,000 digits exceeds the 4300-digit limit (cli.py:211)"),
}
LEFT_OUT = [
    "real eval exp(exp(1/2)) at eps 1e-4: about 451 s",
    "demo heine-borel at eps 1/10000: minutes (the greedy subcover is quadratic)",
    "real eval limit(geometric; 999999/1000000) at eps 1/1000: over 20 s",
]


def rank_ms(records, q: float) -> float:
    """Nearest-rank percentile of op latency in ms.  A failed op ranks above
    every success and counts as no faster than the slowest success."""
    slowest = max((r["s"] for r in records if r["verdict"] == "ok"), default=0.0)
    ranked = sorted((r["s"], False) if r["verdict"] == "ok" else (max(r["s"], slowest), True)
                    for r in records)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)][0] * 1000


def benchmark_spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER],
    }
