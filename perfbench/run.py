"""Outside-in benchmark of the coverlab command line.

One run measures one workload:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 15 --trace 0

Run it from the repository root.  The workload runs in fresh worker
processes (``worker.py``) that import ``coverlab`` from ``src`` and drive
``coverlab.cli.main`` in-process, one closed-loop client, over inputs made
from the seed.  Every op's output is checked against ``oracle.py``.  With
``--trace 0`` the last line of standard output is a JSON object with every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric,
from one round traced by ``tracing.py`` and the same round untraced.

    python3 perfbench/run.py --all [--seeds 1,2,3] [--seconds 15]

runs every workload on each seed and traced twice, prints every metric by
name with its unit, checks that the traced counts repeat, and rewrites
``BENCHMARK.json`` and ``perfbench/baseline.json``.

    python3 perfbench/run.py --known

runs once each input that fails at the seed (``metrics.KNOWN_FAILURES``,
kept out of the timed workloads) and reports which still fail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

import metrics as spec
from decks import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, seconds: float) -> dict:
    """Start one worker, wait for it, and return its result with its set-up time."""
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    result = os.path.join(HERE, "out", f"result-{workload}-{seed}-{mode}-{os.getpid()}.json")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src"))
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, str(seed),
            str(seconds), result]
    started = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{mode} worker for {workload} did not end in {e.timeout} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    with open(result, encoding="utf-8") as fh:
        data = json.load(fh)
    os.remove(result)
    data["setup_s"] = data["ready"] - started
    return data


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        res = spawn("trace", workload, seed, seconds)
        values = res["layers"]
        units = {name: unit for name, unit, *_ in spec.PER_LAYER}
    else:
        # set-ups before and after the measuring worker, so a slow second on
        # the machine does not hit all of them
        half = (spec.SETUP_SPAWNS - 1) // 2
        setups = [spawn("setup", workload, seed, seconds)["setup_s"] for _ in range(half)]
        res = spawn("run", workload, seed, seconds)
        setups.append(res["setup_s"])
        setups += [spawn("setup", workload, seed, seconds)["setup_s"]
                   for _ in range(spec.SETUP_SPAWNS - 1 - half)]
        best = res["best"]
        values = {
            "setup_s": median(setups),
            "ops_per_s": sum(1 for r in best if r["verdict"] == "ok") / sum(r["s"] for r in best),
            "latency_ms_p50": spec.rank_ms(best, 0.5),
            "latency_ms_p90": spec.rank_ms(best, 0.9),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = {name: unit for name, unit, *_ in spec.END_TO_END}
    res["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return res


def report_line(m: dict) -> str:
    return json.dumps({k: m[k] for k in ("correct", "attempted", "failed", "metrics")})


def known_failures(seed: int) -> dict:
    """Run the known-failure inputs once; report which of them still fail."""
    res = spawn("run", "known", seed, 0)
    if not res["correct"] or res["unexpected"]:
        raise BenchError("known-failure inputs gave a wrong answer or failed another way: "
                         + "; ".join(res["unexpected"]))
    out = {k: {"workload": w, "ops": what, "cause": why,
               "still_fails": k in res["known_failing"]}
           for k, (w, what, why) in spec.KNOWN_FAILURES.items()}
    for k, v in out.items():
        print(f"  {k:<32} {'still fails' if v['still_fails'] else 'passes now'}")
    return out


def run_all(seeds: list[int], seconds: float) -> None:
    out = {}
    for w in WORKLOADS:
        runs = [measure(w, s, seconds, trace=False) for s in seeds]
        traces = [measure(w, seeds[0], seconds, trace=True) for _ in range(2)]
        repeat = traces[0]["counts"] == traces[1]["counts"]
        e2e = {name: {"unit": unit, "median": median(r["metrics"][name]["value"] for r in runs),
                      "runs": [r["metrics"][name]["value"] for r in runs]}
               for name, unit, *_ in spec.END_TO_END}
        layers = {name: {"unit": unit, "value": traces[0]["metrics"][name]["value"]}
                  for name, unit, *_ in spec.PER_LAYER}
        out[w] = {
            "end_to_end": e2e,
            "per_layer": layers,
            "counts_repeat": repeat,
            "correct": all(r["correct"] for r in runs + traces),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "unexpected_failures": sorted({u for r in runs + traces for u in r["unexpected"]}),
        }
        print(f"\n== {w}: correct={out[w]['correct']} attempted={out[w]['attempted']} "
              f"failed={out[w]['failed']} traced counts repeat={repeat}")
        for name, v in e2e.items():
            print(f"  {name:<34} {v['median']:>14.6g} {v['unit']:<6} runs "
                  + " ".join(f"{x:.6g}" for x in v["runs"]))
        for name, v in layers.items():
            print(f"  {name:<34} {v['value']:>14.6g} {v['unit']}")
        for u in out[w]["unexpected_failures"]:
            print(f"  unexpected failure: {u}")
    baseline = {
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "seeds": seeds,
        "seconds": seconds,
        "workloads": out,
        "metric_notes": {
            "end_to_end": {n: d for n, _, _, _, d in spec.END_TO_END},
            "per_layer": {n: {"what": d, "should_move": [f"{m} on {w}" for m, w in moves]}
                          for n, _, _, d, moves in spec.PER_LAYER},
        },
        "known_failures": known_failures(seeds[0]),
        "left_out": spec.LEFT_OUT,
    }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(spec.benchmark_spec(), fh, indent=2)
        fh.write("\n")


def main() -> int:
    p = argparse.ArgumentParser(description="Benchmark of the coverlab CLI.")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload, write the baseline")
    p.add_argument("--seeds", default="1,2,3", help="seeds for --all")
    p.add_argument("--known", action="store_true",
                   help="run the known-failure inputs once and report which still fail")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "coverlab", "cli.py")):
        print(f"error: no coverlab source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.all:
            run_all([int(s) for s in args.seeds.split(",")], args.seconds)
            return 0
        if args.known:
            known_failures(args.seed)
            return 0
        if args.workload is None:
            p.error("--workload is required unless --all is given")
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for u in m["unexpected"]:
        print(f"unexpected failure: {u}", file=sys.stderr)
    print(report_line(m))
    return 0


if __name__ == "__main__":
    sys.exit(main())
