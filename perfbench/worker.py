"""One workload in one fresh process: set up, then run the deck in a closed
loop through ``coverlab.cli.main`` with output captured.

    worker.py MODE WORKLOAD SEED SECONDS RESULT_FILE

MODE is ``setup`` (set up, report when ready, exit), ``run`` (the deck
over and over until the ops have taken SECONDS, at least once through) or
``trace`` (one round untraced, then the same round traced).  ``run.py`` starts it with
``PYTHONPATH`` pointing at the checkout's ``src`` and a fixed hash seed,
and reads RESULT_FILE.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import resource
import shutil
import sys
import time

from coverlab import cli

import decks
import oracle
from metrics import SUBCOMMAND_P50, rank_ms

HERE = os.path.dirname(os.path.abspath(__file__))
# stop starting ops after this much wall time, so a run ends within its limit
# even if the program gets far slower
WALL_LIMIT_S = 120.0
# The CPUs of a small shared machine can differ in speed by a third and the
# scheduler keeps a process on one of them, so a run would depend on where
# it started.  The loop moves itself to the next CPU after each slice of op
# time, so every run spends about the same time on each.
CPU_SLICE_S = 0.5
_MS_FIELD = re.compile(r'"ms": [-0-9.e+]+')


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.ops = decks.make_deck(workload, seed)
        self.argv = {}
        os.makedirs(workdir, exist_ok=True)
        for op in self.ops:
            path = os.path.join(workdir, f"{op.id}.json")
            if op.covers is not None:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(decks.render_spacefile(op.n, op.covers))
            out = os.path.join(workdir, f"{op.id}.out.json")
            self.argv[op.id] = [a.replace("{file}", path).replace("{out}", out) for a in op.argv]
        self.verdicts: dict = {}
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu_turn = 0
        self.slice_s = 0.0

    def next_cpu(self) -> None:
        self.cpu_turn = (self.cpu_turn + 1) % len(self.cpus)
        os.sched_setaffinity(0, {self.cpus[self.cpu_turn]})
        self.slice_s = 0.0

    def run_op(self, op, tracer=None) -> dict:
        argv = self.argv[op.id]
        out_path = argv[argv.index("--out") + 1] if "--out" in argv else None
        if out_path and os.path.exists(out_path):
            os.remove(out_path)
        out, err = io.StringIO(), io.StringIO()
        raised = None
        if tracer is not None:
            tracer.start_op(op.id)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as e:  # an uncaught exception is a failed op
                rc, raised = None, type(e).__name__
            latency = time.perf_counter() - t0
        self.slice_s += latency
        if self.slice_s >= CPU_SLICE_S:
            self.next_cpu()
        stdout, stderr = out.getvalue(), err.getvalue()
        out_text = None
        if out_path and os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as fh:
                out_text = fh.read()
        key = (op.id, rc, raised, _MS_FIELD.sub("", stdout), stderr, out_text)
        if key not in self.verdicts:
            self.verdicts[key] = oracle.classify(op, rc, stdout, stderr, out_text, raised)
        verdict, reason = self.verdicts[key]
        return {"id": op.id, "cmd": op.cmd, "s": latency, "verdict": verdict,
                "reason": reason, "known": op.known_failure, "bytes": len(stdout)}

    def round(self, tracer=None) -> list[dict]:
        return [self.run_op(op, tracer) for op in self.ops]


def peak_rss_mb() -> float:
    """High-water RSS of this process.  ru_maxrss would do, but Linux carries
    it over from the parent across fork and exec, so it reads the parent's
    size whenever the parent is the larger."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tally:
    """Running summary of a run with one entry per op of the deck, so the
    worker's memory, and its peak_rss_mb, does not grow with the run.

    Each entry holds the op's fastest repetition and fails if any repetition
    failed: interference on a shared machine only ever adds time, so the
    fastest repetition is the steadiest estimate of what the op costs."""

    def __init__(self):
        self.best: dict[int, dict] = {}
        self.attempted = self.failed = 0
        self.busy = 0.0
        self.unexpected: set[str] = set()
        self.known_failing: set[str] = set()
        self.wrong = False

    def add(self, r: dict) -> None:
        self.attempted += 1
        self.busy += r["s"]
        best = self.best.setdefault(r["id"], {"s": r["s"], "verdict": oracle.OK, "cmd": r["cmd"]})
        best["s"] = min(best["s"], r["s"])
        if r["verdict"] == oracle.OK:
            return
        best["verdict"] = oracle.FAILED
        self.failed += 1
        self.wrong |= r["verdict"] == oracle.WRONG
        if r["known"]:
            self.known_failing.add(r["known"])
        else:
            self.unexpected.add(f'{r["cmd"]}: {r["verdict"]} {r["reason"]}')

    def summary(self) -> dict:
        return {"best": list(self.best.values()), "correct": not self.wrong,
                "attempted": self.attempted, "failed": self.failed,
                "unexpected": sorted(self.unexpected), "known_failing": sorted(self.known_failing)}


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds, result_path = argv
    seed, seconds = int(seed), float(seconds)
    workdir = os.path.join(HERE, "out", f"work-{workload}-{seed}-{os.getpid()}")
    try:
        runner = Runner(workload, seed, workdir)
        runner.next_cpu()
        ready = time.perf_counter()
        result = {"ready": ready}
        if mode == "run":
            # one whole round, then passes of the schedule until the ops have
            # taken SECONDS; every op of the deck runs at least once
            tally = Tally()
            for r in runner.round():
                tally.add(r)
            deadline = ready + WALL_LIMIT_S
            passes = decks.schedule(runner.ops)
            i = len(runner.ops)
            while tally.busy < seconds and time.perf_counter() < deadline:
                tally.add(runner.run_op(passes[i % len(passes)]))
                i += 1
            result.update(tally.summary())
        elif mode == "trace":
            result.update(trace(runner, workload, seed))
        result["peak_rss_mb"] = peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def trace(runner: Runner, workload: str, seed: int) -> dict:
    from tracing import Tracer

    plain = runner.round()
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.round(tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(os.path.join(HERE, "out", f"spans-{workload}-{seed}.jsonl"))
    plain_s = sum(r["s"] for r in plain)
    traced_s = sum(r["s"] for r in traced)
    layers = tracer.layer_metrics(len(traced))
    layers["cli.json_kb"] = sum(r["bytes"] for r in traced) / len(traced) / 1024
    layers["trace.overhead_s"] = traced_s - plain_s
    layers["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    for name, cmd in SUBCOMMAND_P50:
        mine = [r for r in plain if r["cmd"] == cmd]
        layers[name] = rank_ms(mine, 0.5) if mine else 0.0
    tally = Tally()
    for r in plain + traced:
        tally.add(r)
    counts = {k: v for k, v in sorted(tracer.counts.items()) if k != "xreal.contains_open"}
    return {**tally.summary(), "layers": layers, "counts": counts, "spans": len(tracer.spans)}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
