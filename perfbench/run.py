#!/usr/bin/env python3
"""Benchmark for linspect: one closed-loop client in one process.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each operation is one in-process call to
``linspect.cli.main(argv)`` on structure files made at set-up from the seed;
the next operation starts when the previous one returns.  The timed phase
repeats whole passes over the workload's operations until ``--seconds`` have
passed, with at least three passes.  Every pass yields each timing metric
once, over all its operations, and the run reports the median over its
passes: on a shared virtual machine the speed swings by 15-50% within
seconds, and the median of many short passes follows that least.  Outputs
are checked after the timed phase.  The last line
of stdout is the JSON result: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from checks import Judge
from tracer import Tracer
from workloads import FORMULA, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_PASSES = 3


class OpTimeout(BaseException):
    """Raised by the per-operation alarm.  A BaseException, so that the
    ``except Exception`` in ``cli.main`` cannot turn it into exit 2."""


def _alarm(signum, frame):
    raise OpTimeout()


def import_linspect():
    """A fresh import of the package from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "linspect" or m.startswith("linspect.")]:
        del sys.modules[name]
    importlib.import_module("linspect.cli")
    return importlib.import_module("linspect")


class Run:
    """State of one benchmark run: inputs, per-op records and the first outputs."""

    def __init__(self, workload: Workload, workdir: Path) -> None:
        self.wl = workload
        self.workdir = workdir
        self.status: Counter = Counter()  # executions that ended in "error" or "timeout"
        self.by_kind: Counter = Counter()
        self.first: dict[int, tuple[int, str]] = {}  # op index -> first completed output
        self.completed: Counter = Counter()  # op index -> completed executions
        self.wrong_reasons: dict[int, str] = {}
        self.nondeterministic: set[int] = set()

    def argv(self, i: int, pass_out: dict[int, tuple[int, str]]):
        op = self.wl.ops[i]
        formula = None
        if op.source is not None:
            rc, out = pass_out.get(op.source, (None, ""))
            if rc != 1:  # nothing to evaluate: "equivalent", or the source failed
                return None
            formula = out.strip()
        files = self.wl.files
        return [
            formula if a == FORMULA else str(self.workdir / a) if a in files else a
            for a in op.argv
        ]

    def call(self, main, argv: list[str]) -> tuple[float, object, str]:
        out = io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, self.wl.limit_s)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
        except OpTimeout:
            rc = "timeout"
        except SystemExit as exc:
            rc = exc.code
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - t0, rc, out.getvalue()

    def one_pass(self, main, tracer=None) -> list[float]:
        """Every op once, in order; returns the pass's latencies."""
        pass_out: dict[int, tuple[int, str]] = {}
        latencies = []
        for i, op in enumerate(self.wl.ops):
            argv = self.argv(i, pass_out)
            if argv is None:
                continue
            if tracer is not None:
                tracer.begin_op()
            dt, rc, out = self.call(main, argv)
            latencies.append(dt)
            self.by_kind[op.kind] += 1
            if rc in (0, 1):
                pass_out[i] = (rc, out)
                ref = self.first.setdefault(i, (rc, out))
                if ref != (rc, out):
                    self.nondeterministic.add(i)
                self.completed[i] += 1
            else:
                self.status["timeout" if rc == "timeout" else "error"] += 1
        return latencies

    def judge(self, linspect) -> None:
        """Check the first completed output of every op; counts wrong executions."""
        judge = Judge(self.wl, linspect)
        for i, (rc, out) in sorted(self.first.items()):
            op = self.wl.ops[i]
            src = self.first.get(op.source, (None, None))[1] if op.source is not None else None
            try:
                reason = judge.judge(op, rc, out, src)
            except (ValueError, KeyError) as exc:
                reason = f"checker could not read the output: {exc!r}"
            if reason is None and i in self.nondeterministic:
                reason = "output differs between passes"
            if reason is not None:
                self.wrong_reasons[i] = reason

    def wrong_count(self) -> int:
        # every completed execution of a wrongly answered op is wrong
        return sum(self.completed[i] for i in self.wrong_reasons)


def setup(name: str, seed: int, workdir: Path):
    """Import, input generation, writing the files, and a warm-up call of each
    command (its first op in the workload's order)."""
    t0 = time.perf_counter()
    linspect = import_linspect()
    workload = WORKLOADS[name](seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for fname, data in workload.files.items():
        (workdir / fname).write_text(json.dumps(data))
    run = Run(workload, workdir)
    seen = set()
    for i, op in enumerate(workload.ops):
        if op.argv[0] not in seen and op.source is None:
            seen.add(op.argv[0])
            run.call(linspect.cli.main, run.argv(i, {}))
    return time.perf_counter() - t0, workload, linspect


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "linspect" / "cli.py").is_file():
        print(f"error: no linspect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    signal.signal(signal.SIGALRM, _alarm)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return bench(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def bench(args, spec: dict, workdir: Path) -> int:
    setups = [setup(args.workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(s[0] for s in setups)
    _, workload, linspect = setups[-1]
    main = linspect.cli.main
    run = Run(workload, workdir)

    # the traced run alternates plain and traced passes; the plain ones give
    # the reference for the tracing overhead
    tracer = Tracer() if args.trace else None
    plain: list[list[float]] = []  # latencies of each pass
    traced: list[list[float]] = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < args.seconds or len(plain) < MIN_PASSES:
        plain.append(run.one_pass(main))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run.one_pass(main, tracer))
            finally:
                tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    run.judge(linspect)
    attempted = sum(len(lat) for lat in plain + traced)
    wrong = run.wrong_count()
    failed = run.status["error"] + run.status["timeout"] + wrong

    def per_pass(metric) -> float:
        return statistics.median(metric(lat) for lat in plain)

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "ops_per_s": per_pass(lambda lat: len(lat) / sum(lat)),
            "latency_p50_ms": per_pass(lambda lat: 1000 * statistics.median(lat)),
            "latency_p90_ms": per_pass(
                lambda lat: 1000 * statistics.quantiles(lat, n=10, method="inclusive")[8]),
            "ok_share": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        names = spec["end_to_end"]
    else:
        values = tracer.metrics(len(traced))
        traced_s = statistics.median(sum(lat) for lat in traced)
        values["trace.overhead_pct"] = 100 * (traced_s / per_pass(sum) - 1)
        names = spec["per_layer"]

    provenance = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": {"plain": len(plain), "traced": len(traced)},
        "ops_per_pass": len(workload.ops),
        "ops_by_kind": dict(sorted(run.by_kind.items())),
        "limit_s": workload.limit_s,
        "failed": {"error": run.status["error"], "timeout": run.status["timeout"], "wrong": wrong},
        "samples": attempted,
        "latency_samples_per_pass": len(plain[0]),
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(f"failed_share {failed}/{attempted} = {failed / attempted:.4f}")
    for i, reason in sorted(run.wrong_reasons.items()):
        print(f"wrong: op {i} {' '.join(workload.ops[i].argv)[:120]}: {reason}", file=sys.stderr)
    result = {
        "correct": not run.wrong_reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
