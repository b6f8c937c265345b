#!/usr/bin/env python3
"""Negative controls for the benchmark itself.

    python3 perfbench/selftest.py

Checks that the correctness checker counts a wrong verdict and a
non-separating formula as failures, that the per-operation time limit gets
past ``cli.main``'s ``except Exception``, that one command prints every
metric named in BENCHMARK.json with its unit (untraced and traced), and that
the benchmark refuses to run without the program's sources.  Exit code 0 iff
every check passes.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from workloads import decide, explain  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def wrong_verdict_counts(linspect) -> None:
    wl = decide(1)
    run = bench.Run(wl, ROOT)
    i = 0  # the first op: check --rel tr -k 5 on a renamed copy
    rc, out = 0, "TRUE\n"
    judge_ok = bench.Judge(wl, linspect).judge(wl.ops[i], rc, out, None) is None
    check(judge_ok, "the right verdict on a renamed copy passes")
    run.first[i], run.completed[i] = (1, "FALSE\n{} (only left)\n"), 3
    run.judge(linspect)
    check(i in run.wrong_reasons, "a wrong verdict is reported")
    check(run.wrong_count() == 3, "each execution of the wrong verdict counts as failed")


def non_separating_formula_counts(linspect) -> None:
    wl = explain(1)
    i = next(i for i, op in enumerate(wl.ops) if op.kind.startswith("distinguish:pos"))
    reason = bench.Judge(wl, linspect).judge(wl.ops[i], 1, "tt\n", None)
    check(reason is not None and "separate" in reason, "a non-separating formula is reported")


def limit_gets_past_except_exception() -> None:
    def swallowing_main(argv):
        try:
            time.sleep(5)
        except Exception:  # noqa: BLE001 - what cli.main does
            return 2
        return 0

    wl = decide(1)
    wl.limit_s = 0.05
    signal.signal(signal.SIGALRM, bench._alarm)
    dt, rc, _ = bench.Run(wl, ROOT).call(swallowing_main, [])
    check(rc == "timeout" and dt < 1, "an op over its time limit is cut and reported as a timeout")


def every_metric_printed() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "decide", "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(proc.returncode == 0 and got == want, f"--trace {trace} prints every {key} metric with its unit")
        check(set(result) == {"correct", "attempted", "failed", "metrics"} and result["correct"],
              f"--trace {trace} result line has exactly the four keys and is correct")


def refuses_without_sources() -> None:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              "without the program's sources the benchmark exits nonzero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()


def main() -> int:
    linspect = bench.import_linspect()
    wrong_verdict_counts(linspect)
    non_separating_formula_counts(linspect)
    limit_gets_past_except_exception()
    every_metric_printed()
    refuses_without_sources()
    print("selftest", "failed: " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
