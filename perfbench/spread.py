#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: one run per seed, one at a time.

    python3 perfbench/spread.py --workload deep --seeds 1-10
    python3 perfbench/spread.py --workload deep --seeds 4,4,4

Prints, for each metric, the median of the runs and the distance between
their first and third quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    """``3-7`` for a range, ``1,1,1`` to repeat a seed."""
    if "," in text:
        return [int(x) for x in text.split(",")]
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {time.perf_counter() - t0:.1f} s wall, correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
    if len(args.seeds) < 2:
        return 0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:28s} median {med:12.4f}  spread {spread:7.3f}  bound {bounds[name]}  "
              f"values {' '.join(f'{v:.4g}' for v in vals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
