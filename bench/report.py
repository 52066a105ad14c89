#!/usr/bin/env python3
"""Run every workload and print every end-to-end metric by name and unit.

    python3 bench/report.py                         # one round, seed 1, 10 s each
    python3 bench/report.py --seeds 1-10 --seconds 30

Each (seed, workload) pair is one ``bench/run.py`` process.  Rounds are
interleaved (seed 1: solve2d, audit, oned; seed 2: ...) so that a drift of
host speed spreads over all workloads instead of landing on one.  With more
than one seed the report adds, per metric, the median and the quartile
spread (Q3 - Q1) / median over the runs, the figure that ``BENCHMARK.json``'s
bounds are checked against.  The command exits 1 if any run fails.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("solve2d", "audit", "oned")
# printed beside the BENCHMARK.json metrics: parsed from each run's details line
EXTRA = (("fail_ratio", "ratio"), ("emax_over_ref", "ratio"), ("samples", "count"),
         ("wall.op_ms.p50", "ms"), ("wall.op_ms.p90", "ms"), ("wall.ops_per_s", "1/s"),
         ("wall.setup_s", "s"), ("host.speed", "ratio"))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(v) for v in text.split("-"))
        return list(range(first, last + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    details = next(json.loads(line[len("details "):]) for line in lines
                   if line.startswith("details "))
    for name, unit in EXTRA:
        if details.get(name) is not None:
            result["metrics"][name] = {"value": details[name], "unit": unit}
    return result


def spread(values: list[float]) -> float:
    """(Q3 - Q1) / median; 0 for a metric that reads the same on every run,
    inf for one whose median is 0 but whose quartiles differ."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    if q3 == q1:
        return 0.0
    median = statistics.median(values)
    return math.inf if median == 0 else (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7,9")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    runs = {name: [] for name in WORKLOADS}
    ok = True
    for seed in seeds:
        for name in WORKLOADS:
            result = run_once(name, seed, args.seconds, args.trace)
            runs[name].append({"seed": seed, **result})
            ok &= result["correct"] and result["failed"] == 0
            print(f"seed {seed:>3} {name:<8} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                             if v["value"] is not None), flush=True)

    print()
    header = f"{'workload':<8} {'metric':<40} {'unit':<7} {'median':>12}"
    print(header + (f" {'spread':>8}" if len(seeds) > 1 else ""))
    for name in WORKLOADS:
        # a metric can be missing from some runs (emax_over_ref when every op failed)
        units = {}
        for r in runs[name]:
            for metric, m in r["metrics"].items():
                units.setdefault(metric, m["unit"])
        for metric, unit in units.items():
            values = [r["metrics"][metric]["value"] for r in runs[name] if metric in r["metrics"]]
            line = f"{name:<8} {metric:<40} {unit:<7} {statistics.median(values):>12.6g}"
            if len(values) > 1:
                line += f" {spread(values):>8.4f}"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
