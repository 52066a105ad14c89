#!/usr/bin/env python3
"""Benchmark of the liealg command line: one closed-loop client, one process.

    python3 bench/run.py --workload solve2d --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is imported from ``src/`` next to
this directory, so a checkout needs no install step.  Each op runs the
workload's ``liealg.cli.run`` calls (see ``workloads.py``) and checks their
output; the next op starts when the previous one is done.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates untraced and traced blocks of ops and reports the
per-layer metrics; its spans are written to ``bench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names are those of
``BENCHMARK.json``.  Lines before it record the environment, the output
fingerprint, and the metrics outside ``BENCHMARK.json`` (``fail_ratio``,
``emax_over_ref``).
"""

import os

# BLAS threads are fixed before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import operator  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("solve2d", "audit", "oned")

# A run is cut into blocks of about this many seconds, each preceded by one
# set-up probe (a fresh process).  setup_s is the median of the probes, each
# rescaled by the host speed (see calibration.py) measured in the block after
# it; spreading the probes over the run lets them meet the same host states
# as the ops.
BLOCK_SECONDS = 2.0
# loop seconds between two host-speed samples
CALIBRATE_SECONDS = 0.1
# a traced run alternates this many untraced and traced stretches, so that
# a drift of host speed hits both sides of trace.overhead_ratio alike
TRACE_BLOCKS = 4


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Put the checkout's ``src/`` first on the path and import liealg from it."""
    if not (SRC / "liealg" / "__init__.py").is_file():
        fail(f"no liealg sources under {SRC}; run from a full checkout")
    if not SPEC.is_file():
        fail(f"missing {SPEC.name} at the checkout root")
    sys.path.insert(0, str(SRC))
    import liealg

    if Path(liealg.__file__).resolve().parent != SRC / "liealg":
        fail(f"imported liealg from {liealg.__file__}, not from {SRC}")
    import workloads

    return workloads


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="internal: import, run one cold op, report and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def probe(workload: str, seed: int) -> int:
    """Body of a set-up probe process: import, one cold op, then check it."""
    workloads = import_program()
    calls = workloads.build_calls(workload, seed)
    result = workloads.run_op(calls, time.perf_counter)
    print("done", flush=True)
    return 0 if result.ok else 1


def setup_probe(workload: str, seed: int) -> tuple[float, bool]:
    """Seconds from starting a fresh process through its first cold op, and
    whether that op passed its checks."""
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        seconds = time.perf_counter() - start
        child.stdout.read()
        ok = child.wait() == 0 and line.strip() == "done"
    return seconds, ok


def measure(workloads, calls, seconds, reference, before_op=None):
    """Closed loop for ``seconds``; each op is checked against the references
    and must be byte-identical to the run's first op.

    Host-speed samples are taken at the start, after the first op past every
    CALIBRATE_SECONDS, and at the end.  Returns the op results, each op's
    speed factor (from the samples just before and just after it), and the
    samples.
    """
    results, host_ms, before = [], [calibration.sample()], []
    start = last_sample = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        if before_op is not None:
            before_op()
        before.append(len(host_ms) - 1)
        result = workloads.run_op(calls, time.perf_counter)
        if result.ok and result.digest != reference.digest:
            result.ok = False
            result.error = "output differs from the run's first op"
        result.fingerprint = {}  # only the first op's is reported; keeps memory flat
        results.append(result)
        if time.perf_counter() - last_sample >= CALIBRATE_SECONDS:
            host_ms.append(calibration.sample())
            last_sample = time.perf_counter()
    if before[-1] == len(host_ms) - 1:
        host_ms.append(calibration.sample())
    index = [calibration.index(parts) for parts in host_ms]
    speeds = [2.0 * calibration.REFERENCE_MS / (index[k] + index[k + 1]) for k in before]
    return results, speeds, host_ms


def speed(host_ms) -> float:
    """Factor that rescales wall times measured beside these host samples
    to the reference host speed."""
    return calibration.REFERENCE_MS / statistics.median(map(calibration.index, host_ms))


def percentile(values, q: int) -> float:
    """q-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_ms(results) -> list[float]:
    """Op times in ms; a failed op keeps its time, and is counted in ``failed``."""
    return [r.seconds * 1e3 for r in results]


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def end_to_end(workloads, calls, args, reference):
    """Blocks of BLOCK_SECONDS of ops, each preceded by one set-up probe.

    Every op time is rescaled by the host speed measured around it; the
    percentiles and the rate are taken over all rescaled ops of the run.  The
    raw values are kept in the details.
    """
    count = max(1, round(args.seconds / BLOCK_SECONDS))
    probes, results, speeds, scale = [], [], [], []
    for _ in range(count):
        probes.append(setup_probe(args.workload, args.seed))
        block, block_speeds, host_ms = measure(workloads, calls, args.seconds / count, reference)
        results += block
        speeds += block_speeds
        scale.append(speed(host_ms))
    ms = op_ms(results)
    scaled = [t * f for t, f in zip(ms, speeds)]
    ok_ops = sum(r.ok for r in results)
    setup_raw = [seconds for seconds, _ in probes]
    metrics = {
        "op_ms.p50": (percentile(scaled, 50), "ms"),
        "op_ms.p90": (percentile(scaled, 90), "ms"),
        "ops_per_s": (ok_ops / sum(scaled) * 1e3, "1/s"),
        "setup_s": (statistics.median(map(operator.mul, setup_raw, scale)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    ratios = [r.emax_over_ref for r in results if r.ok and r.emax_over_ref is not None]
    extra = {
        "samples": len(results),
        "fail_ratio": sum(not r.ok for r in results) / len(results),
        "emax_over_ref": max(ratios) if ratios else None,
        "wall.op_ms.p50": percentile(ms, 50),
        "wall.op_ms.p90": percentile(ms, 90),
        "wall.ops_per_s": ok_ops / sum(ms) * 1e3,
        "wall.setup_s": statistics.median(setup_raw),
        "host.speed": statistics.fmean(speeds),
        "blocks.speed": [round(v, 4) for v in scale],
        "probes.wall.setup_s": [round(v, 4) for v in setup_raw],
    }
    setup_failed = sum(not ok for _, ok in probes)
    return results, metrics, extra, setup_failed


def per_layer(workloads, calls, args, reference):
    """Untraced and traced stretches alternate; times are rescaled to the
    reference host speed of the traced stretches."""
    from tracer import COUNTERS, LAYERS, Tracer

    tracer = Tracer()
    plain, traced, op_first_span = [], [], []
    plain_ms, traced_ms, traced_host = [], [], []
    stretch = args.seconds / (2 * TRACE_BLOCKS)
    for _ in range(TRACE_BLOCKS):
        results, speeds, _ = measure(workloads, calls, stretch, reference)
        plain += results
        plain_ms += [ms * f for ms, f in zip(op_ms(results), speeds)]
        tracer.install()
        try:
            results, speeds, host_ms = measure(
                workloads, calls, stretch, reference,
                before_op=lambda: op_first_span.append(tracer.span_count))
        finally:
            tracer.uninstall()
        traced += results
        traced_ms += [ms * f for ms, f in zip(op_ms(results), speeds)]
        traced_host += host_ms

    ops = len(traced)
    scale = speed(traced_host)
    calls_by_name, self_ns = tracer.totals()
    metrics = {}
    for name in sorted(set(calls_by_name)):
        metrics[f"{name}.calls"] = (calls_by_name[name] / ops, "count")
        metrics[f"{name}.self_ms"] = (self_ns[name] / ops / 1e6 * scale, "ms")
    for layer in LAYERS:
        layer_ns = sum(ns for name, ns in self_ns.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.self_ms"] = (layer_ns / ops / 1e6 * scale, "ms")
    for key in COUNTERS:
        unit = key.rsplit(".", 1)[1]
        metrics[key] = (tracer.counts.get(key, 0.0) / ops, unit)
    metrics["trace.op_ms.mean"] = (statistics.fmean(op_ms(traced)) * scale, "ms")
    metrics["trace.overhead_ratio"] = (percentile(traced_ms, 50) / percentile(plain_ms, 50),
                                       "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}.jsonl.gz"
    tracer.write(spans_path, lambda idx: bisect.bisect_right(op_first_span, idx) - 1,
                 {"workload": args.workload, "seed": args.seed, "ops": ops, "speed": scale,
                  "fields": ["span", "name", "parent", "start_ns", "end_ns", "op"]})
    extra = {"samples": len(plain) + ops, "traced_ops": ops, "spans": tracer.span_count,
             "host.speed": scale, "spans_file": str(spans_path.relative_to(ROOT))}
    return plain + traced, metrics, extra


def select(metrics: dict, kind: str) -> dict:
    """The metrics ``BENCHMARK.json`` lists under ``kind``, in its order.

    A function-level metric of a function no op called reads 0.
    """
    out = {}
    for entry in json.loads(SPEC.read_text())[kind]:
        name = entry["name"]
        if name in metrics:
            value, unit = metrics[name]
        elif kind == "per_layer" and name.endswith((".calls", ".self_ms")):
            value, unit = 0.0, entry["unit"]
        else:
            raise KeyError(f"the benchmark computes no metric {name!r}")
        if unit != entry["unit"]:
            raise ValueError(f"metric {name}: unit {unit!r} != {entry['unit']!r}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.probe:
        return probe(args.workload, args.seed)
    workloads = import_program()
    print("env " + json.dumps(environment(args)), flush=True)

    calls = workloads.build_calls(args.workload, args.seed)
    reference = workloads.run_op(calls, time.perf_counter)
    setup_failed = 0
    if args.trace:
        results, metrics, extra = per_layer(workloads, calls, args, reference)
    else:
        results, metrics, extra, setup_failed = end_to_end(workloads, calls, args, reference)

    errors = [r.error for r in results if not r.ok]
    failed = len(errors)
    for error in errors[:5]:
        print(f"failed op: {error}", file=sys.stderr)
    if not reference.ok:
        print(f"first op failed: {reference.error}", file=sys.stderr)
    print("fingerprint " + json.dumps({"sha256": reference.digest, **reference.fingerprint}))
    print("details " + json.dumps(extra))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<44} {value:>14.6g} {unit}")
    kind = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": reference.ok and failed == 0 and setup_failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": select(metrics, kind),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
