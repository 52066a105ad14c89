"""The benchmark's own tests: smoke runs, failure detection, trace invariants.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import report
import run as bench_run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
workloads = bench_run.import_program()


def run_bench(workload, trace, cwd=ROOT, script=None, seconds=1):
    script = script or Path(__file__).resolve().parent / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end(workload):
    result = last_json(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


# per-layer counts that tell the workloads apart (see README.md)
LAYER_EXPECTATIONS = {
    "solve2d": {"linalg.lu_factor.calls": 3, "lifting.grid_eval.points": 1266},
    "audit": {"linalg.lu_factor.calls": 0, "lifting.poly_operator_matrix.calls": 235},
    "oned": {"lifting.self_ms": 0, "linalg.format_matrix.calls": 32},
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced(workload):
    result = last_json(run_bench(workload, 1))
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    layers = ("partitions", "operators", "lifting", "linalg", "audits", "bvp", "cli")
    assert sum(metrics[f"{layer}.self_ms"] for layer in layers) <= metrics["trace.op_ms.mean"]
    # every op makes the same calls, so per-op call counts are whole numbers
    assert all(v == int(v) for name, v in metrics.items() if name.endswith(".calls"))
    for name, expected in LAYER_EXPECTATIONS[workload].items():
        assert metrics[name] == expected, name


def test_every_wrapped_function_is_listed():
    import importlib

    from tracer import LAYERS, public_functions

    listed = {m["name"] for m in SPEC["per_layer"]}
    for layer in LAYERS:
        module = importlib.import_module(f"liealg.{layer}")
        for name in public_functions(module):
            assert {f"{layer}.{name}.calls", f"{layer}.{name}.self_ms"} <= listed, name


def test_spread_of_a_mostly_zero_metric():
    assert report.spread([0, 0, 0, 0, 0, 0, 0, 0.1, 0.2, 0.3]) == float("inf")
    assert report.spread([0.0] * 10) == 0.0
    assert report.spread([1, 2, 3, 4, 5]) == pytest.approx(3.0 / 3)


def test_perturbed_emax_counts_as_failure(monkeypatch):
    calls = workloads.build_calls("solve2d", 5)
    reference = workloads.run_op(calls, time.perf_counter)
    assert reference.ok
    original = workloads.cli.run

    def perturbed(config):
        status, text = original(config)
        # still inside the gate's 20% band, so only the byte comparison catches it
        return status, text.replace("2.2860e-03", "2.2861e-03")

    monkeypatch.setattr(workloads.cli, "run", perturbed)
    (result,), _, _ = bench_run.measure(workloads, calls, 0.0, reference)
    assert not result.ok and "differs" in result.error


def test_broken_reference_counts_as_failure(monkeypatch):
    calls = workloads.build_calls("oned", 5)
    original = workloads.cli.run

    def broken(config):
        status, text = original(config)
        return status, text.replace("lie,16,1.5435e-11", "lie,16,1.5435e-09")

    monkeypatch.setattr(workloads.cli, "run", broken)
    result = workloads.run_op(calls, time.perf_counter)
    assert not result.ok and "table1 row lie,16" in result.error


def test_nonzero_status_and_exception_count_as_failures(monkeypatch):
    calls = workloads.build_calls("audit", 5)
    original = workloads.cli.run
    monkeypatch.setattr(workloads.cli, "run", lambda config: (1, original(config)[1]))
    assert "status 1" in workloads.run_op(calls, time.perf_counter).error

    def raising(config):
        raise RuntimeError("boom")

    monkeypatch.setattr(workloads.cli, "run", raising)
    assert "boom" in workloads.run_op(calls, time.perf_counter).error


def test_tracer_patches_every_binding_and_restores_it():
    from tracer import Tracer

    import liealg
    from liealg import bvp, linalg

    original = linalg.lu_solve
    tracer = Tracer()
    tracer.install()
    try:
        assert bvp.lu_solve is linalg.lu_solve is liealg.lu_solve
        assert linalg.lu_solve is not original
        bvp.solve_two_point(8)
    finally:
        tracer.uninstall()
    assert bvp.lu_solve is original and liealg.lu_solve is original
    calls, self_ns = tracer.totals()
    assert calls["bvp.solve_two_point"] == 1 and calls["linalg.lu_solve"] == 1
    root = tracer.span_name.tolist().index(tracer.name_ids["bvp.solve_two_point"])
    duration = tracer.span_end[root] - tracer.span_start[root]
    assert sum(self_ns.values()) == duration
    assert all(ns >= 0 for ns in tracer.self_ns())


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_bench("oned", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
